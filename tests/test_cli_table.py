"""The CLI case table, run in process through ``cli.main`` and through
``python -m simkg``; CI runs it through the installed ``simkg`` script too."""

import copy
import os
import sys
from pathlib import Path

import pytest

import simkg
from cli_table import CASES, FIXTURES, process, run_case
from simkg.cli import main


@pytest.fixture
def in_process(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")

    def invoke(argv, cwd):
        monkeypatch.chdir(cwd)
        code = main(argv)
        return (code, *capsys.readouterr())

    return invoke


@pytest.fixture
def module_entry(monkeypatch):
    # the child runs in the case directory, so it is given the simkg this process imports
    src = str(Path(simkg.__file__).parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return process([sys.executable, "-m", "simkg"])


@pytest.mark.parametrize("entry", ["in_process", "module_entry"])
@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_case(case, entry, request):
    assert run_case(case, request.getfixturevalue(entry)) == []


def test_every_golden_graph_is_exported_by_a_case():
    exported = {
        step["stdout"]["fixture"]
        for case in CASES
        for step in case["steps"]
        if step["argv"][0] == "export" and isinstance(step.get("stdout"), dict)
    }
    assert exported == {f"golden/{path.name}" for path in (FIXTURES / "golden").glob("*.ttl")}


def _change_stderr_line(step):
    step["stderr"] = step["stderr"].replace("closes a cycle", "closes a loop")


def _change_exit_code(step):
    step["exit"] = 1


def _change_out_byte(step):
    out = step["files"]["post.ttl"]
    out["text"] = out["text"].replace("kb:d", "kb:e", 1)


@pytest.mark.parametrize(
    "change, mismatch",
    [
        (_change_stderr_line, "stderr differs at line 1"),
        (_change_exit_code, "exit 0, expected 1"),
        (_change_out_byte, "post.ttl differs at line"),
    ],
    ids=["stderr-line", "exit-code", "out-byte"],
)
def test_a_changed_expectation_is_reported(change, mismatch, in_process):
    case = copy.deepcopy(next(case for case in CASES if case["name"] == "stored-cycle-file-order"))
    change(case["steps"][1])
    problems = run_case(case, in_process)
    assert len(problems) == 1 and mismatch in problems[0], problems
