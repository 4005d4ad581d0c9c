"""Run the CLI case table, ``tests/fixtures/cli_cases.json``, whose format
README "Tests and acceptance suite" describes.

    python tests/cli_table.py simkg
    python tests/cli_table.py python -m simkg

runs every case through that command (the package must be importable from
any directory, as an install makes it), prints one line per mismatch and
exits 1 if there is any.  ``tests/test_cli_table.py`` runs the same cases
in process through ``cli.main`` and through ``python -m simkg``.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
CASES = json.loads((FIXTURES / "cli_cases.json").read_text(encoding="utf-8"))


def _decode(data: bytes) -> str:
    return data.decode("utf-8", "surrogateescape")  # one string per byte string, so text compares as bytes


def _content(spec) -> str:
    if isinstance(spec, str):
        return spec
    if "fixture" in spec:
        return _decode((FIXTURES / spec["fixture"]).read_bytes())
    return spec["text"]


def _compare(where: str, want: str, got: str) -> list[str]:
    if want == got:
        return []
    wanted, found = want.splitlines(keepends=True), got.splitlines(keepends=True)
    line = next((i for i, pair in enumerate(zip(wanted, found)) if pair[0] != pair[1]), min(len(wanted), len(found)))
    return [f"{where} differs at line {line + 1}: expected {wanted[line:line + 1]}, got {found[line:line + 1]}"]


def run_case(case, invoke) -> list[str]:
    """Run one case and return its mismatches, none when every step matches.

    ``invoke(argv, cwd)`` runs one command and returns ``(code, stdout, stderr)``.
    """
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        for name, spec in case.get("files", {}).items():
            (cwd / name).write_bytes(_content(spec).encode("utf-8", "surrogateescape"))
            if "mode" in spec:
                (cwd / name).chmod(int(spec["mode"], 8))
        for number, step in enumerate(case["steps"], 1):
            where = f"{case['name']} step {number} ({' '.join(step['argv'])}):"
            code, out, err = invoke(step["argv"], cwd)
            if code != step["exit"]:
                problems.append(f"{where} exit {code}, expected {step['exit']}")
            for stream, got in (("stdout", out), ("stderr", err)):
                if stream in step:
                    problems += _compare(f"{where} {stream}", _content(step[stream]), got)
            for name, spec in step.get("files", {}).items():
                path = cwd / name
                if not path.is_file():
                    problems.append(f"{where} {name} was not written")
                    continue
                problems += _compare(f"{where} {name}", _content(spec), _decode(path.read_bytes()))
                mode = f"{path.stat().st_mode & 0o777:o}"
                if mode != spec.get("mode", mode):
                    problems.append(f"{where} {name} has mode {mode}, expected {spec['mode']}")
    return problems


def process(prefix: list[str]):
    """An ``invoke`` that runs ``prefix + argv`` as a child process."""

    def invoke(argv, cwd):
        done = subprocess.run([*prefix, *argv], cwd=cwd, capture_output=True)
        return done.returncode, _decode(done.stdout), _decode(done.stderr)

    return invoke


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_table.py COMMAND...   (simkg, or python -m simkg)")
    problems = [line for case in CASES for line in run_case(case, process(sys.argv[1:]))]
    for line in problems:
        print(line)
    print(f"{len(CASES)} cases through {' '.join(sys.argv[1:])}: {len(problems)} mismatches")
    sys.exit(1 if problems else 0)
