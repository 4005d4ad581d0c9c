"""The benchmark calls simkg by name: it traces functions
(``bench/tracing.py``) and builds its corpus through the library
(``bench/run.py`` ``build_corpus``).

Each traced name is resolved here the way ``Tracer.install`` resolves it,
and the corpus is built as a benchmark run builds it, so a change to a
name or a call the benchmark uses fails this test, not a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from simkg import load_graph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("bench_tracing", BENCH / "tracing.py")

# Names the count functions of the benchmark import when a request ends.
COUNTED = (("serialize", "graph_triples"), ("wordnet", "select_synsets"))


@pytest.mark.parametrize(
    "mod_name, attr", [(mod, attr) for mod, attr, _ in tracing.TRACED], ids=lambda v: v
)
def test_traced_name_resolves(mod_name, attr):
    mod = importlib.import_module(f"simkg.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(mod, cls_name).__dict__[meth])
    else:
        assert callable(getattr(mod, attr))


@pytest.mark.parametrize("mod_name, attr", COUNTED, ids=lambda v: v)
def test_counted_name_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(f"simkg.{mod_name}"), attr))


@pytest.mark.parametrize("seed", [1, 5])
def test_build_corpus_passes_its_checks(seed, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts bench/ and src/ first
    run = _load("bench_run", BENCH / "run.py")
    bench_run = run.Run("cli-read", seed, 1.0, tmp_path)
    run.build_corpus(bench_run)
    assert bench_run.failures == []
    assert bench_run.attempted == 1
    # every role in the benchmark corpus is implied by a membership
    assert load_graph(tmp_path / "corpus.ttl")._stated_roles == {}
