"""The benchmark traces simkg functions by name (``bench/tracing.py``).

Each traced name is resolved here the way ``Tracer.install`` resolves it,
so renaming a traced function fails this test, not a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

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
