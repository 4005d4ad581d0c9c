"""Graph work makes no cyclic garbage.

The CLI pauses the cyclic garbage collector while a command runs, and
``import_turtle`` (so ``load_graph``) pauses it while a library caller
loads a graph; both are safe only while the library leaves no reference
cycle behind.  Each step below runs with the collector off on the golden
files, and a full collection afterwards must find nothing to free.
"""

import gc

import pytest

from conftest import FIXTURES
from simkg import Graph, export_turtle, import_turtle, load_graph, make_entity
from simkg.dbpedia import convert_dbpedia, read_triples_file
from simkg.dictionary import convert_document
from simkg.query import _QUESTIONS, CqId, run_cq
from simkg.validate import check_axioms
from simkg.wordnet import convert_synsets, read_synset_file

GOLDEN = sorted((FIXTURES / "golden").glob("*.ttl"))
IDS = [path.stem for path in GOLDEN]


def cyclic_garbage(step) -> int:
    """What a full collection frees after ``step`` ran with the collector off.

    Objects from before the step are frozen, so the collection looks only
    at what the step made and stays quick however large the heap is.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        step()
        return gc.collect()
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def bindings(g, cq: CqId) -> dict:
    """One binding per name ``cq`` needs, each a member the graph holds."""
    sim = g.simulations[min(g.simulations)]
    member = {
        "simulation": sim.id,
        "simulacrum": sim.simulacra[0],
        "entity": sim.simulacra[0],
        "rc": sim.reality_counterparts[0][1],
        "context": sim.contexts[0],
    }
    return {name: member[name] for name in _QUESTIONS[cq][0]}


@pytest.mark.parametrize("path", GOLDEN, ids=IDS)
def test_import(path):
    text = path.read_text(encoding="utf-8")
    assert cyclic_garbage(lambda: import_turtle(text)) == 0


@pytest.mark.parametrize("path", GOLDEN, ids=IDS)
def test_read_side_steps(path):
    g = load_graph(path)
    assert cyclic_garbage(lambda: check_axioms(g)) == 0
    assert cyclic_garbage(g.stats) == 0
    assert cyclic_garbage(lambda: export_turtle(g)) == 0
    for cq in CqId:
        assert cyclic_garbage(lambda: run_cq(g, cq, bindings(g, cq))) == 0, cq.value


def _dictionary():
    return convert_document((FIXTURES / "hook.dict").read_text(encoding="utf-8"), make_entity("olderr"))[1]


def _dbpedia():
    return convert_dbpedia(read_triples_file(FIXTURES / "eagle.nt"), make_entity("DBpedia"))


def _wordnet():
    return convert_synsets(read_synset_file(FIXTURES / "penelope.tsv"), make_entity("Wordnet"))


@pytest.mark.parametrize("convert", [_dictionary, _dbpedia, _wordnet], ids=["dictionary", "dbpedia", "wordnet"])
def test_convert_and_insert(convert):
    def step():
        g = Graph()
        for sim in convert().simulations:
            g.insert_simulation(sim)

    assert cyclic_garbage(step) == 0
