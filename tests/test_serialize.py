import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import random_graph
from simkg import (
    Graph,
    GraphViolationsError,
    Iri,
    Literal,
    RcRelation,
    Role,
    SimulationKind,
    TurtleSyntaxError,
    build_simulation,
    export_turtle,
    import_turtle,
    make_entity,
    save_graph,
)
from simkg.model import KB
from simkg.serialize import write_atomic


def test_empty_graph_exports_prefix_header_only():
    text = export_turtle(Graph())
    lines = [l for l in text.splitlines() if l.strip()]
    assert all(l.startswith("@prefix") for l in lines)
    assert [l.split()[1] for l in lines] == ["rdf:", "rdfs:", "owl:", "prov:", "sim:", "kb:"]


def test_bee_resurrection_block(toy_graph):
    text = export_turtle(toy_graph)
    assert (
        "kb:bee-resurrection a sim:Simulation ;\n"
        "    sim:hasSimulacrum kb:bee ;\n"
        "    sim:hasRealityCounterpart kb:resurrection ;\n"
        "    sim:hasContext kb:egyptian ;" in text
    )


def test_specialized_rc_predicate_emitted(toy_graph):
    assert "sim:elicitedRealityCounterpart kb:healthyBlood" in export_turtle(toy_graph)


def test_variant_and_labels_emitted(toy_graph):
    text = export_turtle(toy_graph)
    assert "sim:hasVariant kb:nightBird" in text
    assert 'rdfs:label "night bird"' in text


def test_export_requires_clean_graph():
    g = Graph()
    g.upsert_entity(make_entity("lonely", Role.SIMULACRUM))
    with pytest.raises(GraphViolationsError):
        export_turtle(g)
    assert export_turtle(g, force=True)  # force serializes as-is


def test_refused_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "g.ttl"
    path.write_text("old contents\n", encoding="utf-8")
    g = Graph()
    g.upsert_entity(make_entity("lonely", Role.SIMULACRUM))
    with pytest.raises(GraphViolationsError):
        save_graph(g, path)
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.ttl"]


def test_failed_replace_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    (target / "inner").write_text("x", encoding="utf-8")
    with pytest.raises(OSError):
        write_atomic(target, "text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert sorted(p.name for p in target.iterdir()) == ["inner"]


def test_round_trip_identity(toy_graph):
    text = export_turtle(toy_graph)
    assert import_turtle(text) == toy_graph


def test_export_is_byte_deterministic(toy_graph):
    assert export_turtle(toy_graph) == export_turtle(toy_graph)


def test_round_trip_of_random_graphs():
    for seed in range(50):
        g = random_graph(random.Random(seed), max_sims=12)
        text = export_turtle(g)
        back = import_turtle(text)
        assert back == g, f"seed {seed}"
        assert export_turtle(back) == text, f"seed {seed}"


def test_emitted_triple_count_equals_stats_total():
    for seed in (3, 17, 29):
        g = random_graph(random.Random(seed), max_sims=15)
        from simkg.serialize import graph_triples

        emitted = len(set(graph_triples(g)))
        assert emitted == g.stats().total.n_triples, f"seed {seed}"


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    g = random_graph(random.Random(seed), max_sims=8)
    assert import_turtle(export_turtle(g)) == g


def test_import_specialized_rc_fixture():
    g = import_turtle(
        """\
@prefix sim: <https://w3id.org/simulation/ontology/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix kb: <https://w3id.org/simulation/data/> .

kb:agate-evilSpirits a sim:ProtectionSimulation ;
    sim:hasSimulacrum kb:agate ;
    sim:preventedRealityCounterpart kb:evilSpirits ;
    sim:hasContext kb:arabian ;
    prov:wasDerivedFrom kb:olderr .
"""
    )
    sim = g.simulations[Iri(KB + "agate-evilSpirits")]
    assert sim.kind is SimulationKind.PROTECTION
    assert [(rel, e.id.local_name) for rel, e in sim.reality_counterparts] == [
        (RcRelation.PREVENTED, "evilSpirits")
    ]


def test_unmatched_quote_reports_line():
    doc = '@prefix kb: <https://w3id.org/simulation/data/> .\nkb:a kb:p "oops .\n'
    with pytest.raises(TurtleSyntaxError) as err:
        import_turtle(doc)
    assert err.value.line == 2


def test_undeclared_prefix_rejected():
    with pytest.raises(TurtleSyntaxError):
        import_turtle("kb:a kb:b kb:c .")


def test_blank_node_rejected():
    with pytest.raises(TurtleSyntaxError):
        import_turtle("@prefix kb: <https://w3id.org/simulation/data/> .\nkb:a kb:p [ kb:q kb:r ] .")


def test_label_escaping_round_trips():
    g = Graph()
    gnarly = 'he said "hi"\\\n\ttwice'
    g.insert_simulation(
        build_simulation(
            SimulationKind.GENERIC,
            make_entity(gnarly + " owl"),
            [(RcRelation.HAS, make_entity("death"))],
            [make_entity("hindu")],
            [make_entity("olderr", Role.SOURCE)],
        )
    )
    back = import_turtle(export_turtle(g))
    assert back == g
    labels = {e.label for e in back.entities.values()}
    assert gnarly + " owl" in labels


def test_language_tagged_literals_parse():
    g = import_turtle(
        """\
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix kb: <https://w3id.org/simulation/data/> .

kb:owl rdfs:label "owl"@en .
"""
    )
    assert g.entities[Iri(KB + "owl")].label == "owl"


def test_unknown_predicates_preserved_and_reemitted():
    doc = """\
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix kb: <https://w3id.org/simulation/data/> .
@prefix ex: <http://example.org/> .

kb:owl rdfs:label "owl" ;
    ex:wingspan "large" .
"""
    g = import_turtle(doc)
    assert (Iri(KB + "owl"), Iri("http://example.org/wingspan"), Literal("large")) in g.extra_triples
    text = export_turtle(g, force=True)
    assert '<http://example.org/wingspan> "large"' in text
    assert import_turtle(text) == g


def test_unknown_class_defaults_to_generic(caplog):
    doc = """\
@prefix sim: <https://w3id.org/simulation/ontology/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix kb: <https://w3id.org/simulation/data/> .
@prefix ex: <http://example.org/> .

kb:owl-death a ex:Mystery ;
    sim:hasSimulacrum kb:owl ;
    sim:hasRealityCounterpart kb:death ;
    sim:hasContext kb:hindu ;
    prov:wasDerivedFrom kb:olderr .
"""
    with caplog.at_level("WARNING", logger="simkg.serialize"):
        g = import_turtle(doc)
    assert g.simulations[Iri(KB + "owl-death")].kind is SimulationKind.GENERIC
    assert any("unknown class" in m for m in caplog.messages)


def test_context_recognized_from_position_alone():
    # a dump that never types its contexts still imports them as contexts
    g = import_turtle(
        """\
@prefix sim: <https://w3id.org/simulation/ontology/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix kb: <https://w3id.org/simulation/data/> .

kb:owl-death a sim:Simulation ;
    sim:hasSimulacrum kb:owl ;
    sim:hasRealityCounterpart kb:death ;
    sim:hasContext kb:hindu ;
    prov:wasDerivedFrom kb:olderr .
"""
    )
    assert Role.CONTEXT in g.entities[Iri(KB + "hindu")].roles
    assert g.entities[Iri(KB + "hindu")].label == "hindu"


@given(st.text(max_size=200))
@settings(max_examples=60)
def test_importer_never_hangs_or_crashes_unexpectedly(doc):
    try:
        import_turtle(doc)
    except TurtleSyntaxError:
        pass
