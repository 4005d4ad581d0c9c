import random
import time

import pytest

from graphgen import add_repeated_statements, add_stated_roles, derived_pairs, random_graph
from simkg import (
    Axiom,
    CardinalityError,
    CqId,
    Graph,
    Iri,
    RcRelation,
    Role,
    Simulation,
    SimulationKind,
    build_simulation,
    check_axioms,
    export_turtle,
    import_turtle,
    make_entity,
    run_cq,
)
from simkg.model import KB

HEADER = """\
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix sim: <https://w3id.org/simulation/ontology/> .
@prefix kb: <https://w3id.org/simulation/data/> .
"""


def test_constructor_built_graphs_are_clean(toy_graph):
    assert check_axioms(toy_graph) == []


def test_imported_simulation_without_source_is_reported():
    g = import_turtle(
        HEADER
        + """
kb:owl-death a sim:Simulation ;
    sim:hasSimulacrum kb:owl ;
    sim:hasRealityCounterpart kb:death ;
    sim:hasContext kb:hindu .
"""
    )
    violations = check_axioms(g)
    assert [v.axiom for v in violations] == [Axiom.MISSING_SOURCE]
    assert violations[0].subject == Iri(KB + "owl-death")


def test_imported_protection_with_two_prevented_rcs():
    g = import_turtle(
        HEADER
        + """
kb:agate-evilSpirits a sim:ProtectionSimulation ;
    sim:hasSimulacrum kb:agate ;
    sim:preventedRealityCounterpart kb:evilSpirits , kb:storms ;
    sim:hasContext kb:arabian ;
    prov:wasDerivedFrom kb:olderr .
"""
    )
    assert [v.axiom for v in check_axioms(g)] == [Axiom.PROTECTION_CARDINALITY]


def test_imported_multi_simulacrum_reported_and_found_by_negative_cq():
    g = import_turtle(
        HEADER
        + """
kb:strange a sim:Simulation ;
    sim:hasSimulacrum kb:a , kb:b ;
    sim:hasRealityCounterpart kb:c ;
    sim:hasContext kb:d ;
    prov:wasDerivedFrom kb:e .
"""
    )
    assert [v.axiom for v in check_axioms(g)] == [Axiom.SIMULACRUM_CARDINALITY]
    assert [row["simulation"] for row in run_cq(g, CqId.Q1_5)] == [Iri(KB + "strange")]


# (kind, has a simulacrum, reality counterparts, contexts, sources): one
# shape per cardinality axiom, each breaking that axiom alone.
_CARDINALITY_SHAPES = {
    Axiom.SIMULACRUM_CARDINALITY: (SimulationKind.GENERIC, False, [(RcRelation.HAS, "r")], ["c"], ["s"]),
    Axiom.MISSING_REALITY_COUNTERPART: (SimulationKind.GENERIC, True, [], ["c"], ["s"]),
    Axiom.MISSING_CONTEXT: (SimulationKind.GENERIC, True, [(RcRelation.HAS, "r")], [], ["s"]),
    Axiom.MISSING_SOURCE: (SimulationKind.GENERIC, True, [(RcRelation.HAS, "r")], ["c"], []),
    Axiom.HEALING_CARDINALITY: (
        SimulationKind.HEALING, True, [(RcRelation.HEALED, "r"), (RcRelation.HEALED, "q")], ["c"], ["s"]
    ),
    Axiom.PROTECTION_CARDINALITY: (SimulationKind.PROTECTION, True, [(RcRelation.HAS, "r")], ["c"], ["s"]),
}


@pytest.mark.parametrize("axiom", list(_CARDINALITY_SHAPES), ids=lambda a: a.value)
def test_constructor_and_validator_apply_one_rule_set(axiom):
    kind, has_simulacrum, rcs, contexts, sources = _CARDINALITY_SHAPES[axiom]
    with pytest.raises(CardinalityError) as err:
        build_simulation(
            kind,
            make_entity("x") if has_simulacrum else None,
            [(rel, make_entity(label)) for rel, label in rcs],
            [make_entity(label) for label in contexts],
            [make_entity(label) for label in sources],
        )

    members = [("sim:hasSimulacrum", "x")] if has_simulacrum else []
    members += [(f"sim:{rel.value}", label) for rel, label in rcs]
    members += [("sim:hasContext", label) for label in contexts]
    members += [("prov:wasDerivedFrom", label) for label in sources]
    body = "".join(f" ;\n    {pred} kb:{label}" for pred, label in members)
    g = import_turtle(HEADER + f"kb:shape a <{kind.schema_iri}>{body} .\n")
    reported = [(v.axiom, v.detail) for v in check_axioms(g)]

    assert err.value.axiom is axiom
    assert reported == [(axiom, err.value.detail)]


def test_imported_variant_cycle_reported():
    g = import_turtle(
        HEADER
        + """
kb:bird sim:hasVariant kb:nightBird .
kb:nightBird sim:hasVariant kb:bird .
"""
    )
    axioms = [v.axiom for v in check_axioms(g)]
    assert axioms.count(Axiom.VARIANT_CYCLE) == 2


def test_variant_cycle_check_is_linear():
    chain = "".join(f"kb:n{i} sim:hasVariant kb:n{i + 1} .\n" for i in range(4000))
    cycle = "kb:x sim:hasVariant kb:y .\nkb:y sim:hasVariant kb:z .\nkb:z sim:hasVariant kb:x .\n"
    g = import_turtle(HEADER + chain + cycle)
    start = time.perf_counter()
    violations = check_axioms(g)
    elapsed = time.perf_counter() - start
    cycles = [v.subject for v in violations if v.axiom is Axiom.VARIANT_CYCLE]
    assert cycles == [Iri(KB + "x"), Iri(KB + "y"), Iri(KB + "z")]
    assert elapsed < 1.0


def test_kind_conflict_recorded_on_import():
    g = import_turtle(
        HEADER
        + """
kb:x-y a sim:HealingSimulation , sim:ProtectionSimulation ;
    sim:hasSimulacrum kb:x ;
    sim:healedRealityCounterpart kb:y ;
    sim:hasContext kb:c ;
    prov:wasDerivedFrom kb:s .
"""
    )
    axioms = [v.axiom for v in check_axioms(g)]
    assert Axiom.KIND_CONFLICT in axioms


def test_orphan_simulacrum_is_dangling():
    g = Graph()
    g.state_role(g.upsert_entity(make_entity("lonely")).id, Role.SIMULACRUM)
    violations = check_axioms(g)
    assert [v.axiom for v in violations] == [Axiom.DANGLING_ENTITY]


def test_imported_unlinked_simulacrum_is_kept_and_dangling():
    g = import_turtle(HEADER + 'kb:x a sim:Simulacrum ; rdfs:label "x" .\n')
    assert g.roles_of(Iri(KB + "x")) == {Role.SIMULACRUM}
    assert [(v.axiom, v.subject) for v in check_axioms(g)] == [(Axiom.DANGLING_ENTITY, Iri(KB + "x"))]
    assert "kb:x a sim:Simulacrum ;" in export_turtle(g, force=True)


def test_orphan_context_is_not_dangling():
    g = Graph()
    g.state_role(g.upsert_entity(make_entity("egyptian")).id, Role.CONTEXT)
    assert check_axioms(g) == []


# Members and variant targets that no subject describes
LENIENT_DOC = (
    HEADER
    + """
kb:owl-death a sim:Simulation ;
    sim:hasSimulacrum kb:owl ;
    sim:hasRealityCounterpart kb:death ;
    sim:hasContext kb:hindu ;
    prov:wasDerivedFrom kb:olderr .
kb:ghost-war sim:hasSimulacrum kb:ghost ; sim:hasContext kb:ghost .
kb:rose sim:hasVariant kb:whiteRose, kb:owl .
"""
)


def _references(g):
    """Every member of a stored simulation and both ends of every variant link."""
    found = {m for s in g.simulations.values() for m in s.members()}
    found.update(*g.variant_edges)
    return found


def test_every_reference_is_an_entity():
    # check_axioms looks for no member or variant end missing from
    # g.entities: every path that stores one also makes its entity
    for seed in range(200):
        rng = random.Random(seed)
        g = random_graph(rng, max_sims=20)
        add_repeated_statements(g, rng)
        add_stated_roles(g, rng)
        for graph in (g, import_turtle(export_turtle(g, force=True))):
            assert _references(graph) <= graph.entities.keys(), f"seed {seed}"
    g = import_turtle(LENIENT_DOC)
    undescribed = {Iri(KB + name) for name in ("owl", "death", "hindu", "olderr", "ghost", "whiteRose")}
    assert undescribed <= _references(g) <= g.entities.keys()


def test_validation_is_read_only(toy_graph):
    before = (
        dict(toy_graph.simulations),
        dict(toy_graph.entities),
        set(toy_graph.variant_edges),
        derived_pairs(toy_graph),
    )
    check_axioms(toy_graph)
    assert before == (
        dict(toy_graph.simulations),
        dict(toy_graph.entities),
        set(toy_graph.variant_edges),
        derived_pairs(toy_graph),
    )


def test_violation_order_is_deterministic():
    text = (
        HEADER
        + """
kb:b-x a sim:Simulation ;
    sim:hasSimulacrum kb:b ;
    sim:hasRealityCounterpart kb:x .
kb:a-y a sim:Simulation ;
    sim:hasSimulacrum kb:a ;
    sim:hasContext kb:c .
"""
    )
    violations = check_axioms(import_turtle(text))
    assert [(v.subject.local_name, v.axiom) for v in violations] == [
        ("a-y", Axiom.MISSING_REALITY_COUNTERPART),
        ("a-y", Axiom.MISSING_SOURCE),
        ("b-x", Axiom.MISSING_CONTEXT),
        ("b-x", Axiom.MISSING_SOURCE),
    ]


def test_monotone_detection():
    # adding another violating simulation (fresh IRIs) keeps earlier findings
    g = import_turtle(
        HEADER
        + """
kb:owl-death a sim:Simulation ;
    sim:hasSimulacrum kb:owl ;
    sim:hasRealityCounterpart kb:death ;
    sim:hasContext kb:hindu .
"""
    )
    before = set(check_axioms(g))
    bad = Simulation(
        id=Iri(KB + "bee-resurrection"),
        kind=SimulationKind.GENERIC,
        simulacra=(make_entity("bee"),),
        reality_counterparts=((RcRelation.HAS, make_entity("resurrection")),),
        contexts=(),
        sources=(),
    )
    g.insert_simulation(bad)
    after = set(check_axioms(g))
    assert before <= after
    assert len(after) > len(before)


def test_negative_cqs_empty_whenever_axioms_pass():
    for seed in range(40):
        g = random_graph(random.Random(seed), max_sims=15)
        assert check_axioms(g) == []
        assert run_cq(g, CqId.Q1_5) == []
        assert run_cq(g, CqId.Q2_4) == []
