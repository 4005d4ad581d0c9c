import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import (
    add_repeated_statements,
    add_stated_roles,
    build_graph,
    derived_pairs,
    random_graph,
    random_parts,
)
from simkg import (
    Axiom,
    CqId,
    CycleError,
    Graph,
    Iri,
    RcRelation,
    Role,
    Simulation,
    SimulationKind,
    UnknownEntityError,
    build_simulation,
    check_axioms,
    export_turtle,
    import_turtle,
    make_entity,
    run_cq,
)
from simkg.graph import KIND_BY_CLASS, RDF_TYPE
from simkg.model import KB
from simkg.serialize import _parse_statements, graph_triples
from simkg.validate import Violation, kind_conflict_violations

# A simulation that is also its own simulacrum and is typed sim:Simulacrum,
# labelled "s": its type and label extra triples repeat stored statements.
SELF_SIMULACRUM_DOC = """\
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix sim: <https://w3id.org/simulation/ontology/> .
@prefix kb: <https://w3id.org/simulation/data/> .

kb:s a sim:Simulation, sim:Simulacrum ; rdfs:label "s" ; sim:hasSimulacrum kb:s ;
     sim:hasRealityCounterpart kb:m ; sim:hasContext kb:c ; prov:wasDerivedFrom kb:src .
"""


def _sim(simulacrum, rc, contexts, source, kind=SimulationKind.GENERIC, rel=RcRelation.HAS):
    return build_simulation(
        kind,
        make_entity(simulacrum),
        [(rel, make_entity(rc))],
        [make_entity(c) for c in contexts],
        [make_entity(source)],
    )


class TestInsert:
    def test_merge_unions_contexts(self):
        g = Graph()
        g.insert_simulation(_sim("owl", "death", ["hindu"], "olderr"))
        g.insert_simulation(_sim("owl", "death", ["japanese", "mayan"], "olderr"))
        stored = g.simulations[Iri(KB + "owl-death")]
        assert {g.entities[c].label for c in stored.contexts} == {"hindu", "japanese", "mayan"}
        assert len(g.simulations) == 1

    def test_same_simulacrum_distinct_simulations(self):
        g = Graph()
        g.insert_simulation(_sim("owl", "death", ["hindu"], "olderr"))
        g.insert_simulation(_sim("owl", "helpful spirits", ["siberian"], "olderr"))
        assert len(g.simulations) == 2
        assert len(g.simulations_with_simulacrum(Iri(KB + "owl"))) == 2

    def test_singleton_graph_derives_meaning(self):
        g = Graph()
        g.insert_simulation(_sim("owl", "death", ["hindu"], "olderr"))
        assert derived_pairs(g) == {(Iri(KB + "owl"), Iri(KB + "death"))}

    def test_kind_conflict_is_reported(self):
        g = Graph()
        g.insert_simulation(_sim("owl", "death", ["hindu"], "olderr"))
        g.insert_simulation(_sim("owl", "death", ["hindu"], "olderr", kind=SimulationKind.ASSOCIATION))
        sim_id = Iri(KB + "owl-death")
        assert kind_conflict_violations(g) == [
            Violation(Axiom.KIND_CONFLICT, sim_id, "typed both Association and Generic")
        ]
        assert [(v.axiom, v.subject) for v in check_axioms(g)] == [(Axiom.KIND_CONFLICT, sim_id)]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_kind_conflict_independent_of_arrival_order(self, order):
        kinds = (SimulationKind.RELATEDNESS, SimulationKind.ASSOCIATION, SimulationKind.CORRESPONDENCE)
        reference = Graph()
        for kind in kinds:
            reference.insert_simulation(_sim("owl", "death", ["hindu"], "olderr", kind=kind))
        g = Graph()
        for i in order:
            g.insert_simulation(_sim("owl", "death", ["hindu"], "olderr", kind=kinds[i]))
        assert g == reference
        text = export_turtle(g, force=True)
        assert text == export_turtle(reference, force=True)
        assert import_turtle(text) == g
        assert [(v.axiom.value, v.subject, v.detail) for v in check_axioms(g)] == [
            ("KindConflict", f"{KB}owl-death", "typed both Association and Correspondence")
        ]

    def test_repeated_kind_is_no_conflict(self):
        g = random_graph(random.Random(3), max_sims=12)
        sim = g.simulations[min(g.simulations)]
        g.extra_triples.add((sim.id, RDF_TYPE, sim.kind.schema_iri))
        assert kind_conflict_violations(g) == []
        assert check_axioms(g) == []
        other = next(k for k in SimulationKind if k is not sim.kind)
        g.extra_triples.add((sim.id, RDF_TYPE, other.schema_iri))
        assert kind_conflict_violations(g) == [
            Violation(Axiom.KIND_CONFLICT, sim.id, f"typed both {sim.kind.value} and {other.value}")
        ]

    def test_extra_triple_repeating_a_stored_statement_is_no_difference(self):
        g = random_graph(random.Random(3), max_sims=12)
        sim = g.simulations[min(g.simulations)]
        g.extra_triples.add((sim.id, RDF_TYPE, sim.kind.schema_iri))
        back = import_turtle(export_turtle(g))
        assert export_turtle(back) == export_turtle(g)
        assert back == g and g == back
        for seed in range(20):
            rng = random.Random(seed)
            g = random_graph(rng, max_sims=12)
            add_repeated_statements(g, rng)
            assert import_turtle(export_turtle(g, force=True)) == g, f"seed {seed}"
            # an extra triple the stored block does not state is a difference
            h = random_graph(random.Random(seed), max_sims=12)
            h.extra_triples.add((min(h.simulations), RDF_TYPE, Iri(KB + "Odd")))
            assert h != random_graph(random.Random(seed), max_sims=12), f"seed {seed}"

    def test_entity_roles_union_across_inserts(self):
        g = Graph()
        g.insert_simulation(_sim("rose", "purity", ["general"], "olderr"))
        g.insert_simulation(_sim("love", "rose", ["general"], "olderr"))
        assert g.roles_of(Iri(KB + "rose")) == {Role.SIMULACRUM, Role.REALITY_COUNTERPART}

    def test_label_collision_merges_entities(self):
        g = Graph()
        g.insert_simulation(_sim("White Rose", "purity", ["general"], "olderr"))
        g.insert_simulation(_sim("white rose", "innocence", ["general"], "olderr"))
        assert Iri(KB + "whiteRose") in g.entities
        assert len(g.simulations_with_simulacrum(Iri(KB + "whiteRose"))) == 2
        # label choice is order independent: the lexicographically least wins
        assert g.entities[Iri(KB + "whiteRose")].label == "White Rose"

    def test_members_name_the_merged_entity(self):
        g = Graph()
        g.insert_simulation(_sim("white rose", "purity", ["general"], "olderr"))
        g.insert_simulation(_sim("White Rose", "innocence", ["general"], "olderr"))
        g.insert_simulation(_sim("love", "white rose", ["general"], "olderr"))
        for graph in (g, import_turtle(export_turtle(g))):
            rose = graph.entities[Iri(KB + "whiteRose")]
            assert rose.label == "White Rose"
            assert graph.roles_of(rose.id) == {Role.SIMULACRUM, Role.REALITY_COUNTERPART}
            members = [m for s in graph.simulations.values() for m in s.members() if m == rose.id]
            assert len(members) == 3

    def test_store_keeps_a_new_simulation_already_in_store_order(self):
        a, b, c, d = (Iri(KB + x) for x in "abcd")
        ordered = Simulation(
            Iri(KB + "s"), SimulationKind.GENERIC, (a,),
            ((RcRelation.HAS, b), (RcRelation.HAS, c), (RcRelation.PREVENTED, a)), (c, d), (d,),
        )
        assert Graph()._store(ordered) is ordered
        foreign = [
            ordered._replace(reality_counterparts=ordered.reality_counterparts[::-1]),
            ordered._replace(contexts=(c, c, d)),
            ordered._replace(simulacra=(a, a)),
            ordered._replace(sources=(d, d)),
        ]
        for s in foreign:
            stored = Graph()._store(s)
            assert stored is not s and stored == ordered

    @staticmethod
    def _state(g):
        indexes = g._sims_by_simulacrum, g._sims_by_rc, g._sims_by_context, g._sims_by_source, g._meanings_of
        return (
            list(g.simulations.items()),
            [[(k, list(v)) for k, v in index.items()] for index in indexes],
            set(g.extra_triples),
            {k: set(v) for k, v in g._stated_roles.items()},
        )

    def test_reinsert_that_adds_nothing_changes_nothing(self):
        g = random_graph(random.Random(5), max_sims=12)
        owl = g.upsert_entity(make_entity("owl"))
        g.state_role(owl.id, Role.CONTEXT)  # a stated role the simulation does not imply
        sim = build_simulation(
            SimulationKind.ALLUSION, owl, [(RcRelation.HAS, make_entity("death"))],
            [make_entity("hindu"), make_entity("mayan")], [make_entity("olderr")],
        )
        stored = g.insert_simulation(sim)
        assert g._stated_roles[owl.id] == {Role.CONTEXT}
        before = self._state(g)
        # the same simulation again, and one that repeats some of its members
        assert g.insert_simulation(sim) == stored
        assert g.insert_simulation(sim._replace(contexts=sim.contexts[1:])) == stored
        assert self._state(g) == before
        back = Simulation(stored.id, stored.kind, stored.simulacra, stored.reality_counterparts[::-1],
                          stored.contexts[::-1], stored.sources)
        assert g._store(back) == stored
        assert self._state(g) == before

    def test_reinsert_that_adds_a_context_still_merges(self):
        g = Graph()
        first = g.insert_simulation(_sim("owl", "death", ["hindu", "mayan"], "olderr"))
        merged = g.insert_simulation(_sim("owl", "death", ["mayan", "greek"], "olderr"))
        assert merged is not first
        assert merged.contexts == (Iri(KB + "greek"), Iri(KB + "hindu"), Iri(KB + "mayan"))
        assert list(g.simulations_with_context(Iri(KB + "greek"))) == [first.id]


class TestRoles:
    def test_membership_implies_the_role(self):
        g = Graph()
        g.insert_simulation(_sim("owl", "death", ["hindu"], "olderr"))
        roles = {n: g.roles_of(Iri(KB + n)) for n in ("owl", "death", "hindu", "olderr")}
        assert roles == {
            "owl": {Role.SIMULACRUM},
            "death": {Role.REALITY_COUNTERPART},
            "hindu": {Role.CONTEXT},
            "olderr": {Role.SOURCE},
        }
        assert g.roles_of(Iri(KB + "owl-death")) == set()
        g.state_role(Iri(KB + "owl"), Role.SIMULACRUM)  # implied: nothing is stored
        assert g._stated_roles == {}

    def test_stated_role_is_kept_until_a_membership_implies_it(self):
        g = Graph()
        g.upsert_entity(make_entity("owl"))
        g.state_role(Iri(KB + "owl"), Role.SIMULACRUM)
        g.state_role(Iri(KB + "owl"), Role.CONTEXT)
        assert g.roles_of(Iri(KB + "owl")) == {Role.SIMULACRUM, Role.CONTEXT}
        g.insert_simulation(_sim("owl", "death", ["hindu"], "olderr"))
        assert g._stated_roles == {Iri(KB + "owl"): {Role.CONTEXT}}
        g.insert_simulation(_sim("rose", "love", ["owl"], "olderr"))
        assert g._stated_roles == {}
        assert g.roles_of(Iri(KB + "owl")) == {Role.SIMULACRUM, Role.CONTEXT}

    def test_stated_roles_count_in_equality(self):
        g, h = Graph(), Graph()
        for graph in (g, h):
            graph.upsert_entity(make_entity("owl"))
        g.state_role(Iri(KB + "owl"), Role.SIMULACRUM)
        assert g != h
        h.state_role(Iri(KB + "owl"), Role.SIMULACRUM)
        assert g == h

    def test_state_role_needs_the_entity(self):
        with pytest.raises(UnknownEntityError):
            Graph().state_role(Iri(KB + "ghost"), Role.SIMULACRUM)

    def test_exported_types_are_the_roles(self):
        for seed in range(40):
            rng = random.Random(seed)
            g = random_graph(rng, max_sims=12)
            for case in ("plain", "stated roles"):
                if case == "stated roles":
                    add_stated_roles(g, rng)
                text = export_turtle(g, force=True)
                assert g.stats().total.n_triples == _count_triples_in_turtle(text), f"seed {seed}, {case}"
                statements = _parse_statements(text)
                for iri in g.entities:
                    types = set(statements[iri].get(RDF_TYPE, ())) - KIND_BY_CLASS.keys()
                    assert types == {role.schema_iri for role in g.roles_of(iri)}, f"seed {seed}, {case}, {iri}"

    def test_round_trip_with_stated_roles(self):
        for seed in range(40):
            rng = random.Random(seed)
            g = random_graph(rng, max_sims=12)
            add_stated_roles(g, rng)
            back = import_turtle(export_turtle(g, force=True))
            assert back == g, f"seed {seed}"
            assert back._stated_roles == g._stated_roles, f"seed {seed}"

    def test_role_stated_before_its_membership(self):
        # stating a role and then inserting a simulation that implies it gives
        # the graph that inserting first would, and it round-trips
        for seed in range(40):
            rng = random.Random(seed)
            sims, variants = random_parts(rng, max_sims=12)
            early = Graph()
            for e in {e.id: e for s in sims for e in s.members()}.values():
                early.upsert_entity(e)
            entities = sorted(early.entities)
            stated = [(iri, rng.choice(list(Role))) for iri in rng.sample(entities, min(6, len(entities)))]
            for iri, role in stated:
                early.state_role(iri, role)
            late = build_graph(sims, variants)
            for s in sims:
                early.insert_simulation(s)
            for base, variant in variants:
                early.add_variant(base, variant)
            for iri, role in stated:
                late.state_role(iri, role)
            assert early == late, f"seed {seed}"
            assert import_turtle(export_turtle(early, force=True)) == early, f"seed {seed}"


class TestVariants:
    def test_closure_over_chain(self):
        g = Graph()
        bird = make_entity("bird")
        night = make_entity("night bird")
        nocturnal = make_entity("nocturnal night bird")
        g.add_variant(bird, night)
        g.add_variant(night, nocturnal)
        assert {e.label for e in g.variant_closure(bird)} == {"night bird", "nocturnal night bird"}

    def test_closure_excludes_self_and_handles_leaf(self):
        g = Graph()
        bird = make_entity("bird")
        night = make_entity("night bird")
        g.add_variant(bird, night)
        assert g.variant_closure(night) == set()

    def test_single_variant(self):
        g = Graph()
        stone = make_entity("bloodstone")
        situated = make_entity("bloodstone placed in a glass of water during a drought")
        g.add_variant(stone, situated)
        assert {e.id.local_name for e in g.variant_closure(stone)} == {
            "bloodstonePlacedInAGlassOfWaterDuringADrought"
        }

    def test_self_loop_rejected(self):
        g = Graph()
        x = make_entity("x")
        with pytest.raises(CycleError):
            g.add_variant(x, make_entity("x"))

    def test_cycle_rejected(self):
        g = Graph()
        a, b, c = (make_entity(w) for w in ("a", "b", "c"))
        g.add_variant(a, b)
        g.add_variant(b, c)
        with pytest.raises(CycleError):
            g.add_variant(c, a)

    def test_unknown_entity(self):
        g = Graph()
        with pytest.raises(UnknownEntityError):
            g.variant_closure(make_entity("ghost"))

    def test_a_new_link_reaches_closures_read_before_it(self):
        g = Graph()
        a, b, c, d = (make_entity(w) for w in ("a", "b", "c", "d"))
        g.add_variant(a, b)
        assert g._variant_iris(a.id) == (b.id,) and g._variant_iris(b.id) == ()
        g.add_variant(b, c)
        assert g._variant_iris(a.id) == (b.id, c.id)
        assert g.variant_closure(b) == {c}
        with pytest.raises(CycleError):
            g.add_variant(c, a)
        g.add_variant(d, a)
        assert g._variant_iris(d.id) == (a.id, b.id, c.id)
        assert g._variant_iris(a.id) == (b.id, c.id)

    def test_a_new_link_reaches_meaning_walks_read_before_it(self):
        g = Graph()
        g.insert_simulation(_sim("b", "faith", ["greek"], "olderr"))
        a, b = make_entity("a"), make_entity("b")
        assert g._reachable_meanings(a.id, include_variants=True) == ()
        g.add_variant(a, b)
        assert g._walks == {} and g._reachable_meanings(a.id, include_variants=True) == (Iri(KB + "faith"),)

    def test_a_new_meaning_pair_empties_the_kept_walks(self):
        g = Graph()
        g.insert_simulation(_sim("a", "faith", ["greek"], "olderr"))
        a = Iri(KB + "a")
        assert g._reachable_meanings(a, repeat=True) == (Iri(KB + "faith"),)
        g.insert_simulation(_sim("a", "charm", ["greek"], "olderr"))
        assert g._walks == {}
        assert g._reachable_meanings(a, repeat=True) == (Iri(KB + "charm"), Iri(KB + "faith"))

    def test_a_single_hop_is_not_kept(self):
        g = Graph()
        g.insert_simulation(_sim("a", "faith", ["greek"], "olderr"))
        assert g._reachable_meanings(Iri(KB + "a")) == (Iri(KB + "faith"),)
        assert g._reachable_meanings(Iri(KB + "ghost")) == ()
        assert g._walks == {}

    def test_a_merge_that_adds_no_meaning_pair_keeps_the_walks(self):
        g = Graph()
        g.insert_simulation(_sim("a", "faith", ["greek"], "olderr"))
        a = Iri(KB + "a")
        walks = {(a, True, False): g._reachable_meanings(a, True), (a, True, True): g._reachable_meanings(a, True, True)}
        g.insert_simulation(_sim("a", "faith", ["greek"], "olderr"))  # a re-insert
        g.insert_simulation(_sim("a", "faith", ["roman"], "cirlot"))  # new members, no new pair
        other = build_simulation(
            SimulationKind.GENERIC, make_entity("a"), [(RcRelation.EASED, make_entity("faith"))],
            [make_entity("greek")], [make_entity("olderr")],
        )
        g.insert_simulation(other)  # the same pair through another simulation and relation
        assert g._walks == walks

    def test_repr_counts_and_equality_with_another_type(self):
        g = Graph()
        g.add_variant(make_entity("a"), make_entity("b"))
        del g.entities[Iri(KB + "b")]
        assert repr(g) == "Graph(entities=1, simulations=0, variants=1)"
        assert (Graph() == 1) is False

    def test_closure_of_an_imported_cycle_excludes_self(self):
        g = import_turtle(
            "@prefix sim: <https://w3id.org/simulation/ontology/> .\n"
            "@prefix kb: <https://w3id.org/simulation/data/> .\n"
            "kb:x sim:hasVariant kb:y .\nkb:y sim:hasVariant kb:z .\nkb:z sim:hasVariant kb:x .\n"
        )
        assert {e.id.local_name for e in g.variant_closure(make_entity("x"))} == {"y", "z"}


class TestStats:
    def test_empty_graph_all_zero(self):
        stats = Graph().stats()
        assert stats.rows == ()
        assert stats.total.n_simulations == 0
        assert stats.total.n_triples == 0

    def test_shared_simulacrum_counted_once_in_totals(self):
        g = Graph()
        g.insert_simulation(_sim("olive", "fertility", ["general"], "source one"))
        g.insert_simulation(_sim("olive", "immortality", ["general"], "source two"))
        g.insert_simulation(_sim("bee", "resurrection", ["egyptian"], "source one"))
        stats = g.stats()
        # olive appears under both sources but only once in the totals
        assert stats.total.n_simulacra == 2
        assert stats.total.n_simulations == 3
        by_label = {r.label: r for r in stats.rows}
        assert by_label["source one"].n_simulacra == 2
        assert by_label["source two"].n_simulacra == 1
        assert stats.total.n_simulacra <= sum(r.n_simulacra for r in stats.rows)

    def test_total_triples_equal_export_statement_count(self, toy_graph):
        assert toy_graph.stats().total.n_triples == _count_triples_in_turtle(export_turtle(toy_graph))

    def test_extra_triple_repeating_a_stored_statement_counted_once(self):
        g = import_turtle(SELF_SIMULACRUM_DOC)
        text = export_turtle(g, force=True)
        assert (g.stats().total.n_triples, len(graph_triples(g)), _count_triples_in_turtle(text)) == (13, 13, 13)

    def test_total_triples_with_repeated_extras(self):
        for seed in range(20):
            rng = random.Random(seed)
            g = random_graph(rng, max_sims=12)
            add_repeated_statements(g, rng)
            expected = _count_triples_in_turtle(export_turtle(g, force=True))
            assert g.stats().total.n_triples == expected, f"seed {seed}"

    def test_per_source_triples_equal_subgraph_export(self):
        g = Graph()
        g.insert_simulation(_sim("olive", "fertility", ["general"], "source one"))
        g.insert_simulation(_sim("olive", "immortality", ["general"], "source two"))
        row = {r.label: r for r in g.stats().rows}["source one"]
        # independently rebuild the subgraph for that source and export it
        sub = Graph()
        sub.insert_simulation(_sim("olive", "fertility", ["general"], "source one"))
        assert row.n_triples == _count_triples_in_turtle(export_turtle(sub))


def _count_triples_in_turtle(text: str) -> int:
    """Brute-force triple count: the distinct statements the document states."""
    return sum(len(set(objects)) for preds in _parse_statements(text).values() for objects in preds.values())


def test_sample_corpus_matches_golden_stats():
    """Golden row values were produced by a one-off brute-force count over
    the bundled sample corpus and checked in."""
    from conftest import FIXTURES
    from simkg.cli import _insert_all
    from simkg.dbpedia import convert_dbpedia, read_triples_file
    from simkg.dictionary import convert_document
    from simkg.wordnet import convert_synsets, read_synset_file

    g = Graph()
    _, conv = convert_document(
        (FIXTURES / "birds.dict").read_text(encoding="utf-8"), make_entity("olderr")
    )
    _insert_all(g, conv, "birds.dict")
    _insert_all(
        g, convert_synsets(read_synset_file(FIXTURES / "penelope.tsv"), make_entity("Wordnet")), "penelope.tsv"
    )
    _insert_all(g, convert_dbpedia(read_triples_file(FIXTURES / "eagle.nt"), make_entity("DBpedia")), "warning")
    stats = g.stats()
    golden_lines = (FIXTURES / "golden" / "sample_corpus_stats.csv").read_text(encoding="utf-8").splitlines()
    produced = [
        f"{r.label},{r.n_simulacra},{r.n_rcs},{r.n_contexts},{r.n_simulations},{r.n_triples}"
        for r in (*stats.rows, stats.total)
    ]
    assert produced == golden_lines[1:]


_ACCESSORS = ("simulations_with_simulacrum", "simulations_with_rc", "simulations_with_context", "meanings_of")


def _point_answers(g):
    """Every answer of the four questions that read one index entry."""
    asked = {CqId.Q1_1: "simulacrum", CqId.Q1_2: "context", CqId.Q1_3: "entity", CqId.Q1_4: "rc"}
    return {(cq, iri): run_cq(g, cq, {name: iri}) for cq, name in asked.items() for iri in sorted(g.entities)}


class TestIndexViews:
    def test_mutating_an_accessor_result_leaves_the_graph_alone(self):
        from conftest import FIXTURES

        text = (FIXTURES / "golden" / "hook.ttl").read_text(encoding="utf-8")
        g = import_turtle(text)
        context = Iri(KB + "generalOrUnknown")
        assert len(run_cq(g, CqId.Q1_2, {"context": context})) == 4
        answers = _point_answers(g)
        s = g.simulations_with_context(context)
        s -= set(list(s)[:2])
        assert len(run_cq(g, CqId.Q1_2, {"context": context})) == 4
        for name in _ACCESSORS:
            for iri in [*sorted(g.entities), Iri(KB + "noSuchEntity")]:
                s = getattr(g, name)(iri)
                s -= set(list(s)[:1])
                s |= {Iri(KB + "intruder")}
                s &= set()
        assert _point_answers(g) == answers
        assert export_turtle(g) == text

    def test_accessor_results_are_read_only_views(self):
        g = random_graph(random.Random(3))
        owner = next(iter(g._sims_by_simulacrum))
        for name in _ACCESSORS:
            for view in (getattr(g, name)(owner), getattr(g, name)(Iri(KB + "noSuchEntity"))):
                assert not hasattr(view, "add") and not hasattr(view, "discard")
        # set-like all the same
        sims = g.simulations_with_simulacrum(owner)
        assert sims == set(sims) and sims - set(sims) == set() and (sims | set()) == set(sims)
        assert not g.simulations_with_rc(Iri(KB + "noSuchEntity"))

    def test_loaded_graph_lists_each_index_in_iri_order(self):
        # run_cq sorts what arrives in order in linear time, so a silent
        # return to hash-ordered indexes shows here first
        for seed in range(40):
            g = import_turtle(export_turtle(random_graph(random.Random(seed))))
            for name in _ACCESSORS[:3]:
                for iri in g.entities:
                    members = list(getattr(g, name)(iri))
                    assert members == sorted(members), f"seed {seed}: {name}({iri})"
            # a simulacrum's meanings in store order: by the first simulation,
            # in IRI order, that states each of them
            for a, sims in g._sims_by_simulacrum.items():
                stated = dict.fromkeys(rc for i in sims for _, rc in g.simulations[i].reality_counterparts)
                assert list(g.meanings_of(a)) == list(stated), f"seed {seed}: meanings_of({a})"


def _fresh_walk(g, start, include_variants, repeat):
    """:meth:`Graph._reachable_meanings` by a breadth-first walk over the
    graph's variant edges and ``meanings_of``, kept nowhere."""
    children: dict = {}
    for base, variant in g.variant_edges:
        children.setdefault(base, []).append(variant)
    starts, queue = {start}, [start] if include_variants else []
    while queue:
        for v in children.get(queue.pop(), ()):
            if v not in starts:
                starts.add(v)
                queue.append(v)
    found = {m for i in starts for m in g.meanings_of(i)}
    queue = list(found) if repeat else []
    while queue:
        for m in g.meanings_of(queue.pop()):
            if m not in found:
                found.add(m)
                queue.append(m)
    return tuple(sorted(found))


class TestProperties:
    def test_stored_members_are_entity_iris_with_their_slot_role(self):
        for seed in range(60):
            g = random_graph(random.Random(seed), max_sims=20)
            for graph in (g, import_turtle(export_turtle(g))):
                for s in graph.simulations.values():
                    memberships = [
                        *((a, Role.SIMULACRUM) for a in s.simulacra),
                        *((rc, Role.REALITY_COUNTERPART) for _, rc in s.reality_counterparts),
                        *((c, Role.CONTEXT) for c in s.contexts),
                        *((src, Role.SOURCE) for src in s.sources),
                    ]
                    for member, role in memberships:
                        assert isinstance(member, Iri) and member in graph.entities, f"seed {seed}"
                        assert role in graph.roles_of(member), f"seed {seed}"

    def test_merge_idempotence(self):
        for seed in range(30):
            sims, variants = random_parts(random.Random(seed), max_sims=10)
            once = build_graph(sims, variants)
            twice = build_graph(sims + sims, variants)
            assert once == twice, f"seed {seed}"

    def test_insertion_order_independence(self):
        for seed in range(30):
            rng = random.Random(seed)
            sims, variants = random_parts(rng, max_sims=10)
            reference = build_graph(sims, variants)
            for _ in range(3):
                shuffled = sims[:]
                rng.shuffle(shuffled)
                shuffled_variants = variants[:]
                rng.shuffle(shuffled_variants)
                assert build_graph(shuffled, shuffled_variants) == reference, f"seed {seed}"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["insert", "link", "read"]), st.integers(0, 3), st.integers(0, 3)),
                    max_size=40))
    def test_each_kept_walk_equals_a_fresh_walk(self, steps):
        # Four words, each a simulacrum, a meaning and a variant end; links
        # run from a lower to a higher word, so no step closes a cycle.  A
        # read asks for all four walks from every word.
        words = [make_entity(w) for w in ("a", "b", "c", "d")]
        g = Graph()
        for op, i, j in steps:
            if op == "insert" and i != j:
                g.insert_simulation(_sim(words[i].label, words[j].label, ["greek"], "olderr"))
            elif op == "link" and i < j:
                g.add_variant(words[i], words[j])
            elif op == "read":
                for word, include_variants, repeat in itertools.product(words, (False, True), (False, True)):
                    walk = g._reachable_meanings(word.id, include_variants, repeat)
                    assert walk == _fresh_walk(g, word.id, include_variants, repeat)
            for (start, include_variants, repeat), walk in g._walks.items():
                assert walk == _fresh_walk(g, start, include_variants, repeat)
