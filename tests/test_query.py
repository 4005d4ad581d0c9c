import pickle
import random
from collections import deque

import pytest

from conftest import FIXTURES
from graphgen import random_graph
from simkg import (
    CqId,
    Entity,
    Graph,
    Iri,
    MissingBindingError,
    RcRelation,
    SimulationKind,
    UnknownEntityError,
    build_simulation,
    export_turtle,
    import_turtle,
    load_graph,
    make_entity,
    run_cq,
    symbolic_meanings,
)
from simkg.analysis import color_distribution
from simkg.model import KB
from simkg.query import RESULT_VARIABLES


def kb(local):
    return Iri(KB + local)


class TestCqSemantics:
    def test_q1_1_rcs_of_simulacrum(self, toy_graph):
        rows = run_cq(toy_graph, CqId.Q1_1, {"simulacrum": kb("olive")})
        assert [r["rc"] for r in rows] == [kb("fertility"), kb("immortality")]

    def test_q1_2_simulations_in_context(self, toy_graph):
        rows = run_cq(toy_graph, CqId.Q1_2, {"context": kb("hindu")})
        assert [r["simulation"] for r in rows] == [kb("owl-death")]

    def test_q1_3_participation_either_side(self, toy_graph):
        rows = run_cq(toy_graph, CqId.Q1_3, {"entity": kb("death")})
        assert [r["simulation"] for r in rows] == [kb("nightBird-death"), kb("owl-death")]

    def test_q1_4_simulacra_sharing_rc(self, toy_graph):
        rows = run_cq(toy_graph, CqId.Q1_4, {"rc": kb("death")})
        assert [(r["simulacrum"].local_name, r["context"].local_name) for r in rows] == [
            ("nightBird", "generalOrUnknown"),
            ("owl", "hindu"),
            ("owl", "japanese"),
            ("owl", "mayan"),
        ]

    def test_q1_5_negative(self, toy_graph):
        assert run_cq(toy_graph, CqId.Q1_5) == []

    def test_q2_2_same_simulacrum_different_sources(self, toy_graph):
        rows = run_cq(toy_graph, CqId.Q2_2)
        assert [tuple(v.local_name for v in r.values()) for r in rows] == [
            ("olive-fertility", "fertility", "dictionaryOfSymbols1"),
            ("olive-immortality", "immortality", "dictionaryOfSymbols2"),
        ]

    def test_q2_1_bound_variant_of_q2_2(self, toy_graph):
        assert run_cq(toy_graph, CqId.Q2_1, {"simulacrum": kb("olive")}) == run_cq(toy_graph, CqId.Q2_2)
        assert run_cq(toy_graph, CqId.Q2_1, {"simulacrum": kb("agate")}) == []

    def test_q2_3_sources_of_simulation(self, toy_graph):
        rows = run_cq(toy_graph, CqId.Q2_3, {"simulation": kb("olive-fertility")})
        assert [r["source"] for r in rows] == [kb("dictionaryOfSymbols1")]

    def test_q2_4_negative(self, toy_graph):
        assert run_cq(toy_graph, CqId.Q2_4) == []

    def test_q3_1_variants(self, toy_graph):
        rows = run_cq(toy_graph, CqId.Q3_1, {"entity": kb("bird")})
        assert [r["variant"] for r in rows] == [kb("nightBird")]

    def test_q3_2_includes_variant_meanings(self, toy_graph):
        rows = run_cq(toy_graph, CqId.Q3_2, {"simulacrum": kb("bird")})
        assert [r["rc"] for r in rows] == [kb("death")]

    def test_q3_3_protection(self, toy_graph):
        rows = run_cq(toy_graph, CqId.Q3_3)
        assert [(r["simulation"].local_name, r["rc"].local_name) for r in rows] == [
            ("agate-evilSpirits", "evilSpirits")
        ]

    def test_q3_4_additional_rcs_with_relation_names(self, toy_graph):
        rows = run_cq(toy_graph, CqId.Q3_4, {"rc": kb("charm")})
        assert [tuple(v.local_name for v in r.values()) for r in rows] == [
            ("agate-charm-healthyBlood", "charm", "hasRealityCounterpart"),
            ("agate-charm-healthyBlood", "healthyBlood", "elicitedRealityCounterpart"),
        ]

    def test_q3_4_single_rc_simulation_excluded(self, toy_graph):
        assert run_cq(toy_graph, CqId.Q3_4, {"rc": kb("fertility")}) == []

    def test_q3_5_healing_tuples(self, toy_graph):
        rows = run_cq(toy_graph, CqId.Q3_5)
        assert [tuple(v.local_name for v in r.values()) for r in rows] == [
            ("amethyst-drunkenness", "amethyst", "greek", "drunkenness")
        ]


class TestBindingsAndErrors:
    def test_missing_binding(self, toy_graph):
        with pytest.raises(MissingBindingError):
            run_cq(toy_graph, CqId.Q1_1)

    # Every question that takes a binding, with an IRI the graph does not
    # hold in that place.
    UNKNOWN_BINDINGS = [
        (CqId.Q1_1, "simulacrum", "ghost"),
        (CqId.Q1_2, "context", "ghost"),
        (CqId.Q1_3, "entity", "ghost"),
        (CqId.Q1_4, "rc", "ghost"),
        (CqId.Q2_1, "simulacrum", "ghost"),
        (CqId.Q2_3, "simulation", "ghost"),
        (CqId.Q2_3, "simulation", "olive"),  # an entity, but no simulation
        (CqId.Q3_1, "entity", "ghost"),
        (CqId.Q3_2, "simulacrum", "ghost"),
        (CqId.Q3_4, "rc", "ghost"),
    ]

    def test_every_bound_cq_has_an_unknown_case(self, toy_graph):
        bound = set()
        for cq in CqId:
            try:
                run_cq(toy_graph, cq)
            except MissingBindingError:
                bound.add(cq)
        assert {cq for cq, _, _ in self.UNKNOWN_BINDINGS} == bound

    @pytest.mark.parametrize(
        "cq, name, local", UNKNOWN_BINDINGS, ids=lambda v: v.value if isinstance(v, CqId) else v
    )
    def test_unknown_entity(self, toy_graph, cq, name, local):
        with pytest.raises(UnknownEntityError) as info:
            run_cq(toy_graph, cq, {name: kb(local)})
        assert info.value.iri == kb(local)

    @pytest.mark.parametrize(
        "cq, bindings",
        [
            (CqId.Q1_1, {"simulacrum": kb("olive")}),
            (CqId.Q1_2, {"context": kb("hindu")}),
            (CqId.Q1_3, {"entity": kb("death")}),
            (CqId.Q1_4, {"rc": kb("death")}),
            (CqId.Q2_1, {"simulacrum": kb("olive")}),
            (CqId.Q2_2, {}),
            (CqId.Q2_3, {"simulation": kb("olive-fertility")}),
            (CqId.Q3_1, {"entity": kb("bird")}),
            (CqId.Q3_2, {"simulacrum": kb("bird")}),
            (CqId.Q3_3, {}),
            (CqId.Q3_4, {"rc": kb("charm")}),
            (CqId.Q3_5, {}),
        ],
        ids=lambda v: v.value if isinstance(v, CqId) else "",
    )
    def test_rows_carry_the_declared_variables(self, toy_graph, cq, bindings):
        rows = run_cq(toy_graph, cq, bindings)
        assert rows and all(r.variables == RESULT_VARIABLES[cq] for r in rows)
        assert all(len(r) == len(r.variables) for r in rows)
        back = pickle.loads(pickle.dumps(rows))
        assert back == rows and [type(r) for r in back] == [type(r) for r in rows]

    def test_unsourced_multi_simulacrum_rows_carry_the_declared_variables(self):
        g = import_turtle(
            "@prefix sim: <https://w3id.org/simulation/ontology/> .\n"
            "@prefix kb: <https://w3id.org/simulation/data/> .\n"
            "kb:x-y a sim:Simulation ; sim:hasSimulacrum kb:x, kb:z ;\n"
            "    sim:hasRealityCounterpart kb:y ; sim:hasContext kb:c .\n"
        )
        for cq in (CqId.Q1_5, CqId.Q2_4):
            rows = run_cq(g, cq)
            assert [r.variables for r in rows] == [RESULT_VARIABLES[cq]]
            assert rows[0].values() == (kb("x-y"),)
            back = pickle.loads(pickle.dumps(rows))
            assert back == rows and type(back[0]) is type(rows[0])

    def test_row_api(self, toy_graph):
        row = run_cq(toy_graph, CqId.Q2_2)[0]
        assert row.variables == ("simulation", "rc", "source")
        assert row["rc"] == kb("fertility")
        assert type(row.values()) is tuple and row.values() == tuple(row)
        assert pickle.loads(pickle.dumps(row)).variables == row.variables
        with pytest.raises(KeyError):
            row["nope"]

    def test_row_indexes_as_a_tuple(self):
        g = load_graph(FIXTURES / "golden" / "hook.ttl")
        row = run_cq(g, CqId.Q1_2, {"context": kb("generalOrUnknown")})[0]
        assert row[0] == row[-1] == row["simulation"] == kb("hook-attraction")
        assert row[:1] == (kb("hook-attraction"),)
        with pytest.raises(IndexError):
            row[1]


class TestSymbolicMeanings:
    def test_white_rose_purity(self):
        g = Graph()
        g.insert_simulation(
            build_simulation(
                SimulationKind.GENERIC,
                make_entity("white rose"),
                [(RcRelation.HAS, make_entity("purity"))],
                [make_entity("general")],
                [make_entity("olderr")],
            )
        )
        meanings = symbolic_meanings(g, kb("whiteRose"))
        assert {e.label for e in meanings} == {"purity"}

    def test_entity_in_no_simulation(self, toy_graph):
        assert symbolic_meanings(toy_graph, kb("bird")) == set()

    def test_repeat_flag_two_hop_chain(self):
        g = Graph()
        src = make_entity("olderr")
        ctx = make_entity("general")
        g.insert_simulation(
            build_simulation(SimulationKind.GENERIC, make_entity("a"), [(RcRelation.HAS, make_entity("b"))], [ctx], [src])
        )
        g.insert_simulation(
            build_simulation(SimulationKind.GENERIC, make_entity("b"), [(RcRelation.HAS, make_entity("c"))], [ctx], [src])
        )
        off = symbolic_meanings(g, kb("a"))
        on = symbolic_meanings(g, kb("a"), repeat=True)
        assert {e.label for e in off} == {"b"}
        assert {e.label for e in on} == {"b", "c"}

    def test_unknown_entity(self, toy_graph):
        with pytest.raises(UnknownEntityError):
            symbolic_meanings(toy_graph, kb("ghost"))


def _reached(edges: dict, starts) -> set:
    """Every node at the end of one or more edges from ``starts``, by a
    plain breadth-first walk."""
    seen, queue = set(), deque(starts)
    while queue:
        for nxt in edges.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


class TestLongVariantChain:
    """Path queries over a variant chain of 600 links, against a reference walk."""

    LINKS = 600

    @pytest.fixture(scope="class")
    def chain(self):
        g, variants, meanings = Graph(), {}, {}
        src, ctx = make_entity("olderr"), make_entity("general")
        chain = [make_entity(f"variant {i}") for i in range(self.LINKS + 1)]
        for base, variant in zip(chain, chain[1:]):
            g.add_variant(base, variant)
            variants.setdefault(base.id, set()).add(variant.id)

        def simulation(simulacrum, rc):
            g.insert_simulation(build_simulation(SimulationKind.GENERIC, simulacrum, [(RcRelation.HAS, rc)], [ctx], [src]))
            meanings.setdefault(simulacrum.id, set()).add(rc.id)

        for i in range(0, self.LINKS + 1, 3):
            meaning = make_entity(f"meaning {i}")
            simulation(chain[i], meaning)
            if i % 6 == 0:  # a meaning that is itself a simulacrum, for repeat
                deeper = make_entity(f"deeper {i}")
                simulation(meaning, deeper)
                if i % 12 == 0 and i < self.LINKS:  # and one that leads back into the chain
                    simulation(deeper, chain[i + 1])
        return g, chain, variants, meanings

    @pytest.mark.parametrize("start", [0, 1, 300, 599, 600])
    def test_agrees_with_a_breadth_first_walk(self, chain, start):
        g, entities, variants, meanings = chain
        root = entities[start].id
        closure = _reached(variants, [root]) - {root}
        assert len(closure) == self.LINKS - start
        one_hop = {m for seed in {root} | closure for m in meanings.get(seed, ())}
        assert [r["variant"] for r in run_cq(g, CqId.Q3_1, {"entity": root})] == sorted(closure)
        assert [r["rc"] for r in run_cq(g, CqId.Q3_2, {"simulacrum": root})] == sorted(one_hop)
        found = symbolic_meanings(g, root, include_variants=True, repeat=True)
        assert {e.id for e in found} == _reached(meanings, {root} | closure)

    def test_path_queries_return_entities(self, chain):
        g, entities, _, _ = chain
        closure = g.variant_closure(entities[0])
        found = symbolic_meanings(g, entities[0], include_variants=True, repeat=True)
        for result in (closure, found):
            assert result and all(type(e) is Entity for e in result)
            assert result == {g.entities[e.id] for e in result}


class TestKeptWalks:
    """The path reads after a write that changes a walk they read before,
    against the same writes on a graph that kept nothing."""

    # rose -> white rose -> red rose; love, a meaning of rose, is a simulacrum too
    BASE = [("rose", "love"), ("white rose", "purity"), ("love", "devotion"), ("red lily", "love"),
            ("~", "rose", "white rose"), ("~", "white rose", "red rose"), ("white lily", "silence")]

    @staticmethod
    def _write(g, steps):
        src, ctx = make_entity("olderr"), make_entity("general")
        for step in steps:
            if step[0] == "~":
                g.add_variant(make_entity(step[1]), make_entity(step[2]))
            else:
                simulacrum, meaning = map(make_entity, step)
                g.insert_simulation(
                    build_simulation(SimulationKind.GENERIC, simulacrum, [(RcRelation.HAS, meaning)], [ctx], [src])
                )
        return g

    @staticmethod
    def _answers(g):
        root = kb("rose")
        rows = run_cq(g, CqId.Q3_2, {"simulacrum": root})
        found = symbolic_meanings(g, root, include_variants=True, repeat=True)
        dist = color_distribution(g, root)
        return [r.values() for r in rows], {e.id for e in found}, [(row.meaning.id, row.counts) for row in dist.rows]

    @pytest.mark.parametrize(
        "write",
        [("rose", "secrecy"), ("red rose", "passion"), ("devotion", "faith"), ("~", "red rose", "white lily")],
        ids=["pair on the root", "pair on a closure node", "pair on a meaning reached by repeat", "variant link"],
    )
    def test_a_write_reaches_the_answers_read_before_it(self, write):
        g = self._write(Graph(), self.BASE)
        before = self._answers(g)
        after = self._answers(self._write(g, [write]))
        assert after == self._answers(self._write(Graph(), [*self.BASE, write])) and after != before


class TestQueryProperties:
    def test_q1_1_equals_symbolic_meanings(self):
        for seed in range(25):
            g = random_graph(random.Random(seed), max_sims=12)
            for iri in list(g._sims_by_simulacrum):
                rows = run_cq(g, CqId.Q1_1, {"simulacrum": iri})
                assert {r["rc"] for r in rows} == {e.id for e in symbolic_meanings(g, iri)}

    def test_q3_2_superset_of_q1_1(self):
        for seed in range(25):
            g = random_graph(random.Random(seed), max_sims=12)
            for iri in list(g._sims_by_simulacrum):
                q11 = {r["rc"] for r in run_cq(g, CqId.Q1_1, {"simulacrum": iri})}
                q32 = {r["rc"] for r in run_cq(g, CqId.Q3_2, {"simulacrum": iri})}
                assert q11 <= q32

    @pytest.mark.parametrize("seed", range(50))
    def test_results_stable_under_insertion_order(self, seed):
        # Indexes keep store order, so each way of building the graph hands
        # the evaluators their values in another order.
        from graphgen import build_graph, random_parts
        from simkg.query import _QUESTIONS

        rng = random.Random(seed)
        sims, variants = random_parts(rng, max_sims=10)
        g = build_graph(sims, variants)
        shuffled, shuffled_variants = sims[:], variants[:]
        rng.shuffle(shuffled)
        rng.shuffle(shuffled_variants)
        others = build_graph(shuffled, shuffled_variants), import_turtle(export_turtle(g))
        for cq, (needs, _, _) in _QUESTIONS.items():
            if not needs:
                candidates = [{}]
            else:
                (name,) = needs
                candidates = [{name: iri} for iri in sorted(g.simulations if name == "simulation" else g.entities)]
            for bindings in candidates:
                rows = run_cq(g, cq, bindings)
                assert rows == sorted(set(rows)), f"seed {seed}: {cq.value} {bindings}"
                for other in others:
                    assert run_cq(other, cq, bindings) == rows, f"seed {seed}: {cq.value} {bindings}"
