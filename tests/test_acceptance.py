"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them silently as ordinary tests.
"""

import random
import resource
import time
from pathlib import Path

from conftest import FIXTURES
from graphgen import brute_force_meanings, derived_pairs, random_graph
from simkg import (
    CqId,
    EvalCategory,
    Graph,
    Iri,
    RcRelation,
    SimulationKind,
    build_simulation,
    check_axioms,
    color_distribution,
    eval_conversion,
    export_turtle,
    import_turtle,
    make_entity,
    run_cq,
)
from simkg.analysis import label_colors, predicted_items
from simkg.cli import _insert_all
from simkg.dbpedia import convert_dbpedia, read_triples_file
from simkg.dictionary import convert_document
from simkg.model import KB
from simkg.wordnet import convert_synsets, read_synset_file

README = Path(__file__).resolve().parent.parent / "README.md"


def _passed(n, text):
    print(f"[PASS] criterion {n}: {text}")


def kb(local):
    return Iri(KB + local)


def test_criterion_1_toy_dataset_cq_suite(toy_graph):
    start = time.perf_counter()

    rows = run_cq(toy_graph, CqId.Q2_2)
    assert [tuple(v.local_name for v in r.values()) for r in rows] == [
        ("olive-fertility", "fertility", "dictionaryOfSymbols1"),
        ("olive-immortality", "immortality", "dictionaryOfSymbols2"),
    ], "Q2.2 must return exactly the two expected rows"

    expected = {
        (CqId.Q1_1, ("simulacrum", "olive")): {("fertility",), ("immortality",)},
        (CqId.Q1_2, ("context", "hindu")): {("owl-death",)},
        (CqId.Q1_3, ("entity", "death")): {("nightBird-death",), ("owl-death",)},
        (CqId.Q1_4, ("rc", "death")): {
            ("nightBird", "generalOrUnknown"),
            ("owl", "hindu"),
            ("owl", "japanese"),
            ("owl", "mayan"),
        },
        (CqId.Q2_1, ("simulacrum", "olive")): {
            ("olive-fertility", "fertility", "dictionaryOfSymbols1"),
            ("olive-immortality", "immortality", "dictionaryOfSymbols2"),
        },
        (CqId.Q2_3, ("simulation", "olive-fertility")): {("dictionaryOfSymbols1",)},
        (CqId.Q3_1, ("entity", "bird")): {("nightBird",)},
        (CqId.Q3_2, ("simulacrum", "bird")): {("death",)},
        (CqId.Q3_3, None): {("agate-evilSpirits", "evilSpirits")},
        (CqId.Q3_4, ("rc", "charm")): {
            ("agate-charm-healthyBlood", "charm", "hasRealityCounterpart"),
            ("agate-charm-healthyBlood", "healthyBlood", "elicitedRealityCounterpart"),
        },
        (CqId.Q3_5, None): {("amethyst-drunkenness", "amethyst", "greek", "drunkenness")},
    }
    for (cq, binding), want in expected.items():
        bindings = {binding[0]: kb(binding[1])} if binding else {}
        got = {tuple(v.local_name for v in r.values()) for r in run_cq(toy_graph, cq, bindings)}
        assert got, f"{cq.value} must be nonempty"
        assert got == want, f"{cq.value}: {got} != {want}"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"toy CQ suite took {elapsed:.2f}s"
    _passed(1, f"toy dataset CQ suite, Q2.2 exact plus 11 hand-derived CQs in {elapsed:.3f}s")


def test_criterion_2_negative_cq_property():
    start = time.perf_counter()
    for seed in range(1000):
        g = random_graph(random.Random(seed), max_sims=50)
        assert check_axioms(g) == [], f"seed {seed}: constructor-built graph has violations"
        assert run_cq(g, CqId.Q1_5) == [], f"seed {seed}: Q1.5 nonempty"
        assert run_cq(g, CqId.Q2_4) == [], f"seed {seed}: Q2.4 nonempty"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"negative-CQ property took {elapsed:.2f}s"
    _passed(2, f"1000 constructor-built graphs clean; Q1.5/Q2.4 empty in {elapsed:.2f}s")


def test_criterion_3_property_chain_oracle():
    mismatches = 0
    for seed in range(500):
        g = random_graph(random.Random(1_000_000 + seed), max_sims=30)
        if derived_pairs(g) != brute_force_meanings(g):
            mismatches += 1
    assert mismatches == 0
    _passed(3, "derived meaning edges equal brute-force recomputation on 500 graphs")


def test_criterion_4_round_trip():
    for seed in range(500):
        g = random_graph(random.Random(2_000_000 + seed), max_sims=30)
        text = export_turtle(g)
        assert import_turtle(text) == g, f"seed {seed}: round trip not identity"
        assert export_turtle(g) == text, f"seed {seed}: export not byte-deterministic"
    # determinism across two independent builds of the same graph
    a = export_turtle(random_graph(random.Random(42), max_sims=30))
    b = export_turtle(random_graph(random.Random(42), max_sims=30))
    assert a == b
    _passed(4, "import(export(g)) = g for 500 graphs; byte-deterministic export")


def test_criterion_5_conversion_fixtures():
    golden = FIXTURES / "golden"

    g = Graph()
    _, conv = convert_document(
        (FIXTURES / "hook.dict").read_text(encoding="utf-8"), make_entity("olderr")
    )
    _insert_all(g, conv, "hook.dict")
    sims = list(g.simulations.values())
    contexts = {g.entities[c].id.local_name for s in sims for c in s.contexts}
    kinds = {s.kind for s in sims}
    assert "christian" in contexts
    assert SimulationKind.RELATEDNESS in kinds and SimulationKind.ATTRIBUTE in kinds
    assert all(g.entities[s.simulacrum].id.local_name in ("hook", "hookAndEye") for s in sims)
    assert kb("hook") in {g.entities[s.simulacrum].id for s in sims}
    assert export_turtle(g) == (golden / "hook.ttl").read_text(encoding="utf-8")

    g = Graph()
    records = [r for r in read_synset_file(FIXTURES / "penelope.tsv") if r.label == "Penelope"]
    out = convert_synsets(records, make_entity("Wordnet"))
    _insert_all(g, out, "penelope.tsv")
    assert set(g.simulations) == {kb("penelope-devotion"), kb("penelope-fidelity")}
    assert all(
        [g.entities[c].id.local_name for c in s.contexts] == ["greekMythology"] for s in g.simulations.values()
    )
    assert export_turtle(g) == (golden / "penelope.ttl").read_text(encoding="utf-8")

    g = Graph()
    triples = [t for t in read_triples_file(FIXTURES / "eagle.nt") if t.subject.local_name == "Eagle"]
    dbp = convert_dbpedia(triples, make_entity("DBpedia"))
    _insert_all(g, dbp, "warning")
    assert set(g.simulations) == {kb("eagle-liechtenstein")}
    sim = g.simulations[kb("eagle-liechtenstein")]
    assert [g.entities[c].id.local_name for c in sim.contexts] == ["generalOrUnknown"]
    assert export_turtle(g) == (golden / "eagle.ttl").read_text(encoding="utf-8")

    _passed(5, "hook/penelope/eagle conversions match facts and exact golden files")


def test_criterion_6_eval_harness():
    toy = Graph()
    src = make_entity("s")
    for simulacrum, meaning in (("a", "x"), ("b", "y")):
        toy.insert_simulation(
            build_simulation(
                SimulationKind.GENERIC,
                make_entity(simulacrum),
                [(RcRelation.HAS, make_entity(meaning))],
                [make_entity("c1")],
                [src],
            )
        )
    identical = eval_conversion(predicted_items(toy), toy)
    for row in (*identical.rows, identical.average):
        assert row.precision == row.recall == row.f1 == 1.0

    toy.add_variant(make_entity("a"), make_entity("v"))
    predicted = predicted_items(toy)
    assert sum(len(v) for v in predicted.values()) == 10
    gold = {cat: set(items) for cat, items in predicted.items()}
    gold[EvalCategory.VARIANT] = {(kb("a"), kb("w"))}  # annotator expected a different variant
    report = eval_conversion(gold, toy)
    assert abs(report.average.precision - 0.9) < 1e-9
    assert abs(report.average.recall - 0.9) < 1e-9
    assert abs(report.average.f1 - 0.9) < 1e-9

    # the reported corpus-scale reference numbers are documentation only:
    # they need the copyrighted source and are not reproducible here
    readme = README.read_text(encoding="utf-8")
    for reference in ("41,416", "498,525", "0.96", "0.97"):
        assert reference in readme, f"README must document the reference value {reference}"

    _passed(6, "eval harness exact on identical and 9-of-10 fixtures; corpus numbers documented")


def test_criterion_7_case_study_shape():
    g = Graph()
    src = make_entity("olderr")
    ctx = make_entity("general")

    def add(simulacrum, meaning):
        g.insert_simulation(
            build_simulation(
                SimulationKind.GENERIC,
                make_entity(simulacrum),
                [(RcRelation.HAS, make_entity(meaning))],
                [ctx],
                [src],
            )
        )

    for meaning in ("purity", "innocence", "charm", "faith"):
        add("white rose", meaning)
    add("golden hair", "purity")
    add("white knight", "purity")
    add("white swan", "purity")
    add("blue candle", "faith")
    add("white dove", "faith")
    fillers = [
        ("red dragon", "war"), ("black cat", "misfortune"), ("green branch", "hope"),
        ("purple robe", "royalty"), ("gold crown", "power"), ("white flag", "surrender"),
        ("blue sky", "calm"), ("red rose", "love"), ("black night", "mystery"),
        ("silver coin", "wealth"), ("iron sword", "strength"), ("glass slipper", "destiny"),
        ("white lily", "innocence"), ("black raven", "death"), ("golden apple", "discord"),
        ("red poppy", "remembrance"), ("blue sapphire", "truth"), ("green emerald", "rebirth"),
        ("white owl", "wisdom"), ("purple iris", "faith"),
    ]
    for simulacrum, meaning in fillers:
        add(simulacrum, meaning)
    for meaning in (
        "longing", "silence", "morning", "victory", "spring", "honour",
        "patience", "memory", "stillness", "endurance", "night",
    ):
        add("plain stone", meaning)
    assert len(g.simulations) == 40

    dist = color_distribution(g, kb("whiteRose"))

    # independent oracle: raw set intersections over the simulations
    target = kb("whiteRose")
    meanings_by_simulacrum = {}
    for s in g.simulations.values():
        meanings_by_simulacrum.setdefault(g.entities[s.simulacrum].id, set()).update(
            g.entities[e].id for _, e in s.reality_counterparts
        )
    for row in dist.rows:
        expected = {}
        for simulacrum, meanings in meanings_by_simulacrum.items():
            if simulacrum == target or row.meaning.id not in meanings:
                continue
            for color in label_colors(g.entities[simulacrum].label, dist.colors):
                expected[color] = expected.get(color, 0) + 1
        assert dict(row.counts) == expected, f"row {row.meaning.label}"

    faith = next(r for r in dist.rows if r.meaning.label == "faith")
    assert faith.count("white") == 1 and faith.count("blue") == 1
    assert faith.count("purple") == 1  # purple iris also shares faith
    purity = next(r for r in dist.rows if r.meaning.label == "purity")
    assert purity.count("white") == 2 and purity.count("gold") == 1

    _passed(7, "colour distribution equals brute-force oracle; faith row half white, half blue")


def test_criterion_8_scale():
    rng = random.Random(987654321)
    n_sims = 50_000
    contexts = [make_entity(f"context {i}") for i in range(300)]
    sources = [make_entity(f"source collection {i}") for i in range(3)]
    meanings = [make_entity(f"meaning {i}") for i in range(6000)]
    simulacra = [make_entity(f"symbol {i}") for i in range(10000)]

    start = time.perf_counter()
    g = Graph()
    for i in range(n_sims):
        simulacrum = simulacra[i % len(simulacra)]
        # strides coprime to the pool sizes keep every simulation id distinct
        rcs = [meanings[(i + 911 * k) % 5987] for k in range(2 + (i % 2))]
        if i % 17 == 0:
            kind = SimulationKind.PROTECTION
            pairs = [(RcRelation.PREVENTED, rcs[0])] + [(RcRelation.HAS, e) for e in rcs[1:]]
        elif i % 17 == 1:
            kind = SimulationKind.HEALING
            pairs = [(RcRelation.HEALED, rcs[0])] + [(RcRelation.HAS, e) for e in rcs[1:]]
        else:
            kind = SimulationKind.GENERIC
            pairs = [(RcRelation.HAS, e) for e in rcs]
        ctx = [contexts[(i * 13 + k) % len(contexts)] for k in range(2 + (i % 2))]
        srcs = [sources[i % 3]] + ([sources[(i + 1) % 3]] if i % 2 else [])
        g.insert_simulation(build_simulation(kind, simulacrum, pairs, ctx, srcs))
    ingest_t = time.perf_counter() - start

    t = time.perf_counter()
    violations = check_axioms(g)
    assert violations == []
    validate_t = time.perf_counter() - t

    t = time.perf_counter()
    bindings = {
        CqId.Q1_1: {"simulacrum": simulacra[0].id},
        CqId.Q1_2: {"context": contexts[0].id},
        CqId.Q1_3: {"entity": meanings[0].id},
        CqId.Q1_4: {"rc": meanings[0].id},
        CqId.Q2_1: {"simulacrum": simulacra[0].id},
        CqId.Q2_3: {"simulation": next(iter(g.simulations))},
        CqId.Q3_1: {"entity": simulacra[0].id},
        CqId.Q3_2: {"simulacrum": simulacra[0].id},
        CqId.Q3_4: {"rc": meanings[0].id},
    }
    row_counts = {}
    for cq in CqId:
        row_counts[cq.value] = len(run_cq(g, cq, bindings.get(cq, {})))
    query_t = time.perf_counter() - t

    total = ingest_t + validate_t + query_t
    stats = g.stats()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    assert len(g.simulations) == n_sims
    assert 400_000 <= stats.total.n_triples <= 600_000, stats.total.n_triples
    assert row_counts["Q1.5"] == 0 and row_counts["Q2.4"] == 0
    assert row_counts["Q3.3"] > 0 and row_counts["Q3.5"] > 0 and row_counts["Q2.2"] > 0
    assert total < 30.0, f"scale run took {total:.1f}s (ingest {ingest_t:.1f} validate {validate_t:.1f} queries {query_t:.1f})"
    assert peak_mb < 2048, f"peak memory {peak_mb:.0f} MiB"

    _passed(
        8,
        f"{n_sims} simulations ({stats.total.n_triples} triples) ingested, validated and "
        f"queried in {total:.1f}s, peak {peak_mb:.0f} MiB",
    )
