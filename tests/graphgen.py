"""Seeded random graph builder shared by property and acceptance tests.

Kinds are derived from a checksum of the simulation id so the same id can
never be generated with two different kinds: generated insertion sequences
therefore succeed in any permutation, which the order-independence
properties rely on.
"""

from __future__ import annotations

import random
import zlib

from simkg import (
    Entity,
    Graph,
    RcRelation,
    Role,
    SimulationKind,
    Simulation,
    build_simulation,
    camel_case,
    make_entity,
)

# Deliberately awkward labels: collisions after minting, quotes, escapes,
# unicode, apostrophes, embedded newlines and tabs.
SIMULACRUM_WORDS = [
    "rose", "white rose", "White Rose", "owl", "night bird", "lion", "bee",
    "agate", "bloodstone", "peach", "chalice", "dragon's breath", "café au lait",
    'the "pure" knight', "black and white", "golden hair", "hook",
    "sea\tserpent", "two\nlines",
]
MEANING_WORDS = [
    "purity", "death", "resurrection", "marriage", "courage", "peace",
    "healthy blood", "evil spirits", "drunkenness", "helpful spirits",
    "deceitfulness", "attraction", "faith", "charm", "innocence",
    "back\\slash luck", "white rose",  # a meaning that is also a simulacrum
]
CONTEXT_WORDS = ["egyptian", "hindu", "japanese", "mayan", "siberian", "christian", "Greek mythology", "arabian"]
SOURCE_WORDS = ["dictionary of symbols 1", "dictionary of symbols 2", "field notes"]

_GENERIC_RELS = [RcRelation.HAS, RcRelation.HAS, RcRelation.HAS, RcRelation.RESTORED, RcRelation.EASED, RcRelation.ELICITED]
_KINDS = list(SimulationKind)


def _kind_for(sim_id: str) -> SimulationKind:
    return _KINDS[zlib.crc32(sim_id.encode("utf-8")) % len(_KINDS)]


def random_simulation(rng: random.Random) -> Simulation:
    simulacrum = make_entity(rng.choice(SIMULACRUM_WORDS))
    n_rcs = rng.randint(1, 3)
    rc_entities = [make_entity(w) for w in rng.sample(MEANING_WORDS, n_rcs)]
    local = "-".join([camel_case(simulacrum.label)] + [camel_case(e.label) for e in rc_entities])
    kind = _kind_for(local)
    if kind is SimulationKind.HEALING:
        rels = [RcRelation.HEALED] + [RcRelation.HAS] * (n_rcs - 1)
    elif kind is SimulationKind.PROTECTION:
        rels = [RcRelation.PREVENTED] + [RcRelation.HAS] * (n_rcs - 1)
    else:
        rels = [rng.choice(_GENERIC_RELS) for _ in rc_entities]
    contexts = [make_entity(w) for w in rng.sample(CONTEXT_WORDS, rng.randint(1, 2))]
    sources = [_source(rng, w) for w in rng.sample(SOURCE_WORDS, rng.randint(1, 2))]
    return build_simulation(kind, simulacrum, list(zip(rels, rc_entities)), contexts, sources)


def _source(rng: random.Random, word: str) -> Entity:
    links = [f"http://example.org/source/{camel_case(word)}"] if rng.random() < 0.3 else []
    return make_entity(word, Role.SOURCE, links=links)


def random_parts(rng: random.Random, max_sims: int = 30) -> tuple[list[Simulation], list[tuple[Entity, Entity]]]:
    """Simulations plus an always-acyclic set of variant links.

    Variant edges only ever point from a lexicographically smaller label to
    a bigger one, so no subset of them can form a cycle.
    """
    sims = [random_simulation(rng) for _ in range(rng.randint(1, max_sims))]
    variants = []
    labels = sorted(set(SIMULACRUM_WORDS) | set(MEANING_WORDS), key=lambda w: (camel_case(w), w))
    for _ in range(rng.randint(0, 4)):
        i, j = sorted(rng.sample(range(len(labels)), 2))
        base, variant = make_entity(labels[i]), make_entity(labels[j])
        if base.id != variant.id:
            variants.append((base, variant))
    return sims, variants


def build_graph(sims, variants=()) -> Graph:
    g = Graph()
    for s in sims:
        g.insert_simulation(s)
    for base, variant in variants:
        g.add_variant(base, variant)
    return g


def random_graph(rng: random.Random, max_sims: int = 30) -> Graph:
    sims, variants = random_parts(rng, max_sims)
    return build_graph(sims, variants)


def brute_force_meanings(g: Graph) -> set:
    """Independent recomputation of the materialized meaning edges."""
    expected = set()
    for sim in g.simulations.values():
        for a in sim.simulacra:
            for _, rc in sim.reality_counterparts:
                expected.add((a.id, rc.id))
    return expected
