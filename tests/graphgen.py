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
    Literal,
    RcRelation,
    Role,
    SimulationKind,
    Simulation,
    build_simulation,
    camel_case,
    make_entity,
)
from simkg.graph import OWL_SAME_AS, RDF_TYPE, RDFS_LABEL

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
    return make_entity(word, links=links)


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


def add_repeated_statements(g: Graph, rng: random.Random) -> None:
    """Extra triples that repeat stored statements, as a foreign file can
    state them: a simulation's kind, an entity's role type and label, and an
    ``owl:sameAs`` link.  ``random_graph`` never makes these."""
    sim = g.simulations[rng.choice(sorted(g.simulations))]
    entity = g.entities[rng.choice(sorted(e for e in g.entities if g.roles_of(e)))]
    g.extra_triples.add((sim.id, RDF_TYPE, sim.kind.schema_iri))
    g.extra_triples.add((entity.id, RDF_TYPE, rng.choice(sorted(role.schema_iri for role in g.roles_of(entity.id)))))
    g.extra_triples.add((entity.id, RDFS_LABEL, Literal(entity.label)))
    linked = sorted(e.id for e in g.entities.values() if e.external_links)
    if linked:
        e = g.entities[rng.choice(linked)]
        g.extra_triples.add((e.id, OWL_SAME_AS, rng.choice(sorted(e.external_links))))


def add_stated_roles(g: Graph, rng: random.Random) -> None:
    """Roles stated on entities, as import and the dictionary's variant
    links state them: on members (an implied role is not stored) and on an
    entity with no membership.  ``random_graph`` never makes these."""
    g.upsert_entity(make_entity(rng.choice(["lone star", "stray cat", "odd sock"])))
    for iri in rng.sample(sorted(g.entities), min(4, len(g.entities))):
        g.state_role(iri, rng.choice(list(Role)))


def derived_pairs(g: Graph) -> set:
    """Every simulacrum -> meaning edge the graph derives, read through
    ``meanings_of`` for each simulacrum of each simulation."""
    return {(a, m) for s in g.simulations.values() for a in s.simulacra for m in g.meanings_of(a)}


def brute_force_meanings(g: Graph) -> set:
    """Independent recomputation of the materialized meaning edges."""
    expected = set()
    for sim in g.simulations.values():
        for a in sim.simulacra:
            for _, rc in sim.reality_counterparts:
                expected.add((a, rc))
    return expected
