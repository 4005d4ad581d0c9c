"""Indexed store of entities, simulations and variant links.

The store materializes the simulacrum->meaning edges eagerly on insert
(the composition of "is simulacrum of" with "has reality counterpart"),
so reads never pay for inference.  Mutation follows a single-writer,
multi-reader contract: all query methods are read-only.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterable, Union

from .model import (
    RDF,
    CycleError,
    Entity,
    Iri,
    Literal,
    RcRelation,
    Simulation,
    SimulationKind,
    VariantLink,
)

Triple = tuple[Iri, Iri, Union[Iri, Literal]]

RDF_TYPE = Iri(RDF + "type")
KIND_BY_CLASS = {kind.schema_iri: kind for kind in SimulationKind}


class UnknownEntityError(KeyError):
    def __init__(self, iri: Iri):
        super().__init__(str(iri))
        self.iri = iri


@dataclass(frozen=True, slots=True)
class SourceStats:
    """One row of corpus statistics (per source, or the totals row)."""

    label: str
    n_simulacra: int
    n_rcs: int
    n_contexts: int
    n_simulations: int
    n_triples: int


@dataclass(frozen=True, slots=True)
class CorpusStats:
    rows: tuple[SourceStats, ...]
    total: SourceStats


def _min_label(a: str, b: str) -> str:
    # Label choice must not depend on insertion order.
    return a if a <= b else b


_RC_RANK = {rel: i for i, rel in enumerate(RcRelation)}


class Graph:
    """Entities, simulations and variants, with derived meaning edges.

    Each fact is stored once: every member of a stored simulation is the
    graph's own entity object (``entities[member.id]``), and the meaning
    and variant relations live only in their indexes.
    """

    def __init__(self) -> None:
        self.entities: dict[Iri, Entity] = {}
        self.simulations: dict[Iri, Simulation] = {}
        # Triples outside the schema, preserved for re-export; this includes
        # the extra kinds of a simulation typed with more than one.
        self.extra_triples: set[Triple] = set()

        self._variant_children: dict[Iri, set[Iri]] = defaultdict(set)
        self._sims_by_simulacrum: dict[Iri, set[Iri]] = defaultdict(set)
        self._sims_by_rc: dict[Iri, set[Iri]] = defaultdict(set)
        self._sims_by_context: dict[Iri, set[Iri]] = defaultdict(set)
        self._sims_by_source: dict[Iri, set[Iri]] = defaultdict(set)
        self._meanings_of: dict[Iri, set[Iri]] = defaultdict(set)

    @property
    def variant_edges(self) -> set[tuple[Iri, Iri]]:
        """Every base -> variant link, read from the variant index."""
        return {(base, v) for base, variants in self._variant_children.items() for v in variants}

    @property
    def derived_meanings(self) -> set[tuple[Iri, Iri]]:
        """Every simulacrum -> meaning edge, read from the meaning index."""
        return {(a, m) for a, meanings in self._meanings_of.items() for m in meanings}

    @property
    def kind_conflicts(self) -> dict[Iri, tuple[SimulationKind, SimulationKind]]:
        """Simulations typed with more than one kind: the stored kind and
        the lowest other one, read from the extra ``rdf:type`` triples."""
        others: dict[Iri, SimulationKind] = {}
        for s, p, o in self.extra_triples:
            kind = KIND_BY_CLASS.get(o) if p == RDF_TYPE and s in self.simulations else None
            if kind is not None and (s not in others or kind.value < others[s].value):
                others[s] = kind
        return {s: (self.simulations[s].kind, others[s]) for s in sorted(others)}

    # -- entities ---------------------------------------------------------

    def upsert_entity(self, e: Entity) -> Entity:
        """Merge an entity into the store by IRI: roles and external links
        union, label resolved order-independently.  Returns the stored
        entity; stored simulations that mention a changed entity are
        re-pointed at the merged one."""
        current = self.entities.get(e.id)
        if current is e:
            return e
        if current is None:
            self.entities[e.id] = e
            return e
        if e.roles <= current.roles and e.external_links <= current.external_links and current.label <= e.label:
            return current
        merged = self.entities[e.id] = Entity(
            id=current.id,
            label=_min_label(current.label, e.label),
            roles=current.roles | e.roles,
            external_links=current.external_links | e.external_links,
        )
        for index in (self._sims_by_simulacrum, self._sims_by_rc, self._sims_by_context, self._sims_by_source):
            for sim_id in index.get(e.id, ()):
                self.simulations[sim_id] = self._resolved(self.simulations[sim_id])
        return merged

    def entity(self, ref: Union[Entity, Iri, str]) -> Entity:
        iri = ref.id if isinstance(ref, Entity) else Iri(ref)
        try:
            return self.entities[iri]
        except KeyError:
            raise UnknownEntityError(iri) from None

    # -- simulations ------------------------------------------------------

    def insert_simulation(self, s: Simulation) -> Simulation:
        """Insert or merge a simulation; returns the stored value.

        A simulation with the same id absorbs the incoming contexts,
        reality counterparts and sources.  When the kinds differ, the kind
        lowest by ``SimulationKind.value`` is stored and the other one is
        kept as an extra ``rdf:type`` triple, so the result does not depend
        on arrival order; :attr:`kind_conflicts` reports it.
        """
        existing = self.simulations.get(s.id)
        if existing is not None and existing.kind is not s.kind:
            kept, other = sorted((existing.kind, s.kind), key=lambda k: k.value)
            self.extra_triples.add((s.id, RDF_TYPE, other.schema_iri))
            s = replace(s, kind=kept)
        for e in s.member_entities():
            self.upsert_entity(e)
        if existing is not None:
            s = replace(
                s,
                simulacra=existing.simulacra + s.simulacra,
                reality_counterparts=existing.reality_counterparts + s.reality_counterparts,
                contexts=existing.contexts + s.contexts,
                sources=existing.sources + s.sources,
            )
        stored = self.simulations[s.id] = self._resolved(s)
        for e in stored.simulacra:
            self._sims_by_simulacrum[e.id].add(stored.id)
        for _, rc in stored.reality_counterparts:
            self._sims_by_rc[rc.id].add(stored.id)
        for c in stored.contexts:
            self._sims_by_context[c.id].add(stored.id)
        for src in stored.sources:
            self._sims_by_source[src.id].add(stored.id)
        for a in stored.simulacra:
            for _, rc in stored.reality_counterparts:
                self._meanings_of[a.id].add(rc.id)
        return stored

    def _resolved(self, s: Simulation) -> Simulation:
        """``s`` with its members deduplicated by IRI, each one the stored
        entity, in an order that does not depend on arrival: ids sorted,
        counterparts by relation rank, then id."""
        ents = self.entities

        def members(group: tuple[Entity, ...]) -> tuple[Entity, ...]:
            return tuple(ents[i] for i in sorted({e.id for e in group}))

        rcs = sorted({(rel, e.id) for rel, e in s.reality_counterparts}, key=lambda p: (_RC_RANK[p[0]], p[1]))
        return Simulation(
            id=s.id,
            kind=s.kind,
            simulacra=members(s.simulacra),
            reality_counterparts=tuple((rel, ents[i]) for rel, i in rcs),
            contexts=members(s.contexts),
            sources=members(s.sources),
        )

    # -- variants ---------------------------------------------------------

    def add_variant(self, base: Entity, variant: Entity) -> VariantLink:
        """Record base -> variant; refuses any link that closes a cycle."""
        link = VariantLink(base, variant)  # rejects self-loops
        if self._reaches(variant.id, base.id):
            raise CycleError(f"variant link {base.id} -> {variant.id} closes a cycle")
        self.upsert_entity(base)
        self.upsert_entity(variant)
        self._add_variant_edge(base.id, variant.id)
        return link

    def _add_variant_edge(self, base: Iri, variant: Iri) -> None:
        self._variant_children[base].add(variant)

    def _reaches(self, start: Iri, goal: Iri) -> bool:
        if start == goal:
            return True
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            for child in self._variant_children.get(node, ()):
                if child == goal:
                    return True
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False

    def variant_closure(self, ref: Union[Entity, Iri, str]) -> set[Entity]:
        """All transitive variants of an entity (the entity itself excluded)."""
        root = self.entity(ref).id
        found: set[Iri] = set()
        stack = [root]
        while stack:
            node = stack.pop()
            for child in self._variant_children.get(node, ()):
                if child not in found and child != root:
                    found.add(child)
                    stack.append(child)
        return {self.entities[i] for i in found}

    # -- queries used across modules ---------------------------------------

    def simulations_with_simulacrum(self, iri: Iri) -> set[Iri]:
        return self._sims_by_simulacrum.get(iri, set())

    def simulations_with_rc(self, iri: Iri) -> set[Iri]:
        return self._sims_by_rc.get(iri, set())

    def simulations_with_context(self, iri: Iri) -> set[Iri]:
        return self._sims_by_context.get(iri, set())

    def meanings_of(self, iri: Iri) -> set[Iri]:
        return self._meanings_of.get(iri, set())

    # -- statistics ---------------------------------------------------------

    def stats(self) -> CorpusStats:
        """Distinct element counts per source plus a deduplicated totals row.

        ``n_triples`` is defined operationally: the number of statements the
        Turtle exporter emits for that source's subgraph (for the totals row,
        for the whole graph).
        """
        rows = []
        source_ids = sorted(
            self._sims_by_source,
            key=lambda i: (self.entities[i].label, i),
        )
        for src in source_ids:
            sim_ids = sorted(self._sims_by_source[src])
            rows.append(self._stats_row(self.entities[src].label, [self.simulations[i] for i in sim_ids]))
        total = self._stats_row("Total", list(self.simulations.values()), whole_graph=True)
        return CorpusStats(rows=tuple(rows), total=total)

    def _stats_row(self, label: str, sims: list[Simulation], whole_graph: bool = False) -> SourceStats:
        simulacra: set[Iri] = set()
        rcs: set[Iri] = set()
        contexts: set[Iri] = set()
        members: set[Iri] = set()
        n_triples = 0
        for s in sims:
            simulacra.update(e.id for e in s.simulacra)
            rcs.update(e.id for _, e in s.reality_counterparts)
            contexts.update(e.id for e in s.contexts)
            members.update(e.id for e in s.member_entities())
            n_triples += (
                1  # rdf:type
                + len(s.simulacra)
                + len(s.reality_counterparts)
                + len(s.contexts)
                + len(s.sources)
            )
        if whole_graph:
            entity_ids: Iterable[Iri] = self.entities
            n_triples += sum(map(len, self._variant_children.values()))
            n_triples += len(self.extra_triples)
        else:
            entity_ids = sorted(members)
            n_triples += sum(len(vs & members) for b, vs in self._variant_children.items() if b in members)
        for eid in entity_ids:
            e = self.entities[eid]
            n_triples += 1 + len(e.roles) + len(e.external_links)
        return SourceStats(
            label=label,
            n_simulacra=len(simulacra),
            n_rcs=len(rcs),
            n_contexts=len(contexts),
            n_simulations=len(sims),
            n_triples=n_triples,
        )

    # -- equality -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # Members are the stored entities in a canonical order, so equal
        # simulations hold equal members.
        return (
            self.entities == other.entities
            and self.simulations == other.simulations
            and self._variant_children == other._variant_children
            and self.extra_triples == other.extra_triples
        )

    def __repr__(self) -> str:
        return (
            f"Graph(entities={len(self.entities)}, simulations={len(self.simulations)}, "
            f"variants={len(self.variant_edges)})"
        )
