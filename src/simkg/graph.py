"""Indexed store of entities, simulations and variant links.

The store materializes the simulacrum->meaning edges eagerly on insert
(the composition of "is simulacrum of" with "has reality counterpart"),
so reads never pay for inference.  Mutation follows a single-writer,
multi-reader contract: no query method changes what the graph holds,
though a path read keeps what it walked for the next one.

Two walks are kept, each as a sorted tuple: the variant closure that
``variant_closure`` and Q3.1 read, until the next variant link, and the
meanings reached from an entity through its variants or repeated hops
(what Q3.2 and ``symbolic_meanings`` with either flag read), until the
next variant link or the next store that adds a (simulacrum, meaning)
pair the graph lacked.  Those are the only changes that can alter either
answer, so a merge that adds no pair keeps both.  A single hop, which
the colour study reads, is one index lookup and is not kept.  On the
seed-5 benchmark graph, with every walk those reads ask for kept, the
closures take about 1 MiB and the meaning walks about 3.4 MiB.
"""

from __future__ import annotations

from collections import defaultdict
from operator import lt
from typing import Iterable, Iterator, KeysView, Mapping, NamedTuple, Sequence, Union

from .model import (
    OWL,
    PROV,
    RDF,
    RDFS,
    SIM,
    CycleError,
    Entity,
    Iri,
    Literal,
    RcRelation,
    Role,
    Simulation,
    SimulationKind,
    VariantLink,
)

Triple = tuple[Iri, Iri, Union[Iri, Literal]]
Block = list[tuple[Iri, Sequence[Union[Iri, Literal]]]]  # (predicate, objects), both in export order
Extra = dict[Iri, set[Union[Iri, Literal]]]  # a subject's extra triples: predicate -> objects

RDF_TYPE = Iri(RDF + "type")
RDFS_LABEL = Iri(RDFS + "label")
OWL_SAME_AS = Iri(OWL + "sameAs")
PROV_WAS_DERIVED_FROM = Iri(PROV + "wasDerivedFrom")
SIM_HAS_SIMULACRUM = Iri(SIM + "hasSimulacrum")
SIM_HAS_CONTEXT = Iri(SIM + "hasContext")
SIM_HAS_VARIANT = Iri(SIM + "hasVariant")
KIND_BY_CLASS = {kind.schema_iri: kind for kind in SimulationKind}
ROLE_BY_CLASS = {role.schema_iri: role for role in Role}
# member predicate -> (position of its group in Simulation, relation), in export order
MEMBER_SLOT = {
    SIM_HAS_SIMULACRUM: (0, None),
    **{rel.schema_iri: (1, rel) for rel in RcRelation},
    SIM_HAS_CONTEXT: (2, None),
    PROV_WAS_DERIVED_FROM: (3, None),
}

# the export's predicates in the order it writes them; any other comes last
_PREDICATE_ORDER = (RDF_TYPE, RDFS_LABEL, *MEMBER_SLOT, SIM_HAS_VARIANT, OWL_SAME_AS)
_PREDICATE_RANK: dict[Iri, int] = {p: rank for rank, p in enumerate(_PREDICATE_ORDER)}


class UnknownEntityError(KeyError):
    """An IRI the graph holds no entity (or no simulation) for."""

    def __init__(self, iri: Iri, kind: str = "entity"):
        super().__init__(str(iri))
        self.iri = iri
        self.kind = kind

    def __str__(self) -> str:  # KeyError's own quotes the key
        return f"no {self.kind} {self.iri} in the graph"


class SourceStats(NamedTuple):
    """One row of corpus statistics (per source, or the totals row)."""

    label: str
    n_simulacra: int
    n_rcs: int
    n_contexts: int
    n_simulations: int
    n_triples: int


class CorpusStats(NamedTuple):
    rows: tuple[SourceStats, ...]
    total: SourceStats


_RC_RANK = {rel: i for i, rel in enumerate(RcRelation)}

_NO_MEMBERS: dict[Iri, None] = {}  # what an index lookup misses with; never filled


def _increasing(group: Sequence) -> bool:
    return len(group) < 2 or all(map(lt, group, group[1:]))


def _in_store_order(s: Simulation[Iri]) -> bool:
    """Whether every member group of ``s`` is strictly increasing in store
    order, which also means that no group holds a duplicate."""
    rcs = s.reality_counterparts
    return (
        _increasing(s.simulacra)
        and (len(rcs) < 2 or _increasing([(_RC_RANK[rel], rc) for rel, rc in rcs]))
        and _increasing(s.contexts)
        and _increasing(s.sources)
    )


def statement_block(
    sim: Simulation[Iri] | None, entity: Entity | None, roles: Iterable[Role], variants: set[Iri] | None,
    extra: Extra | None = None,
) -> Block:
    """The one definition of a subject's statements, which export renders,
    ``graph_triples`` flattens and ``stats`` sizes.  ``roles`` are the
    entity's, from :meth:`Graph.roles_of`.  Stored members are already
    sorted, and only the type is held by two stores; ``extra`` is merged
    in, so an extra triple that repeats a stored one is held once."""
    preds: Block
    if entity is None:
        preds = [(RDF_TYPE, [sim.kind.schema_iri])] if sim is not None else []
    else:
        types = [role.schema_iri for role in roles]
        if sim is not None:
            types.append(sim.kind.schema_iri)
        preds = [(RDF_TYPE, sorted(types))] if types else []
        preds.append((RDFS_LABEL, [Literal(entity.label)]))
    if sim is not None:
        if sim.simulacra:
            preds.append((SIM_HAS_SIMULACRUM, sim.simulacra))
        by_relation: dict[Iri, list[Iri]] = {}  # keeps the stored relation order
        for rel, rc in sim.reality_counterparts:
            by_relation.setdefault(rel.schema_iri, []).append(rc)
        preds.extend(by_relation.items())
        if sim.contexts:
            preds.append((SIM_HAS_CONTEXT, sim.contexts))
        if sim.sources:
            preds.append((PROV_WAS_DERIVED_FROM, sim.sources))
    if variants:
        preds.append((SIM_HAS_VARIANT, sorted(variants)))
    if entity is not None and entity.external_links:
        preds.append((OWL_SAME_AS, sorted(entity.external_links)))
    if extra:
        merged = dict(preds)
        for p, objects in extra.items():
            merged[p] = sorted(objects.union(merged.get(p, ())), key=_object_sort_key)
        preds = sorted(merged.items(), key=lambda po: (_PREDICATE_RANK.get(po[0], len(_PREDICATE_ORDER)), po[0]))
    return preds


def strongly_connected_components(children: Mapping[Iri, Iterable[Iri]]) -> list[tuple[list[Iri], bool]]:
    """The strongly connected components of the links ``base -> children[base]``,
    each one after every component it reaches, by one iterative pass of
    Tarjan's algorithm (Tarjan 1972).  Each comes with whether it is a
    cycle: it has more than one node, or its node links to itself."""
    index: dict[Iri, int] = {}
    low: dict[Iri, int] = {}
    stack: list[Iri] = []
    on_stack: set[Iri] = set()
    components: list[tuple[list[Iri], bool]] = []
    for root in children:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(children[root]))]
        while work:
            node, pending = work[-1]
            for child in pending:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(children.get(child, ()))))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = [stack.pop()]
                    while component[-1] != node:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    components.append((component, len(component) > 1 or node in children.get(node, ())))
    return components


def _object_sort_key(o: Union[Iri, Literal]):
    if isinstance(o, Literal):
        return (1, o.text, o.lang or "")
    return (0, str(o), "")


def _size(block: Block) -> int:
    return sum([len(objects) for _, objects in block])


class Graph:
    """Entities, simulations and variants, with derived meaning edges.

    Each fact is stored once: a stored simulation holds its members' IRIs
    (``Simulation[Iri]``), an entity lives only in ``entities``, and the
    meaning and variant relations live only in their indexes, which also
    imply members' roles; :meth:`state_role` stores only roles they do not.
    """

    def __init__(self) -> None:
        self.entities: dict[Iri, Entity] = {}
        self.simulations: dict[Iri, Simulation[Iri]] = {}
        # Triples outside the schema, preserved for re-export; this includes
        # the extra kinds of a simulation typed with more than one.
        self.extra_triples: set[Triple] = set()

        self._variant_children: dict[Iri, set[Iri]] = defaultdict(set)
        # Each variant closure a read asked for, as a sorted tuple; a new
        # variant link empties it, and nothing else changes a closure.
        self._closures: dict[Iri, tuple[Iri, ...]] = {}
        # Each meaning walk a read asked for through variants or repeated
        # hops, by (start, include_variants, repeat), as a sorted tuple; it
        # reads only the variant and meaning indexes, so a new variant link
        # or meaning pair empties it.
        self._walks: dict[tuple[Iri, bool, bool], tuple[Iri, ...]] = {}
        # The membership and meaning indexes are ordered sets: dicts whose
        # keys keep store order.  import_turtle stores simulations in IRI
        # order, so on a loaded graph a membership index lists them sorted,
        # and run_cq sorts what a question reads from one in linear time.
        self._sims_by_simulacrum: dict[Iri, dict[Iri, None]] = defaultdict(dict)
        self._sims_by_rc: dict[Iri, dict[Iri, None]] = defaultdict(dict)
        self._sims_by_context: dict[Iri, dict[Iri, None]] = defaultdict(dict)
        self._sims_by_source: dict[Iri, dict[Iri, None]] = defaultdict(dict)
        self._meanings_of: dict[Iri, dict[Iri, None]] = defaultdict(dict)
        indexes = self._sims_by_simulacrum, self._sims_by_rc, self._sims_by_context, self._sims_by_source
        self._index_of_role = dict(zip(Role, indexes))  # Role lists the four positions in this order
        self._stated_roles: dict[Iri, set[Role]] = {}  # only roles no membership implies

    @property
    def variant_edges(self) -> set[tuple[Iri, Iri]]:
        """Every base -> variant link, read from the variant index."""
        return {(base, v) for base, variants in self._variant_children.items() for v in variants}

    # -- entities ---------------------------------------------------------

    def upsert_entity(self, e: Entity) -> Entity:
        """Merge an entity into the store by IRI: external links union,
        label resolved order-independently.  Returns the stored entity.
        Stored simulations hold IRIs, so none of them changes."""
        current = self.entities.setdefault(e.id, e)
        if current is e or (e.external_links <= current.external_links and current.label <= e.label):
            return current
        label = min(current.label, e.label)  # independent of arrival order
        merged = self.entities[e.id] = Entity(e.id, label, current.external_links | e.external_links)
        return merged

    def roles_of(self, iri: Iri) -> set[Role]:
        """The roles its memberships imply, plus any stated without one."""
        roles = {role for role, index in self._index_of_role.items() if iri in index}
        return roles | self._stated_roles[iri] if iri in self._stated_roles else roles

    def state_role(self, iri: Iri, role: Role) -> None:
        """Give an entity a role with no membership behind it, such as a
        dictionary variant with no simulation of its own.  An implied role
        is not stored, and a later membership drops the role it implies."""
        if iri not in self.entities:
            raise UnknownEntityError(iri)
        if iri not in self._index_of_role[role]:
            self._stated_roles.setdefault(iri, set()).add(role)

    def entity(self, ref: Union[Entity, Iri, str]) -> Entity:
        iri = ref.id if isinstance(ref, Entity) else Iri(ref)
        try:
            return self.entities[iri]
        except KeyError:
            raise UnknownEntityError(iri) from None

    # -- simulations ------------------------------------------------------

    def insert_simulation(self, s: Simulation[Entity]) -> Simulation[Iri]:
        """Insert or merge a simulation; returns the stored value, which
        holds member IRIs; each member entity is merged into ``entities``.

        A simulation with the same id absorbs the incoming contexts,
        reality counterparts and sources.  When the kinds differ, the kind
        lowest by ``SimulationKind.value`` is stored and the other one is
        kept as an extra ``rdf:type`` triple, so the result does not depend
        on arrival order; ``validate.kind_conflict_violations`` reports it.
        """
        for e in s.members():
            self.upsert_entity(e)
        # tuple() of a list comprehension: faster than of a generator
        return self._store(
            Simulation(
                s.id,
                s.kind,
                tuple([e.id for e in s.simulacra]),
                tuple([(rel, e.id) for rel, e in s.reality_counterparts]),
                tuple([e.id for e in s.contexts]),
                tuple([e.id for e in s.sources]),
            )
        )

    def _store(self, s: Simulation[Iri]) -> Simulation[Iri]:
        """Merge ``s`` into ``simulations`` and the indexes; the caller adds its
        member entities.  Members are deduplicated and ordered independently
        of arrival: IRIs sorted, counterparts by relation rank, then IRI.

        A new simulation whose member groups are already strictly increasing
        in that order, as the exporter writes them, is stored as given: one
        pass of comparisons shows it is sorted and holds no duplicate.  A
        merge, or members in any other order, are set-and-sorted."""
        old = self.simulations.get(s.id)
        if old is None and _in_store_order(s):
            stored = self.simulations[s.id] = s
        else:
            kind, old = s.kind, old or s  # a new one merges with itself
            if old.kind is not kind:
                kind, other = sorted((old.kind, kind), key=lambda k: k.value)
                self.extra_triples.add((s.id, RDF_TYPE, other.schema_iri))
            stored = self.simulations[s.id] = Simulation(
                s.id,
                kind,
                tuple(sorted({*old.simulacra, *s.simulacra})),
                tuple(sorted({*old.reality_counterparts, *s.reality_counterparts}, key=lambda p: (_RC_RANK[p[0]], p[1]))),
                tuple(sorted({*old.contexts, *s.contexts})),
                tuple(sorted({*old.sources, *s.sources})),
            )
        for a in stored.simulacra:
            self._sims_by_simulacrum[a][stored.id] = None
        for _, rc in stored.reality_counterparts:
            self._sims_by_rc[rc][stored.id] = None
        for c in stored.contexts:
            self._sims_by_context[c][stored.id] = None
        for src in stored.sources:
            self._sims_by_source[src][stored.id] = None
        walks = self._walks  # checked only while it holds a walk, so a load pays one test a pair
        for a in stored.simulacra:
            held = self._meanings_of[a]
            for _, rc in stored.reality_counterparts:
                if walks and rc not in held:
                    walks.clear()
                held[rc] = None
        for m in stored.members() if self._stated_roles else ():  # drop what a membership now implies
            if left := {role for role in self._stated_roles.pop(m, ()) if m not in self._index_of_role[role]}:
                self._stated_roles[m] = left
        return stored

    # -- variants ---------------------------------------------------------

    def add_variant(self, base: Entity, variant: Entity) -> VariantLink:
        """Record base -> variant; refuses any link that closes a cycle."""
        link = VariantLink(base, variant)  # rejects self-loops
        if base.id in self._walk_variants(variant.id):  # not kept: the link below would drop it
            raise CycleError(f"variant link {base.id} -> {variant.id} closes a cycle")
        self.upsert_entity(base)
        self.upsert_entity(variant)
        self._add_variant_edge(base.id, variant.id)
        return link

    def _top_down(self, links: list[VariantLink]) -> list[VariantLink]:
        """``links`` in the one order that adds them: each link whose base is on
        a cycle of these and the stored links first, as given, then the rest
        top-down.  Only a link with both ends on one cycle can be refused, and
        any path back from its variant runs through the first part, so the
        same links are refused as in file order, while each walk stays short."""
        if not links:
            return links
        children = {base: set(variants) for base, variants in self._variant_children.items()}
        for base, variant in links:
            children.setdefault(base.id, set()).add(variant.id)
        components = strongly_connected_components(children)
        # above everything it reaches; a node on a cycle, above every component
        height = {node: len(components) if cycle else i for i, (c, cycle) in enumerate(components) for node in c}
        return sorted(links, key=lambda link: -height[link.base.id])

    def _add_variant_edge(self, base: Iri, variant: Iri) -> None:
        self._variant_children[base].add(variant)
        if self._closures:
            self._closures.clear()
        if self._walks:
            self._walks.clear()

    def variant_closure(self, ref: Union[Entity, Iri, str]) -> set[Entity]:
        """All transitive variants of an entity (the entity itself excluded)."""
        return {self.entities[i] for i in self._variant_iris(self.entity(ref).id)}

    def _variant_iris(self, root: Iri) -> tuple[Iri, ...]:
        """The IRIs of :meth:`variant_closure`, sorted, for queries that need
        no entity.  A closure is walked once and kept until the next variant
        link: the variant chains of a dictionary run to hundreds of links."""
        found = self._closures.get(root)
        if found is None:
            found = self._closures[root] = tuple(sorted(self._walk_variants(root)))
        return found

    def _walk_variants(self, root: Iri) -> set[Iri]:
        """The variant closure of ``root`` by a fresh walk."""
        found: set[Iri] = set()
        stack = [root]
        while stack:
            for child in self._variant_children.get(stack.pop(), ()):
                if child not in found:
                    found.add(child)
                    stack.append(child)
        found.discard(root)  # reached again only through a cycle in an imported file
        return found

    def _reachable_meanings(self, start: Iri, include_variants: bool = False, repeat: bool = False) -> tuple[Iri, ...]:
        """The IRIs of the meanings reached from ``start`` through its
        simulations, sorted: what ``query.symbolic_meanings`` returns as
        entities, and Q3.2 and ``analysis.color_distribution`` read.

        ``include_variants`` starts from the variant closure too, and
        ``repeat`` goes on through meanings that are simulacra in turn.
        Such a walk is kept until a variant link or a new meaning pair; a
        single hop is one index lookup and is not kept."""
        if not (include_variants or repeat):
            return tuple(sorted(self._meanings_of.get(start, ())))
        key = (start, include_variants, repeat)
        found = self._walks.get(key)
        if found is None:
            meanings = self._meanings_of.get  # one C call a node, and a miss allocates nothing
            frontier = {start, *self._variant_iris(start)} if include_variants else {start}
            reached: set[Iri] = set()
            while frontier:
                frontier = set().union(*[meanings(i, ()) for i in frontier]) - reached
                reached |= frontier
                if not repeat:
                    break
            found = self._walks[key] = tuple(sorted(reached))
        return found

    # -- queries used across modules ---------------------------------------
    # Each returns a read-only, set-like view of an index, in store order.

    def simulations_with_simulacrum(self, iri: Iri) -> KeysView[Iri]:
        return self._sims_by_simulacrum.get(iri, _NO_MEMBERS).keys()

    def simulations_with_rc(self, iri: Iri) -> KeysView[Iri]:
        return self._sims_by_rc.get(iri, _NO_MEMBERS).keys()

    def simulations_with_context(self, iri: Iri) -> KeysView[Iri]:
        return self._sims_by_context.get(iri, _NO_MEMBERS).keys()

    def meanings_of(self, iri: Iri) -> KeysView[Iri]:
        return self._meanings_of.get(iri, _NO_MEMBERS).keys()

    # -- statements and statistics -----------------------------------------

    def blocks(self) -> Iterator[tuple[Iri, Block]]:
        """Every subject with its :func:`statement_block`, in IRI order."""
        extras = self._extras_by_subject()
        subjects = self.simulations.keys() | self.entities.keys() | self._variant_children.keys() | extras.keys()
        for subject in sorted(subjects):
            yield subject, self._block(subject, extras.get(subject))

    def _block(self, subject: Iri, extra: Extra | None = None) -> Block:
        entity = self.entities.get(subject)
        roles = self.roles_of(subject) if entity is not None else ()
        return statement_block(self.simulations.get(subject), entity, roles, self._variant_children.get(subject), extra)

    def _added_extras(self) -> set[Triple]:
        """The extra triples that their subject's stored block does not
        already state: what ``extra_triples`` adds to the graph."""
        stated = {s: dict(self._block(s)) for s in {s for s, _, _ in self.extra_triples}}
        return {(s, p, o) for s, p, o in self.extra_triples if o not in stated[s].get(p, ())}

    def _extras_by_subject(self) -> dict[Iri, Extra]:
        extras: dict[Iri, Extra] = {}
        for s, p, o in self.extra_triples:
            extras.setdefault(s, {}).setdefault(p, set()).add(o)
        return extras

    def stats(self) -> CorpusStats:
        """Distinct element counts per source plus a deduplicated totals row.

        ``n_triples`` adds up :func:`statement_block` sizes; a stored block's
        simulation, entity and variant parts share no statement, so each is
        sized once.  A source's row counts its simulations, their members and
        the variant links among those; the totals row, what export writes."""
        sim_size = {i: _size(statement_block(s, None, (), None)) for i, s in self.simulations.items()}
        entity_size = {i: _size(statement_block(None, e, self.roles_of(i), None)) for i, e in self.entities.items()}
        rows = []
        for src in sorted(self._sims_by_source, key=lambda i: (self.entities[i].label, i)):
            sims = [self.simulations[i] for i in self._sims_by_source[src]]
            simulacra, rcs, contexts, sources = set(), set(), set(), set()
            for s in sims:
                simulacra.update(s.simulacra)
                rcs.update([rc for _, rc in s.reality_counterparts])
                contexts.update(s.contexts)
                sources.update(s.sources)
            members = simulacra | rcs | contexts | sources
            links = sum([len(vs & members) for b, vs in self._variant_children.items() if b in members])
            n_triples = sum([sim_size[s.id] for s in sims]) + sum([entity_size[m] for m in members]) + links
            label = self.entities[src].label
            rows.append(SourceStats(label, len(simulacra), len(rcs), len(contexts), len(sims), n_triples))
        variant_links = sum(map(len, self._variant_children.values()))
        n_triples = sum(sim_size.values()) + sum(entity_size.values()) + variant_links + len(self._added_extras())
        counts = len(self._sims_by_simulacrum), len(self._sims_by_rc), len(self._sims_by_context), len(self.simulations)
        return CorpusStats(rows=tuple(rows), total=SourceStats("Total", *counts, n_triples))

    # -- equality -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # Members are IRIs in a canonical order, so equal simulations hold
        # equal member tuples.  An extra triple that repeats a stored
        # statement is exported once and re-imported as stored, so it makes
        # no difference.
        return (
            self.entities == other.entities
            and self.simulations == other.simulations
            and self._variant_children == other._variant_children
            and self._stated_roles == other._stated_roles
            and self._added_extras() == other._added_extras()
        )

    def __repr__(self) -> str:
        return (
            f"Graph(entities={len(self.entities)}, simulations={len(self.simulations)}, "
            f"variants={len(self.variant_edges)})"
        )
