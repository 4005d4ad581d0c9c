"""Typed competency-question queries plus the meaning path query.

Each query id maps to a fixed result shape; rows are deduplicated and
sorted by their value tuple so results are stable across insertion orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Union

from .graph import Graph, UnknownEntityError
from .model import Entity, Iri, RcRelation, SimulationKind


class CqId(Enum):
    Q1_1 = "Q1.1"
    Q1_2 = "Q1.2"
    Q1_3 = "Q1.3"
    Q1_4 = "Q1.4"
    Q1_5 = "Q1.5"
    Q2_1 = "Q2.1"
    Q2_2 = "Q2.2"
    Q2_3 = "Q2.3"
    Q2_4 = "Q2.4"
    Q3_1 = "Q3.1"
    Q3_2 = "Q3.2"
    Q3_3 = "Q3.3"
    Q3_4 = "Q3.4"
    Q3_5 = "Q3.5"

    # Each question is looked up in three tables per run_cq; the identity
    # hash agrees with Enum equality and skips Enum.__hash__.
    __hash__ = object.__hash__


REQUIRED_BINDINGS: dict[CqId, tuple[str, ...]] = {
    CqId.Q1_1: ("simulacrum",),
    CqId.Q1_2: ("context",),
    CqId.Q1_3: ("entity",),
    CqId.Q1_4: ("rc",),
    CqId.Q1_5: (),
    CqId.Q2_1: ("simulacrum",),
    CqId.Q2_2: (),
    CqId.Q2_3: ("simulation",),
    CqId.Q2_4: (),
    CqId.Q3_1: ("entity",),
    CqId.Q3_2: ("simulacrum",),
    CqId.Q3_3: (),
    CqId.Q3_4: ("rc",),
    CqId.Q3_5: (),
}


# The variables of each question's result rows, in column order.
RESULT_VARIABLES: dict[CqId, tuple[str, ...]] = {
    CqId.Q1_1: ("rc",),
    CqId.Q1_2: ("simulation",),
    CqId.Q1_3: ("simulation",),
    CqId.Q1_4: ("simulacrum", "context"),
    CqId.Q1_5: ("simulation",),
    CqId.Q2_1: ("simulation", "rc", "source"),
    CqId.Q2_2: ("simulation", "rc", "source"),
    CqId.Q2_3: ("source",),
    CqId.Q2_4: ("simulation",),
    CqId.Q3_1: ("variant",),
    CqId.Q3_2: ("rc",),
    CqId.Q3_3: ("simulation", "rc"),
    CqId.Q3_4: ("simulation", "rc", "relation"),
    CqId.Q3_5: ("simulation", "simulacrum", "context", "rc"),
}


class MissingBindingError(ValueError):
    def __init__(self, cq: CqId, missing: Iterable[str]):
        names = ", ".join(sorted(missing))
        super().__init__(f"{cq.value} requires bindings: {names}")
        self.cq = cq


@dataclass(frozen=True, slots=True)
class ResultRow:
    """Ordered variable bindings of one result row."""

    bindings: tuple[tuple[str, Iri], ...]

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.bindings)

    def values(self) -> tuple[Iri, ...]:
        return tuple(value for _, value in self.bindings)

    def __getitem__(self, variable: str) -> Iri:
        for name, value in self.bindings:
            if name == variable:
                return value
        raise KeyError(variable)


def _rows(cq: CqId, value_tuples: Iterable[tuple[Iri, ...]]) -> list[ResultRow]:
    variables = RESULT_VARIABLES[cq]
    distinct = sorted(set(value_tuples))
    return [ResultRow(tuple(zip(variables, values))) for values in distinct]


def run_cq(g: Graph, cq: CqId, bindings: Optional[Mapping[str, Union[Iri, str]]] = None) -> list[ResultRow]:
    """Answer one competency question against the graph."""
    bound = {k: Iri(v) for k, v in (bindings or {}).items()}
    missing = [name for name in REQUIRED_BINDINGS[cq] if name not in bound]
    if missing:
        raise MissingBindingError(cq, missing)
    return _rows(cq, _DISPATCH[cq](g, bound))


def _require_entity(g: Graph, iri: Iri) -> Iri:
    if iri not in g.entities:
        raise UnknownEntityError(iri)
    return iri


def _require_simulation(g: Graph, iri: Iri) -> Iri:
    if iri not in g.simulations:
        raise UnknownEntityError(iri)
    return iri


def _q1_1(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    s = _require_entity(g, b["simulacrum"])
    return ((rc,) for rc in g.meanings_of(s))


def _q1_2(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    c = _require_entity(g, b["context"])
    return ((i,) for i in g.simulations_with_context(c))


def _q1_3(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    e = _require_entity(g, b["entity"])
    ids = g.simulations_with_simulacrum(e) | g.simulations_with_rc(e)
    return ((i,) for i in ids)


def _q1_4(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    rc = _require_entity(g, b["rc"])
    pairs = []
    for sim_id in g.simulations_with_rc(rc):
        sim = g.simulations[sim_id]
        for a in sim.simulacra:
            for c in sim.contexts:
                pairs.append((a, c))
    return pairs


def _q1_5(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    return ((s.id,) for s in g.simulations.values() if len(s.simulacra) > 1)


def _same_simulacrum_rows(g: Graph, simulacrum: Iri) -> list[tuple[Iri, Iri, Iri]]:
    sims = [g.simulations[i] for i in g.simulations_with_simulacrum(simulacrum)]
    sourced = [s for s in sims if s.sources]
    union_sources = {src for s in sourced for src in s.sources}
    if len(sourced) < 2 or len(union_sources) < 2:
        return []
    rows = []
    for sim in sourced:
        for _, rc in sim.reality_counterparts:
            for src in sim.sources:
                rows.append((sim.id, rc, src))
    return rows


def _q2_1(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    s = _require_entity(g, b["simulacrum"])
    return _same_simulacrum_rows(g, s)


def _q2_2(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    rows: list[tuple[Iri, Iri, Iri]] = []
    for simulacrum in g._sims_by_simulacrum:
        rows.extend(_same_simulacrum_rows(g, simulacrum))
    return rows


def _q2_3(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    sim = g.simulations[_require_simulation(g, b["simulation"])]
    return ((src,) for src in sim.sources)


def _q2_4(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    return ((s.id,) for s in g.simulations.values() if not s.sources)


def _q3_1(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    e = _require_entity(g, b["entity"])
    return ((v.id,) for v in g.variant_closure(e))


def _q3_2(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    s = _require_entity(g, b["simulacrum"])
    meanings = symbolic_meanings(g, s, include_variants=True)
    return ((m.id,) for m in meanings)


def _q3_3(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    rows = []
    for sim in g.simulations.values():
        if sim.kind is SimulationKind.PROTECTION:
            for rel, rc in sim.reality_counterparts:
                if rel is RcRelation.PREVENTED:
                    rows.append((sim.id, rc))
    return rows


def _q3_4(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    rc = _require_entity(g, b["rc"])
    rows = []
    for sim_id in g.simulations_with_rc(rc):
        sim = g.simulations[sim_id]
        if len({e for _, e in sim.reality_counterparts}) < 2:
            continue
        for rel, e in sim.reality_counterparts:
            rows.append((sim.id, e, rel.schema_iri))
    return rows


def _q3_5(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    rows = []
    for sim in g.simulations.values():
        if sim.kind is not SimulationKind.HEALING:
            continue
        healed = [rc for rel, rc in sim.reality_counterparts if rel is RcRelation.HEALED]
        for a in sim.simulacra:
            for c in sim.contexts:
                for rc in healed:
                    rows.append((sim.id, a, c, rc))
    return rows


_DISPATCH = {
    CqId.Q1_1: _q1_1,
    CqId.Q1_2: _q1_2,
    CqId.Q1_3: _q1_3,
    CqId.Q1_4: _q1_4,
    CqId.Q1_5: _q1_5,
    CqId.Q2_1: _q2_1,
    CqId.Q2_2: _q2_2,
    CqId.Q2_3: _q2_3,
    CqId.Q2_4: _q2_4,
    CqId.Q3_1: _q3_1,
    CqId.Q3_2: _q3_2,
    CqId.Q3_3: _q3_3,
    CqId.Q3_4: _q3_4,
    CqId.Q3_5: _q3_5,
}


def symbolic_meanings(
    g: Graph,
    entity: Union[Entity, Iri, str],
    include_variants: bool = False,
    repeat: bool = False,
) -> set[Entity]:
    """Meanings reachable from an entity through its simulations.

    ``include_variants`` widens the start set with the entity's variant
    closure.  ``repeat`` keeps traversing through reality counterparts that
    are themselves simulacra of further simulations (off by default: a
    single hop).
    """
    start = g.entity(entity)
    seeds = {start.id}
    if include_variants:
        seeds.update(v.id for v in g.variant_closure(start))
    found: set[Iri] = set()
    frontier = seeds
    while frontier:
        reached: set[Iri] = set()
        for iri in frontier:
            reached.update(g.meanings_of(iri))
        new = reached - found
        found |= new
        if not repeat:
            break
        frontier = new
    return {g.entities[i] for i in found}
