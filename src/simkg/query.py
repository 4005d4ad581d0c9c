"""Typed competency-question queries plus the meaning path query.

Each question is declared once, on its evaluator: the bindings it needs
and the columns of its rows.  ``run_cq`` checks every binding against the
graph, then deduplicates the evaluator's values in arrival order and
sorts them, so results are stable across insertion orders.  Evaluators
read the graph's indexes in store order, which on a loaded graph is IRI
order, so their values mostly arrive sorted and sort in linear time.  A
row is the tuple of its values; its question's row class holds the
column names.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Mapping, Optional, Union

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

    # run_cq looks each question up once, in _QUESTIONS; the identity hash
    # agrees with Enum equality and skips Enum.__hash__.
    __hash__ = object.__hash__


class MissingBindingError(ValueError):
    def __init__(self, cq: CqId, missing: Iterable[str]):
        names = ", ".join(sorted(missing))
        super().__init__(f"{cq.value} requires bindings: {names}")
        self.cq = cq


class ResultRow(tuple):
    """One result row: its values, in the order of ``variables``.

    ``row["rc"]`` reads a value by its variable name, and any other key
    indexes the tuple.  Rows are tuples, so two rows of different questions
    that hold the same values compare equal.
    """

    __slots__ = ()
    variables: tuple[str, ...] = ()

    def values(self) -> tuple[Iri, ...]:
        return tuple(self)

    def __getitem__(self, key):
        if not isinstance(key, str):
            return tuple.__getitem__(self, key)
        try:
            return tuple.__getitem__(self, self.variables.index(key))
        except ValueError:
            raise KeyError(key) from None


# Each question's required bindings, row class and evaluator, which yields
# values that may repeat, in any order: bare IRIs for one column, else tuples.
_QUESTIONS: dict[CqId, tuple[tuple[str, ...], type[ResultRow], Callable[..., Iterable]]] = {}


def _cq(cq: CqId, bind: tuple[str, ...], columns: tuple[str, ...]):
    """Declare ``cq`` with the decorated evaluator."""

    def declare(evaluate):
        name = f"{cq.name}Row"
        # a module attribute, so that pickle finds the row class by name
        row = globals()[name] = type(name, (ResultRow,), {"__slots__": (), "variables": columns})
        _QUESTIONS[cq] = (bind, row, evaluate)
        return evaluate

    return declare


def run_cq(g: Graph, cq: CqId, bindings: Optional[Mapping[str, Union[Iri, str]]] = None) -> list[ResultRow]:
    """Answer one competency question against the graph.

    A binding named ``simulation`` must name a simulation of the graph, and
    any other binding an entity; otherwise this raises UnknownEntityError.
    """
    needs, row, evaluate = _QUESTIONS[cq]
    bound = {k: Iri(v) for k, v in (bindings or {}).items()}
    missing = [name for name in needs if name not in bound]
    if missing:
        raise MissingBindingError(cq, missing)
    for name in needs:
        if name == "simulation":
            if bound[name] not in g.simulations:
                raise UnknownEntityError(bound[name], "simulation")
        elif bound[name] not in g.entities:
            raise UnknownEntityError(bound[name])
    values = sorted(dict.fromkeys(evaluate(g, bound)))
    return list(map(row, zip(values) if len(row.variables) == 1 else values))


@_cq(CqId.Q1_1, bind=("simulacrum",), columns=("rc",))
def _meanings_of_simulacrum(g: Graph, b) -> Iterable[Iri]:
    return g.meanings_of(b["simulacrum"])


@_cq(CqId.Q1_2, bind=("context",), columns=("simulation",))
def _simulations_in_context(g: Graph, b) -> Iterable[Iri]:
    return g.simulations_with_context(b["context"])


@_cq(CqId.Q1_3, bind=("entity",), columns=("simulation",))
def _simulations_of_entity(g: Graph, b) -> Iterable[Iri]:
    return [*g.simulations_with_simulacrum(b["entity"]), *g.simulations_with_rc(b["entity"])]  # two sorted runs


@_cq(CqId.Q1_4, bind=("rc",), columns=("simulacrum", "context"))
def _simulacra_sharing_rc(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    pairs = []
    for sim_id in g.simulations_with_rc(b["rc"]):
        sim = g.simulations[sim_id]
        for a in sim.simulacra:
            for c in sim.contexts:
                pairs.append((a, c))
    return pairs


@_cq(CqId.Q1_5, bind=(), columns=("simulation",))
def _multi_simulacrum_simulations(g: Graph, b) -> Iterable[Iri]:
    return [s.id for s in g.simulations.values() if len(s.simulacra) > 1]


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


@_cq(CqId.Q2_1, bind=("simulacrum",), columns=("simulation", "rc", "source"))
def _simulacrum_across_sources(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    return _same_simulacrum_rows(g, b["simulacrum"])


@_cq(CqId.Q2_2, bind=(), columns=("simulation", "rc", "source"))
def _simulacra_across_sources(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    rows: list[tuple[Iri, Iri, Iri]] = []
    for simulacrum in g._sims_by_simulacrum:
        rows.extend(_same_simulacrum_rows(g, simulacrum))
    return rows


@_cq(CqId.Q2_3, bind=("simulation",), columns=("source",))
def _sources_of_simulation(g: Graph, b) -> Iterable[Iri]:
    return g.simulations[b["simulation"]].sources


@_cq(CqId.Q2_4, bind=(), columns=("simulation",))
def _unsourced_simulations(g: Graph, b) -> Iterable[Iri]:
    return [s.id for s in g.simulations.values() if not s.sources]


@_cq(CqId.Q3_1, bind=("entity",), columns=("variant",))
def _variants_of_entity(g: Graph, b) -> Iterable[Iri]:
    return g._variant_iris(b["entity"])


@_cq(CqId.Q3_2, bind=("simulacrum",), columns=("rc",))
def _meanings_with_variants(g: Graph, b) -> Iterable[Iri]:
    return g._reachable_meanings(b["simulacrum"], include_variants=True)


@_cq(CqId.Q3_3, bind=(), columns=("simulation", "rc"))
def _prevented_rcs(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    rows = []
    for sim in g.simulations.values():
        if sim.kind is SimulationKind.PROTECTION:
            for rel, rc in sim.reality_counterparts:
                if rel is RcRelation.PREVENTED:
                    rows.append((sim.id, rc))
    return rows


@_cq(CqId.Q3_4, bind=("rc",), columns=("simulation", "rc", "relation"))
def _rcs_beside_rc(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
    rows = []
    for sim_id in g.simulations_with_rc(b["rc"]):
        sim = g.simulations[sim_id]
        if len({e for _, e in sim.reality_counterparts}) < 2:
            continue
        for rel, e in sim.reality_counterparts:
            rows.append((sim.id, e, rel.schema_iri))
    return rows


@_cq(CqId.Q3_5, bind=(), columns=("simulation", "simulacrum", "context", "rc"))
def _healings(g: Graph, b) -> Iterable[tuple[Iri, ...]]:
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


# The columns of each question's rows, in column order.
RESULT_VARIABLES: dict[CqId, tuple[str, ...]] = {cq: row.variables for cq, (_, row, _) in _QUESTIONS.items()}


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
    return {g.entities[i] for i in g._reachable_meanings(g.entity(entity).id, include_variants, repeat)}
