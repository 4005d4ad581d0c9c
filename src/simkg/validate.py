"""Closed-world checks over a graph.

Unmet existential restrictions (a simulation without a source, without a
context, ...) are reported as violations instead of being treated as
inferable unknowns.  Graphs built exclusively through the validating
constructor never produce violations; the checks exist for data loaded
from files.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .model import Axiom, Iri, RcRelation, Role, SimulationKind


@dataclass(frozen=True, slots=True)
class Violation:
    axiom: Axiom
    subject: Iri
    detail: str

    def as_text(self) -> str:
        return f"{self.axiom.value}\t{self.subject}\t{self.detail}"


def check_axioms(g: Graph) -> list[Violation]:
    """Run every structural check; returns violations sorted by subject
    then axiom name.  Read-only: the graph is left untouched."""
    found: list[Violation] = []
    participating: set[Iri] = set()

    for sim in g.simulations.values():
        participating.update(e.id for e in sim.member_entities())
        if len(sim.simulacra) != 1:
            found.append(
                Violation(
                    Axiom.SIMULACRUM_CARDINALITY,
                    sim.id,
                    f"expected exactly 1 simulacrum, found {len(sim.simulacra)}",
                )
            )
        if not sim.reality_counterparts:
            found.append(
                Violation(Axiom.MISSING_REALITY_COUNTERPART, sim.id, "no reality counterpart on this simulation")
            )
        if not sim.contexts:
            found.append(Violation(Axiom.MISSING_CONTEXT, sim.id, "no context on this simulation"))
        if not sim.sources:
            found.append(Violation(Axiom.MISSING_SOURCE, sim.id, "no source on this simulation"))
        if sim.kind is SimulationKind.HEALING:
            healed = sum(1 for rel, _ in sim.reality_counterparts if rel is RcRelation.HEALED)
            if healed != 1:
                found.append(
                    Violation(
                        Axiom.HEALING_CARDINALITY,
                        sim.id,
                        f"healing simulation has {healed} healed reality counterparts, expected 1",
                    )
                )
        if sim.kind is SimulationKind.PROTECTION:
            prevented = sum(1 for rel, _ in sim.reality_counterparts if rel is RcRelation.PREVENTED)
            if prevented != 1:
                found.append(
                    Violation(
                        Axiom.PROTECTION_CARDINALITY,
                        sim.id,
                        f"protection simulation has {prevented} prevented reality counterparts, expected 1",
                    )
                )
        for e in sim.member_entities():
            if e.id not in g.entities:
                found.append(Violation(Axiom.DANGLING_ENTITY, e.id, f"referenced by {sim.id} but not in the graph"))

    for base, variant in sorted(g.variant_edges):
        participating.add(base)
        participating.add(variant)
        for end in (base, variant):
            if end not in g.entities:
                found.append(
                    Violation(Axiom.DANGLING_ENTITY, end, f"variant link {base} -> {variant} references it")
                )

    for node in _nodes_on_variant_cycles(g):
        found.append(Violation(Axiom.VARIANT_CYCLE, node, "entity lies on a cycle of the variant relation"))

    symbol_roles = {Role.SIMULACRUM, Role.REALITY_COUNTERPART}
    for iri, entity in g.entities.items():
        if entity.roles & symbol_roles and iri not in participating:
            found.append(
                Violation(Axiom.DANGLING_ENTITY, iri, "simulacrum/reality-counterpart not linked to any simulation or variant")
            )

    found.extend(kind_conflict_violations(g))

    found.sort(key=lambda v: (v.subject, v.axiom.value, v.detail))
    return found


def kind_conflict_violations(g: Graph) -> list[Violation]:
    """One violation per simulation typed with more than one kind."""
    return [
        Violation(Axiom.KIND_CONFLICT, sim_id, f"typed both {kept.value} and {other.value}")
        for sim_id, (kept, other) in g.kind_conflicts.items()
    ]


def _nodes_on_variant_cycles(g: Graph) -> list[Iri]:
    """Nodes that can reach themselves through variant edges (includes
    self-loops, which only foreign data can contain), sorted.

    One iterative pass of Tarjan's strongly-connected-components algorithm
    (Tarjan 1972): a node is on a cycle when its component has more than
    one node or it links to itself.
    """
    children = g._variant_children
    index: dict[Iri, int] = {}
    low: dict[Iri, int] = {}
    stack: list[Iri] = []
    on_stack: set[Iri] = set()
    on_cycle: list[Iri] = []
    for root in sorted(children):
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
                    if len(component) > 1 or node in children.get(node, ()):
                        on_cycle.extend(component)
    return sorted(on_cycle)


def report_text(violations: list[Violation]) -> str:
    """Line-oriented rendering, one violation per line plus a summary."""
    lines = [v.as_text() for v in violations]
    lines.append(f"{len(violations)} violations" if len(violations) != 1 else "1 violation")
    return "\n".join(lines)
