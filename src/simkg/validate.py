"""Closed-world checks over a graph.

Unmet existential restrictions (a simulation without a source, without a
context, ...) are reported as violations instead of being treated as
inferable unknowns.  Graphs built exclusively through the validating
constructor never produce violations; the checks exist for data loaded
from files.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, strongly_connected_components
from .model import Axiom, Iri, Role, cardinality_violations


class Violation(NamedTuple):
    axiom: Axiom
    subject: Iri
    detail: str

    def as_text(self) -> str:
        return f"{self.axiom.value}\t{self.subject}\t{self.detail}"


def check_axioms(g: Graph) -> list[Violation]:
    """Run every structural check; returns violations sorted by subject
    then axiom name.  Read-only: the graph is left untouched."""
    found: list[Violation] = []
    for sim in g.simulations.values():
        for axiom, detail in cardinality_violations(sim):
            found.append(Violation(axiom, sim.id, detail))

    # the membership indexes hold every member; only a missing one needs
    # the walk that names each reference to it
    participating: set[Iri] = set().union(*g._index_of_role.values())
    if dangling := participating.difference(g.entities):
        for sim in g.simulations.values():
            for e in sim.members():
                if e in dangling:
                    found.append(Violation(Axiom.DANGLING_ENTITY, e, f"referenced by {sim.id} but not in the graph"))

    for base, variant in sorted(g.variant_edges):
        participating.add(base)
        participating.add(variant)
        for end in (base, variant):
            if end not in g.entities:
                found.append(
                    Violation(Axiom.DANGLING_ENTITY, end, f"variant link {base} -> {variant} references it")
                )

    for component, cycle in strongly_connected_components(g._variant_children):
        if cycle:
            detail = "entity lies on a cycle of the variant relation"
            found.extend(Violation(Axiom.VARIANT_CYCLE, node, detail) for node in component)

    # only a stated role can sit on an entity with no membership
    symbol_roles = {Role.SIMULACRUM, Role.REALITY_COUNTERPART}
    for iri, roles in g._stated_roles.items():
        if roles & symbol_roles and iri not in participating:
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


def report_text(violations: list[Violation]) -> str:
    """Line-oriented rendering, one violation per line plus a summary."""
    lines = [v.as_text() for v in violations]
    lines.append(f"{len(violations)} violations" if len(violations) != 1 else "1 violation")
    return "\n".join(lines)
