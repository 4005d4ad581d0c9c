"""Closed-world checks over a graph.

Unmet existential restrictions (a simulation without a source, without a
context, ...) are reported as violations instead of being treated as
inferable unknowns.  Graphs built exclusively through the validating
constructor never produce violations; the checks exist for data loaded
from files.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import KIND_BY_CLASS, RDF_TYPE, Graph, strongly_connected_components
from .model import Axiom, Iri, Role, cardinality_violations


class Violation(NamedTuple):
    axiom: Axiom
    subject: Iri
    detail: str


def check_axioms(g: Graph) -> list[Violation]:
    """Run every structural check; returns violations sorted by subject
    then axiom name.  Read-only: the graph is left untouched."""
    found: list[Violation] = []
    for sim in g.simulations.values():
        for axiom, detail in cardinality_violations(sim):
            found.append(Violation(axiom, sim.id, detail))

    for component, cycle in strongly_connected_components(g._variant_children):
        if cycle:
            detail = "entity lies on a cycle of the variant relation"
            found.extend(Violation(Axiom.VARIANT_CYCLE, node, detail) for node in component)

    # Each path that stores a member or a variant end also makes its entity;
    # only a stated role can sit on an entity no simulation or link backs.
    linked = set().union(*g._index_of_role.values(), g._variant_children, *g._variant_children.values())
    symbol_roles = {Role.SIMULACRUM, Role.REALITY_COUNTERPART}
    for iri, roles in g._stated_roles.items():
        if roles & symbol_roles and iri not in linked:
            found.append(
                Violation(Axiom.DANGLING_ENTITY, iri, "simulacrum/reality-counterpart not linked to any simulation or variant")
            )

    found.extend(kind_conflict_violations(g))

    found.sort(key=lambda v: (v.subject, v.axiom.value, v.detail))
    return found


def kind_conflict_violations(g: Graph) -> list[Violation]:
    """One violation per simulation typed with more than one kind, in IRI
    order: the stored kind and the lowest other one, read from the extra
    ``rdf:type`` triples."""
    others: dict[Iri, list[str]] = {}  # simulation -> the names of its other kinds
    for s, p, o in g.extra_triples:
        kind = KIND_BY_CLASS.get(o) if p == RDF_TYPE and s in g.simulations else None
        if kind is not None and kind is not g.simulations[s].kind:
            others.setdefault(s, []).append(kind.value)
    return [
        Violation(Axiom.KIND_CONFLICT, s, f"typed both {g.simulations[s].kind.value} and {min(names)}")
        for s, names in sorted(others.items())
    ]
