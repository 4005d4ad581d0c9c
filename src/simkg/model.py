"""Core domain types for the symbolism knowledge graph.

The central value is the :class:`Simulation`: an n-ary node that ties one
symbolic element (the simulacrum) to the meanings it stands for (its
reality counterparts) within one or more cultural contexts, backed by
documentary sources.  ``build_simulation`` is the validating constructor;
a value it returns satisfies every structural axiom.  The raw dataclasses
deliberately accept anomalous shapes so that data imported from foreign
files can be represented and then *reported* by the validator instead of
being rejected at the door.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Union

KB = "https://w3id.org/simulation/data/"
SIM = "https://w3id.org/simulation/ontology/"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
PROV = "http://www.w3.org/ns/prov#"

GENERAL_OR_UNKNOWN_LABEL = "General or Unknown"


class EmptyLabelError(ValueError):
    """A label was blank, or had no alphanumeric characters to mint from."""


class CardinalityError(ValueError):
    """A simulation breaks a structural axiom; carries the axiom name."""

    def __init__(self, axiom: "Axiom", detail: str):
        super().__init__(f"{axiom.value}: {detail}")
        self.axiom = axiom
        self.detail = detail


class CycleError(ValueError):
    """A variant link would make the variant relation cyclic."""


class Axiom(Enum):
    """Names of the closed-world checks a graph can violate."""

    MISSING_CONTEXT = "MissingContext"
    MISSING_REALITY_COUNTERPART = "MissingRealityCounterpart"
    SIMULACRUM_CARDINALITY = "SimulacrumCardinality"
    MISSING_SOURCE = "MissingSource"
    HEALING_CARDINALITY = "HealingCardinality"
    PROTECTION_CARDINALITY = "ProtectionCardinality"
    DANGLING_ENTITY = "DanglingEntity"
    VARIANT_CYCLE = "VariantCycle"
    KIND_CONFLICT = "KindConflict"


# One IRIREF character of W3C RDF 1.1 Turtle (https://www.w3.org/TR/turtle/),
# minus Unicode whitespace; \u escapes are not supported.  ``Iri`` and the
# Turtle reader share it, so every IRI the exporter writes reads back.
IRI_CHAR = r'[^\x00-\x20\s<>"{}|^`\\]'
_IRI_RE = re.compile(IRI_CHAR + "+")


class Iri(str):
    """An absolute IRI.  Behaves as a plain string plus namespace helpers."""

    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if not _IRI_RE.fullmatch(value):
            raise ValueError(f"not an IRI: {value!r} (empty, or has whitespace, a control character or one of <>\"{{}}|^`\\)")
        return super().__new__(cls, value)

    @property
    def local_name(self) -> str:
        for ns in (KB, SIM, PROV, OWL, RDF, RDFS):
            if self.startswith(ns):
                return self[len(ns):]
        cut = max(self.rfind("/"), self.rfind("#"))
        return self[cut + 1:]


class Role(Enum):
    """Positions an entity can occupy around simulations."""

    SIMULACRUM = "Simulacrum"
    REALITY_COUNTERPART = "RealityCounterpart"
    CONTEXT = "Context"
    SOURCE = "Source"

    # Members are singletons and equal only to themselves, so the identity
    # hash agrees with equality and skips Enum.__hash__, a Python-level call.
    __hash__ = object.__hash__

    @cached_property
    def schema_iri(self) -> Iri:
        return Iri(SIM + self.value)


class SimulationKind(Enum):
    """The generic simulation plus the nine specialized categories."""

    GENERIC = "Generic"
    ASSOCIATION = "Association"
    CORRESPONDENCE = "Correspondence"
    MANIFESTATION = "Manifestation"
    RELATEDNESS = "Relatedness"
    ATTRIBUTE = "Attribute"
    ALLUSION = "Allusion"
    PROTECTION = "Protection"
    EMBLEMATIC = "Emblematic"
    HEALING = "Healing"

    __hash__ = object.__hash__

    @cached_property
    def schema_iri(self) -> Iri:
        if self is SimulationKind.GENERIC:
            return Iri(SIM + "Simulation")
        return Iri(SIM + self.value + "Simulation")


class RcRelation(Enum):
    """How a reality counterpart is tied to its simulation.

    Every non-``HAS`` value is a sub-relation of ``HAS``: wherever the plain
    relation is queried, the specialized ones count too.
    """

    HAS = "hasRealityCounterpart"
    PREVENTED = "preventedRealityCounterpart"
    HEALED = "healedRealityCounterpart"
    RESTORED = "restoredRealityCounterpart"
    EASED = "easedRealityCounterpart"
    ELICITED = "elicitedRealityCounterpart"

    __hash__ = object.__hash__

    @cached_property
    def schema_iri(self) -> Iri:
        return Iri(SIM + self.value)


# Token separators for IRI minting: runs of anything that is neither a word
# character nor an apostrophe.  Apostrophes do not split a token ("Christ's"
# stays one word); they are stripped afterwards, like all other
# non-alphanumeric characters.  Underscores separate.
_TOKEN_SEP = re.compile(r"[^\w'’]+|_+")


@lru_cache(maxsize=65536)
def camel_case(label: str) -> str:
    """Collapse a human label into the camelCase local-name convention.

    Tokens are split on whitespace/punctuation, the first token is fully
    lowercased, each later token gets its first letter capitalized, and any
    character that is not a letter or digit is dropped.
    """
    parts: list[str] = []
    for raw in _TOKEN_SEP.split(label):
        token = "".join(ch for ch in raw if ch.isalnum())
        if not token:
            continue
        parts.append(token.lower() if not parts else token[0].upper() + token[1:])
    return "".join(parts)


def mint_iri(label: str, namespace: str = KB) -> Iri:
    """Deterministically mint an IRI for a label (same label, same IRI)."""
    if not label.strip():
        raise EmptyLabelError("label is empty or whitespace-only")
    local = camel_case(label)
    if not local:
        raise EmptyLabelError(f"label {label!r} has no alphanumeric characters")
    return Iri(namespace + local)


@dataclass(frozen=True, slots=True)
class Entity:
    """A named node: simulacrum, reality counterpart, context or source."""

    id: Iri
    label: str
    roles: frozenset[Role] = frozenset()
    external_links: frozenset[Iri] = frozenset()

    def with_roles(self, *roles: Role) -> "Entity":
        merged = self.roles.union(roles)
        if merged == self.roles:
            return self
        return replace(self, roles=merged)


def make_entity(
    label: str,
    *roles: Role,
    namespace: str = KB,
    links: Iterable[Union[Iri, str]] = (),
) -> Entity:
    """Mint an entity from its label; identity is the minted IRI."""
    return Entity(
        id=mint_iri(label, namespace),
        label=label,
        roles=frozenset(roles),
        external_links=frozenset(Iri(l) for l in links),
    )


def general_context() -> Entity:
    """The catch-all context used when a source states none."""
    return make_entity(GENERAL_OR_UNKNOWN_LABEL, Role.CONTEXT)


RcPair = tuple[RcRelation, Entity]


@dataclass(frozen=True, slots=True)
class Simulation:
    """The n-ary relation node.

    ``simulacra`` holds exactly one entity for any value produced by
    ``build_simulation``; imported data may disagree, and the validator
    reports that as a cardinality violation rather than this type refusing
    to represent it.
    """

    id: Iri
    kind: SimulationKind
    simulacra: tuple[Entity, ...]
    reality_counterparts: tuple[RcPair, ...]
    contexts: tuple[Entity, ...]
    sources: tuple[Entity, ...]

    @property
    def simulacrum(self) -> Optional[Entity]:
        return self.simulacra[0] if self.simulacra else None

    def member_entities(self) -> Iterable[Entity]:
        yield from self.simulacra
        for _, e in self.reality_counterparts:
            yield e
        yield from self.contexts
        yield from self.sources


@dataclass(frozen=True, slots=True)
class VariantLink:
    """A narrower / composite / situated form of a simulacrum or rc."""

    base: Entity
    variant: Entity

    def __post_init__(self) -> None:
        if self.base.id == self.variant.id:
            raise CycleError(f"variant link may not be reflexive: {self.base.id}")


def _dedupe_entities(entities: Iterable[Entity]) -> tuple[Entity, ...]:
    seen: dict[Iri, Entity] = {}
    for e in entities:
        seen.setdefault(e.id, e)
    return tuple(seen.values())


def _dedupe_rcs(pairs: Iterable[RcPair]) -> tuple[RcPair, ...]:
    seen: set[tuple[RcRelation, Iri]] = set()
    out: list[RcPair] = []
    for rel, e in pairs:
        key = (rel, e.id)
        if key not in seen:
            seen.add(key)
            out.append((rel, e))
    return tuple(out)


def simulation_local_name(simulacrum: Entity, rcs: Iterable[RcPair]) -> str:
    """Hyphen-join rule: camelCased simulacrum label, then each distinct
    reality-counterpart label in order of first appearance."""
    parts = [camel_case(simulacrum.label)]
    seen: set[Iri] = set()
    for _, rc in rcs:
        if rc.id not in seen:
            seen.add(rc.id)
            parts.append(camel_case(rc.label))
    return "-".join(parts)


def build_simulation(
    kind: SimulationKind,
    simulacrum: Entity,
    rcs: Iterable[RcPair],
    contexts: Iterable[Entity],
    sources: Iterable[Entity],
) -> Simulation:
    """Validating constructor: the only way to obtain a well-formed simulation.

    Raises :class:`CardinalityError` naming the violated axiom when the
    inputs break one of the structural restrictions.
    """
    if simulacrum is None:
        raise CardinalityError(Axiom.SIMULACRUM_CARDINALITY, "a simulation needs exactly one simulacrum")
    rc_pairs = _dedupe_rcs(rcs)
    context_tuple = _dedupe_entities(contexts)
    source_tuple = _dedupe_entities(sources)
    if not rc_pairs:
        raise CardinalityError(Axiom.MISSING_REALITY_COUNTERPART, "at least one reality counterpart required")
    if not context_tuple:
        raise CardinalityError(Axiom.MISSING_CONTEXT, "at least one context required")
    if not source_tuple:
        raise CardinalityError(Axiom.MISSING_SOURCE, "at least one source required")
    if kind is SimulationKind.HEALING:
        healed = sum(1 for rel, _ in rc_pairs if rel is RcRelation.HEALED)
        if healed != 1:
            raise CardinalityError(
                Axiom.HEALING_CARDINALITY,
                f"a healing simulation needs exactly one healed reality counterpart, got {healed}",
            )
    if kind is SimulationKind.PROTECTION:
        prevented = sum(1 for rel, _ in rc_pairs if rel is RcRelation.PREVENTED)
        if prevented != 1:
            raise CardinalityError(
                Axiom.PROTECTION_CARDINALITY,
                f"a protection simulation needs exactly one prevented reality counterpart, got {prevented}",
            )

    sim_entity = simulacrum.with_roles(Role.SIMULACRUM)
    rc_pairs = tuple((rel, e.with_roles(Role.REALITY_COUNTERPART)) for rel, e in rc_pairs)
    context_tuple = tuple(e.with_roles(Role.CONTEXT) for e in context_tuple)
    source_tuple = tuple(e.with_roles(Role.SOURCE) for e in source_tuple)

    local = simulation_local_name(sim_entity, rc_pairs)
    return Simulation(
        id=Iri(KB + local),
        kind=kind,
        simulacra=(sim_entity,),
        reality_counterparts=rc_pairs,
        contexts=context_tuple,
        sources=source_tuple,
    )


@dataclass(frozen=True, slots=True)
class Literal:
    """An RDF string literal with an optional language tag."""

    text: str
    lang: Optional[str] = None
