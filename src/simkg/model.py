"""Core domain types for the symbolism knowledge graph.

The central value is the :class:`Simulation`: an n-ary node that ties one
symbolic element (the simulacrum) to the meanings it stands for (its
reality counterparts) within one or more cultural contexts, backed by
documentary sources.  ``build_simulation`` is the validating constructor;
a value it returns satisfies every structural axiom.  The records
themselves deliberately accept anomalous shapes so that data imported
from foreign files can be represented and then *reported* by the
validator instead of being rejected at the door.

Everything here is immutable after construction and safe to share across
threads.  Records are named tuples: they compare and hash by value, also
with a plain tuple of the same values.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Callable, Hashable, Iterable, NamedTuple, Optional, TypeVar, Union

KB = "https://w3id.org/simulation/data/"
SIM = "https://w3id.org/simulation/ontology/"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
PROV = "http://www.w3.org/ns/prov#"
# The vocabulary's namespaces, in the order the export declares them.  No
# namespace starts another, so at most one of them prefixes an IRI.
PREFIXES: tuple[tuple[str, str], ...] = (
    ("rdf", RDF), ("rdfs", RDFS), ("owl", OWL), ("prov", PROV), ("sim", SIM), ("kb", KB),
)

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


class ParseError(ValueError):
    """A line of a dictionary or synset file that cannot be read; names the line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


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


def cardinality_violations(sim: "Simulation") -> list[tuple[Axiom, str]]:
    """The structural axioms one simulation breaks, each with its detail.

    The one statement of the cardinality restrictions: exactly one
    simulacrum; at least one reality counterpart, context and source; and
    exactly one healed (prevented) counterpart on a Healing (Protection)
    simulation.  ``build_simulation`` raises the first pair and
    ``check_axioms`` reports them all, so both use the same wording.
    """
    found: list[tuple[Axiom, str]] = []
    if len(sim.simulacra) != 1:
        found.append((Axiom.SIMULACRUM_CARDINALITY, f"expected exactly 1 simulacrum, found {len(sim.simulacra)}"))
    if not sim.reality_counterparts:
        found.append((Axiom.MISSING_REALITY_COUNTERPART, "no reality counterpart on this simulation"))
    if not sim.contexts:
        found.append((Axiom.MISSING_CONTEXT, "no context on this simulation"))
    if not sim.sources:
        found.append((Axiom.MISSING_SOURCE, "no source on this simulation"))
    if sim.kind is SimulationKind.HEALING:
        n = sum(1 for rel, _ in sim.reality_counterparts if rel is RcRelation.HEALED)
        if n != 1:
            found.append((Axiom.HEALING_CARDINALITY, f"healing simulation has {n} healed reality counterparts, expected 1"))
    if sim.kind is SimulationKind.PROTECTION:
        n = sum(1 for rel, _ in sim.reality_counterparts if rel is RcRelation.PREVENTED)
        if n != 1:
            found.append((Axiom.PROTECTION_CARDINALITY, f"protection simulation has {n} prevented reality counterparts, expected 1"))
    return found


# One IRIREF character of W3C RDF 1.1 Turtle (https://www.w3.org/TR/turtle/),
# minus Unicode whitespace; \u escapes are not supported.  ``Iri`` and the
# Turtle reader share it, so every IRI the exporter writes reads back.
IRI_CHAR = r'[^\x00-\x20\s<>"{}|^`\\]'
_IRI_RE = re.compile(IRI_CHAR + "+")


class Iri(str):
    """An absolute IRI.  Behaves as a plain string plus namespace helpers.

    ``Iri(iri)`` returns its argument, as ``str(s)`` does: an ``Iri`` was
    checked when it was made and cannot change.  Any other string is checked."""

    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if type(value) is cls:
            return value
        if not _IRI_RE.fullmatch(value):
            raise ValueError(f"not an IRI: {value!r} (empty, or has whitespace, a control character or one of <>\"{{}}|^`\\)")
        return super().__new__(cls, value)

    @property
    def local_name(self) -> str:
        for _, ns in PREFIXES:
            if self.startswith(ns):
                return self[len(ns):]
        cut = max(self.rfind("/"), self.rfind("#"))
        return self[cut + 1:]


class _Term(Enum):
    """A term of the Simulation Ontology: its IRI is ``SIM`` + its value."""

    # Members are singletons and equal only to themselves, so the identity
    # hash agrees with equality and skips Enum.__hash__, a Python-level call.
    __hash__ = object.__hash__

    @cached_property
    def schema_iri(self) -> Iri:
        return Iri(SIM + self.value)


class Role(_Term):
    """Positions an entity can occupy around simulations."""

    SIMULACRUM = "Simulacrum"
    REALITY_COUNTERPART = "RealityCounterpart"
    CONTEXT = "Context"
    SOURCE = "Source"


class SimulationKind(_Term):
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

    @cached_property  # its classes end in "Simulation", and GENERIC is sim:Simulation
    def schema_iri(self) -> Iri:
        if self is SimulationKind.GENERIC:
            return Iri(SIM + "Simulation")
        return Iri(SIM + self.value + "Simulation")


class RcRelation(_Term):
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


def mint_iri(label: str) -> Iri:
    """Deterministically mint an IRI in ``KB`` for a label (same label, same IRI)."""
    if not label.strip():
        raise EmptyLabelError("label is empty or whitespace-only")
    local = camel_case(label)
    if not local:
        raise EmptyLabelError(f"label {label!r} has no alphanumeric characters")
    return Iri(KB + local)


class Entity(NamedTuple):
    """A named node: simulacrum, reality counterpart, context or source (its roles: ``Graph.roles_of``)."""

    id: Iri
    label: str
    external_links: frozenset[Iri] = frozenset()


def make_entity(
    label: str,
    *roles: Role,
    links: Iterable[Union[Iri, str]] = (),
) -> Entity:
    """Mint an entity from its label; identity is the minted IRI.

    Entities are immutable, so equal arguments return one shared value from
    a bounded cache: a converter that mentions a label many times builds
    its entity once.  A blank label raises on every call.  ``roles`` are
    accepted and ignored; a graph derives roles from memberships.
    """
    return _shared_entity(label, frozenset(links))


@lru_cache(maxsize=65536)
def _shared_entity(label: str, links: frozenset[str]) -> Entity:
    return Entity(id=mint_iri(label), label=label, external_links=frozenset(Iri(l) for l in links))


def general_context() -> Entity:
    """The catch-all context used when a source states none."""
    return make_entity(GENERAL_OR_UNKNOWN_LABEL)


RcPair = tuple[RcRelation, Entity]

M = TypeVar("M", Entity, Iri)  # a member: Entity as built, Iri as a Graph stores it


class Simulation(NamedTuple):
    """The n-ary relation node.

    Members are entities as built (``Simulation[Entity]``) and IRIs as a
    graph stores them (``Simulation[Iri]``).  The subscript only names
    the member type: a named tuple cannot be generic on Python 3.10, so
    nothing checks it, and ``Simulation[Iri](...)`` builds a plain
    ``Simulation``.
    ``simulacra`` holds exactly one member for any value produced by
    ``build_simulation``; imported data may disagree, and the validator
    reports that as a cardinality violation rather than this type refusing
    to represent it.
    """

    id: Iri
    kind: SimulationKind
    simulacra: tuple[M, ...]
    reality_counterparts: tuple[tuple[RcRelation, M], ...]
    contexts: tuple[M, ...]
    sources: tuple[M, ...]

    @property
    def simulacrum(self) -> Optional[M]:
        return self.simulacra[0] if self.simulacra else None

    def members(self) -> Iterable[M]:
        yield from self.simulacra
        for _, e in self.reality_counterparts:
            yield e
        yield from self.contexts
        yield from self.sources


class _Link(NamedTuple):
    base: Entity
    variant: Entity


class VariantLink(_Link):
    """A narrower / composite / situated form of a simulacrum or rc.

    A reflexive link raises :class:`CycleError`; the check sits in
    ``__new__``, so unpickling and ``_replace`` run it too.
    """

    __slots__ = ()

    def __new__(cls, base: Entity, variant: Entity) -> VariantLink:
        if base.id == variant.id:
            raise CycleError(f"variant link may not be reflexive: {base.id}")
        return super().__new__(cls, base, variant)

    @classmethod
    def _make(cls, iterable: Iterable[Entity]) -> VariantLink:
        return cls(*iterable)


class Conversion(NamedTuple):
    """What a converter made of its input: built with fresh lists, which
    the converter fills; ``skipped`` holds the input records it left out."""

    simulations: list[Simulation[Entity]]
    variants: list[VariantLink]
    skipped: list[tuple]
    warnings: list[str]


_T = TypeVar("_T")


def _first_per_key(items: Iterable[_T], key: Callable[[_T], Hashable]) -> tuple[_T, ...]:
    """The first item of each key, in order of first appearance."""
    items = tuple(items)
    if len(items) < 2:  # what the converters pass, as a rule
        return items
    first: dict[Hashable, _T] = {}
    for item in items:
        first.setdefault(key(item), item)
    return tuple(first.values())


def simulation_local_name(simulacrum: Entity, rcs: Iterable[RcPair]) -> str:
    """Hyphen-join rule: camelCased simulacrum label, then each distinct
    reality-counterpart label in order of first appearance."""
    distinct = _first_per_key(rcs, lambda pair: pair[1].id)
    return "-".join([camel_case(simulacrum.label), *[camel_case(rc.label) for _, rc in distinct]])


def build_simulation(
    kind: SimulationKind,
    simulacrum: Entity,
    rcs: Iterable[RcPair],
    contexts: Iterable[Entity],
    sources: Iterable[Entity],
) -> Simulation[Entity]:
    """Validating constructor: the only way to obtain a well-formed simulation.

    Raises :class:`CardinalityError` for the first axiom that
    :func:`cardinality_violations` finds broken.
    """
    if simulacrum is None:
        raise CardinalityError(Axiom.SIMULACRUM_CARDINALITY, "expected exactly 1 simulacrum, found 0")
    rc_pairs = _first_per_key(rcs, lambda pair: (pair[0], pair[1].id))
    sim = Simulation(
        id=Iri(KB + simulation_local_name(simulacrum, rc_pairs)),
        kind=kind,
        simulacra=(simulacrum,),
        reality_counterparts=rc_pairs,
        contexts=_first_per_key(contexts, attrgetter("id")),
        sources=_first_per_key(sources, attrgetter("id")),
    )
    broken = cardinality_violations(sim)
    if broken:
        raise CardinalityError(*broken[0])
    return sim


class Literal(NamedTuple):
    """An RDF string literal with an optional language tag."""

    text: str
    lang: Optional[str] = None
