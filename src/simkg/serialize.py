"""Turtle-compatible export and import of the graph.

Only the subset the exporter itself produces is parsed back: prefix
declarations, IRIs and prefixed names, ``a``, predicate lists with ``;``,
object lists with ``,`` and string literals with optional language tags.
No collections, blank nodes or relative IRIs.  Output is byte-deterministic:
subjects sorted by IRI, predicates in a fixed schema order, objects sorted.

Export renders each subject's block straight from the graph's stores, whose
members are already in that order; only role types, ``owl:sameAs`` links and
variants are sorted, and a subject that two stores share, or that has extra
triples, is merged and sorted on its own.  Import splits the document into
plain string tokens with one regex pass and types each token by its text;
a token's position in the document is worked out only for an error message.
"""

from __future__ import annotations

import logging
import os
import re
from functools import cache
from itertools import groupby, islice
from operator import itemgetter
from typing import Union

from .graph import KIND_BY_CLASS, RDF_TYPE, Graph, Triple
from .model import (
    IRI_CHAR,
    KB,
    OWL,
    PROV,
    RDF,
    RDFS,
    SIM,
    Entity,
    Iri,
    Literal,
    RcRelation,
    Role,
    Simulation,
    SimulationKind,
)
from .validate import check_axioms

logger = logging.getLogger(__name__)

PREFIXES: tuple[tuple[str, str], ...] = (
    ("rdf", RDF),
    ("rdfs", RDFS),
    ("owl", OWL),
    ("prov", PROV),
    ("sim", SIM),
    ("kb", KB),
)

RDFS_LABEL = Iri(RDFS + "label")
OWL_SAME_AS = Iri(OWL + "sameAs")
PROV_WAS_DERIVED_FROM = Iri(PROV + "wasDerivedFrom")
SIM_HAS_SIMULACRUM = Iri(SIM + "hasSimulacrum")
SIM_HAS_CONTEXT = Iri(SIM + "hasContext")
SIM_HAS_VARIANT = Iri(SIM + "hasVariant")

_ROLE_BY_CLASS = {role.schema_iri: role for role in Role}
# member predicate -> (position of its group in Simulation, role, relation)
_MEMBER_SLOT = {
    SIM_HAS_SIMULACRUM: (0, Role.SIMULACRUM, None),
    **{rel.schema_iri: (1, Role.REALITY_COUNTERPART, rel) for rel in RcRelation},
    SIM_HAS_CONTEXT: (2, Role.CONTEXT, None),
    PROV_WAS_DERIVED_FROM: (3, Role.SOURCE, None),
}

_PREDICATE_RANK: dict[Iri, int] = {
    RDF_TYPE: 0,
    RDFS_LABEL: 1,
    SIM_HAS_SIMULACRUM: 2,
    RcRelation.HAS.schema_iri: 3,
    RcRelation.PREVENTED.schema_iri: 4,
    RcRelation.HEALED.schema_iri: 5,
    RcRelation.RESTORED.schema_iri: 6,
    RcRelation.EASED.schema_iri: 7,
    RcRelation.ELICITED.schema_iri: 8,
    SIM_HAS_CONTEXT: 9,
    PROV_WAS_DERIVED_FROM: 10,
    SIM_HAS_VARIANT: 11,
    OWL_SAME_AS: 12,
}


class GraphViolationsError(ValueError):
    """Export refused: the graph does not pass the axiom checks."""

    def __init__(self, violations):
        super().__init__(f"graph has {len(violations)} axiom violations; pass force=True to serialize anyway")
        self.violations = violations


class TurtleSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# -- export ----------------------------------------------------------------


def graph_triples(g: Graph) -> list[Triple]:
    """Every statement the exporter will emit, in no particular order."""
    triples: list[Triple] = []
    for sim in g.simulations.values():
        triples.append((sim.id, RDF_TYPE, sim.kind.schema_iri))
        for e in sim.simulacra:
            triples.append((sim.id, SIM_HAS_SIMULACRUM, e.id))
        for rel, e in sim.reality_counterparts:
            triples.append((sim.id, rel.schema_iri, e.id))
        for e in sim.contexts:
            triples.append((sim.id, SIM_HAS_CONTEXT, e.id))
        for e in sim.sources:
            triples.append((sim.id, PROV_WAS_DERIVED_FROM, e.id))
    for entity in g.entities.values():
        triples.append((entity.id, RDFS_LABEL, Literal(entity.label)))
        for role in entity.roles:
            triples.append((entity.id, RDF_TYPE, role.schema_iri))
        for link in entity.external_links:
            triples.append((entity.id, OWL_SAME_AS, link))
    for base, variant in g.variant_edges:
        triples.append((base, SIM_HAS_VARIANT, variant))
    triples.extend(g.extra_triples)
    return triples


def export_turtle(g: Graph, force: bool = False) -> str:
    """Serialize the graph; byte-identical output for equal graphs.

    Refuses a graph with axiom violations unless ``force`` is set, in which
    case the violating statements are serialized as they are.
    """
    if not force:
        violations = check_axioms(g)
        if violations:
            raise GraphViolationsError(violations)

    extras: dict[Iri, dict[Iri, set[Union[Iri, Literal]]]] = {}
    for s, p, o in g.extra_triples:
        extras.setdefault(s, {}).setdefault(p, set()).add(o)
    sims, entities, variants = g.simulations, g.entities, g._variant_children
    subjects = sims.keys() | entities.keys() | variants.keys() | extras.keys()

    term = cache(_render_term)  # terms repeat heavily; memoised for this call only
    out = [f"@prefix {prefix}: <{ns}> ." for prefix, ns in PREFIXES]
    for subject in sorted(subjects):
        preds = _stored_predicates(sims.get(subject), entities.get(subject), variants.get(subject))
        extra = extras.get(subject)
        if extra:
            merged = dict(preds)
            for p, objects in extra.items():
                merged[p] = sorted(objects.union(merged.get(p, ())), key=_object_sort_key)
            preds = sorted(merged.items(), key=lambda po: (_PREDICATE_RANK.get(po[0], 13), po[0]))
        block = " ;\n    ".join(
            [f"{'a' if p == RDF_TYPE else term(p)} {', '.join(map(term, objects))}" for p, objects in preds]
        )
        out.append(f"\n{term(subject)} {block} .")
    return "\n".join(out) + "\n"


def _stored_predicates(sim: Simulation | None, entity: Entity | None, variants: set[Iri] | None) -> list:
    """A subject's (predicate, objects) pairs from the stores, both in
    export order.  Stored members are already sorted (ids, counterparts by
    relation rank), and only the type is held by two stores."""
    types = [role.schema_iri for role in entity.roles] if entity is not None else []
    if sim is not None:
        types.append(sim.kind.schema_iri)
    preds: list = [(RDF_TYPE, sorted(types))] if types else []
    if entity is not None:
        preds.append((RDFS_LABEL, [Literal(entity.label)]))
    if sim is not None:
        if sim.simulacra:
            preds.append((SIM_HAS_SIMULACRUM, [e.id for e in sim.simulacra]))
        for rel, pairs in groupby(sim.reality_counterparts, key=itemgetter(0)):
            preds.append((rel.schema_iri, [e.id for _, e in pairs]))
        if sim.contexts:
            preds.append((SIM_HAS_CONTEXT, [e.id for e in sim.contexts]))
        if sim.sources:
            preds.append((PROV_WAS_DERIVED_FROM, [e.id for e in sim.sources]))
    if variants:
        preds.append((SIM_HAS_VARIANT, sorted(variants)))
    if entity is not None and entity.external_links:
        preds.append((OWL_SAME_AS, sorted(entity.external_links)))
    return preds


_SAFE_LOCAL = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*\Z")


def compact_iri(iri: Iri) -> str:
    """Prefixed rendering when the IRI sits in a declared namespace."""
    for name, ns in PREFIXES:
        if iri.startswith(ns):
            local = iri[len(ns):]
            if _SAFE_LOCAL.match(local):
                return f"{name}:{local}"
    return f"<{iri}>"


_LITERAL_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _render_term(o: Union[Iri, Literal]) -> str:
    return _render_literal(o) if isinstance(o, Literal) else compact_iri(o)


def _render_literal(o: Literal) -> str:
    text = o.text.translate(_LITERAL_ESCAPES)
    return f'"{text}"@{o.lang}' if o.lang else f'"{text}"'


def _object_sort_key(o: Union[Iri, Literal]):
    if isinstance(o, Literal):
        return (1, o.text, o.lang or "")
    return (0, str(o), "")


# -- import ----------------------------------------------------------------

_SKIP_RE = re.compile(r"\s*(?:\#[^\n]*\s*)*")  # whitespace and comments
# One match is one token plus the whitespace and comments after it, so every
# match starts where the last one ended.  Alternatives go in order of
# frequency; ``@prefix`` must come before the language tag.  The captured
# token is empty at the end of the document, and also where no token
# matches: the last alternative then takes the rest of the document.
_TOKEN_RE = re.compile(
    rf"""(?: ( [A-Za-z][A-Za-z0-9_\-]*:(?:[A-Za-z0-9_](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?)?  # prefixed name
             | [.;,]
             | "(?:[^"\\\n]|\\.)*"
             | a(?![A-Za-z0-9_:\-])
             | <{IRI_CHAR}*>
             | @prefix
             | @[A-Za-z]+(?:-[A-Za-z0-9]+)*  # language tag
             | \Z )
      | [\s\S]+  # a stray character, and the rest of the document
    ) {_SKIP_RE.pattern}""",
    re.VERBOSE,
)


def _syntax_error(text: str, offset: int, message: str) -> TurtleSyntaxError:
    line = text.count("\n", 0, offset) + 1
    return TurtleSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


_ESCAPE_MAP = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE_RE = re.compile(r"\\(u.{0,4}|U.{0,8}|.)")


def _unescape(body: str) -> str:
    """A string token's body with its escapes decoded; ``ValueError`` names
    the first bad one."""

    def unescape(m: re.Match) -> str:
        esc = m.group(1)
        if esc in _ESCAPE_MAP:
            return _ESCAPE_MAP[esc]
        if esc[0] not in "uU":
            raise ValueError(f"unknown escape \\{esc}")
        code = esc[1:]
        valid = len(code) == (4 if esc[0] == "u" else 8) and re.fullmatch(r"[0-9A-Fa-f]+", code)
        if not valid or int(code, 16) > 0x10FFFF:
            raise ValueError(f"bad unicode escape \\{esc}")
        return chr(int(code, 16))

    return _ESCAPE_RE.sub(unescape, body)


Statements = dict[Iri, dict[Iri, list[Union[Iri, Literal]]]]


def _parse_statements(text: str) -> Statements:
    """subject -> predicate -> objects, each list in document order.

    Tokens are plain strings, typed by their text: ``<`` starts an IRI,
    ``"`` a string, ``@prefix`` is the directive and any other ``@`` a
    language tag, ``.``/``;``/``,`` are punctuation, ``a`` is the keyword,
    the empty string is the end, and anything else is a prefixed name.
    """
    start = _SKIP_RE.match(text).end()
    tokens = _TOKEN_RE.findall(text, start)
    prefixes: dict[str, str] = {}
    statements: Statements = {}
    resolved: dict[str, Iri] = {}  # token -> IRI; names repeat heavily

    def offset(i: int) -> int:
        """Where token ``i`` starts, found by scanning again."""
        if i == len(tokens) - 1:  # end-of-document errors point at the start of the last line
            return text.rfind("\n") + 1
        return next(islice(_TOKEN_RE.finditer(text, start), i, None)).start()

    def fail(i: int, message: str) -> TurtleSyntaxError:
        return _syntax_error(text, offset(i), message)

    if len(tokens) > 1 and not tokens[-2]:  # a stray character, before the end
        at = offset(len(tokens) - 2)
        raise _syntax_error(text, at, f"unexpected character {text[at]!r}")

    def take(i: int, expected: str) -> str:
        tok = tokens[i]
        if not tok:
            raise fail(i, f"unexpected end of document, expected {expected}")
        return tok

    def resolve(i: int, expected: str) -> Iri:
        """The IRI that token ``i`` names, on a miss in ``resolved``."""
        tok = take(i, expected)
        if tok[0] == "<":
            raw = tok[1:-1]
        elif tok[0] not in '"@.;,' and tok != "a":
            name, _, local = tok.partition(":")
            if name not in prefixes:
                raise fail(i, f"undeclared prefix {name!r}")
            raw = prefixes[name] + local
        else:
            raise fail(i, f"expected an IRI, got {tok!r}")
        if not raw:
            raise fail(i, "empty IRI; relative IRIs are not supported")
        iri = resolved[tok] = Iri(raw)
        return iri

    i = 0
    while tok := tokens[i]:
        if tok == "@prefix":
            name = take(i + 1, "a prefix name")
            if not name.endswith(":"):
                raise fail(i + 1, "expected a prefix name ending in ':'")
            ns = take(i + 2, "a namespace IRI")
            if ns[0] != "<":
                raise fail(i + 2, "expected a namespace IRI")
            if take(i + 3, "'.'") != ".":
                raise fail(i + 3, "expected '.' after @prefix")
            prefixes[name[:-1]] = ns[1:-1]
            resolved.clear()  # a redeclared prefix changes what its names mean
            i += 4
            continue

        preds = statements.setdefault(resolved[tok] if tok in resolved else resolve(i, "a subject"), {})
        i += 1
        while True:
            verb = tokens[i]
            if verb == "a":
                objects = preds.setdefault(RDF_TYPE, [])
            else:
                objects = preds.setdefault(resolved[verb] if verb in resolved else resolve(i, "a predicate"), [])
            i += 1
            while True:
                tok = tokens[i]
                if tok in resolved:
                    objects.append(resolved[tok])
                elif tok[:1] == '"':
                    body = tok[1:-1]
                    if "\\" in body:
                        try:
                            body = _unescape(body)
                        except ValueError as err:
                            raise fail(i, str(err)) from None
                    lang = tokens[i + 1]
                    if lang[:1] == "@" and lang != "@prefix":
                        objects.append(Literal(body, lang[1:]))
                        i += 1
                    else:
                        objects.append(Literal(body))
                else:
                    objects.append(resolve(i, "an object"))
                sep = tokens[i + 1]
                i += 2
                if sep != ",":
                    break
            if sep == ".":
                break
            if sep != ";":
                raise fail(i - 1, f"expected punctuation, got {sep!r}" if sep else "unexpected end of document, expected ',', ';' or '.'")
            # after ';' either a new predicate or a dangling '.' ends the block
            if tokens[i] == ".":
                i += 1
                break
    return statements


def import_turtle(text: str) -> Graph:
    """Parse a Turtle document into a graph.

    Lenient about content: simulations missing members, unknown classes and
    unknown predicates are all representable, and the validator reports them.
    Strict about syntax: malformed documents raise :class:`TurtleSyntaxError`.
    """
    # Whether a subject is a simulation depends on all of its predicates.
    statements = _parse_statements(text)
    g = Graph()
    extras = g.extra_triples

    def objects(subject: Iri, preds: dict, pred: Iri, keep: type, warn: bool = False) -> list:
        """Takes ``pred``'s objects off ``preds``; those not of type ``keep``
        are kept as extra triples."""
        kept = []
        for o in preds.pop(pred, ()):
            if isinstance(o, keep):
                kept.append(o)
                continue
            if warn:
                logger.warning("ignoring literal object %r of %s on %s", o.text, pred, subject)
            extras.add((subject, pred, o))
        return kept

    def entity(iri: Iri) -> Entity:
        return g.entities.get(iri) or Entity(iri, iri.local_name)

    # Entity subjects go in first, so a member's default label (its local
    # name) never competes with a declared label in the min-label rule.
    sims: list[tuple[Iri, list]] = []
    variant_edges: list[tuple[Iri, Iri]] = []
    for subject in sorted(statements):
        preds = statements[subject]
        types = preds.pop(RDF_TYPE, [])  # a literal here is kept as an extra triple
        if not KIND_BY_CLASS.keys().isdisjoint(types) or not _MEMBER_SLOT.keys().isdisjoint(preds):
            sims.append((subject, types))
            continue
        extras.update((subject, RDF_TYPE, t) for t in types if t not in _ROLE_BY_CLASS)
        labels = [o.text for o in objects(subject, preds, RDFS_LABEL, Literal)]
        g.upsert_entity(
            Entity(
                subject,
                min(labels) if labels else subject.local_name,
                frozenset(_ROLE_BY_CLASS[t] for t in types if t in _ROLE_BY_CLASS),
                frozenset(objects(subject, preds, OWL_SAME_AS, Iri)),
            )
        )
        variant_edges += ((subject, o) for o in objects(subject, preds, SIM_HAS_VARIANT, Iri, warn=True))
        for pred, rest in preds.items():
            extras.update((subject, pred, o) for o in rest)

    for subject, types in sims:
        kinds = [KIND_BY_CLASS[t] for t in types if t in KIND_BY_CLASS]
        unknown_types = [t for t in types if t not in KIND_BY_CLASS]
        if not kinds:
            kinds = [SimulationKind.GENERIC]
            if unknown_types:
                first = unknown_types[0]
                first = _render_literal(first) if isinstance(first, Literal) else first
                logger.warning("unknown class %s on %s, defaulting to the generic simulation", first, subject)
        extras.update((subject, RDF_TYPE, t) for t in unknown_types)

        preds = statements[subject]
        groups: tuple[list, ...] = ([], [], [], [])  # simulacra, counterparts, contexts, sources
        for pred in [p for p in preds if p in _MEMBER_SLOT]:
            index, role, rel = _MEMBER_SLOT[pred]
            for iri in objects(subject, preds, pred, Iri, warn=True):
                e = entity(iri).with_roles(role)
                groups[index].append(e if rel is None else (rel, e))
        members = [tuple(group) for group in groups]
        for kind in kinds:
            g.insert_simulation(Simulation(subject, kind, *members))
        for pred, rest in preds.items():
            extras.update((subject, pred, o) for o in rest)

    for base, variant in variant_edges:
        g.upsert_entity(entity(variant))
        g._add_variant_edge(base, variant)
    return g


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return import_turtle(fh.read())


def save_graph(g: Graph, path, force: bool = False) -> None:
    write_atomic(path, export_turtle(g, force=force))


def write_atomic(path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` in one step.

    The text goes to a new file in the same directory, which is then
    renamed over ``path``; if anything fails, ``path`` is left as it was
    and the new file is removed.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
