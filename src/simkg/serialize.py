"""Turtle-compatible export and import of the graph.

Only the subset the exporter itself produces is parsed back: prefix
declarations, IRIs and prefixed names, ``a``, predicate lists with ``;``,
object lists with ``,`` and string literals with optional language tags.
No collections, blank nodes or relative IRIs.  Output is byte-deterministic:
subjects sorted by IRI, predicates in a fixed schema order, objects sorted.
"""

from __future__ import annotations

import logging
import os
import re
from functools import cache
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

    by_subject: dict[Iri, dict[Iri, set[Union[Iri, Literal]]]] = {}
    for s, p, o in graph_triples(g):
        by_subject.setdefault(s, {}).setdefault(p, set()).add(o)

    name = cache(compact_iri)  # IRIs repeat heavily; memoised for this call only
    out = [f"@prefix {prefix}: <{ns}> ." for prefix, ns in PREFIXES]
    for subject in sorted(by_subject):
        out.append("")
        preds = sorted(
            by_subject[subject],
            key=lambda p: (_PREDICATE_RANK.get(p, 13), p),
        )
        block = []
        for p in preds:
            objects = sorted(by_subject[subject][p], key=_object_sort_key)
            rendered = ", ".join(_render_literal(o) if isinstance(o, Literal) else name(o) for o in objects)
            verb = "a" if p == RDF_TYPE else name(p)
            block.append(f"{verb} {rendered}")
        first, *rest = block
        if rest:
            out.append(f"{name(subject)} {first} ;")
            out.extend(f"    {part} ;" for part in rest[:-1])
            out.append(f"    {rest[-1]} .")
        else:
            out.append(f"{name(subject)} {first} .")
    return "\n".join(out) + "\n"


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
# match starts where the last one ended; ``end`` and ``bad`` always match.
# Alternatives go in order of frequency; ``@prefix`` must come before ``lang``.
_TOKEN_RE = re.compile(
    rf"""(?: (?P<pname>[A-Za-z][A-Za-z0-9_\-]*:(?:[A-Za-z0-9_](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?)?)
      | (?P<punct>[.;,])
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<kw_a>a(?![A-Za-z0-9_:\-]))
      | (?P<iriref><{IRI_CHAR}*>)
      | (?P<prefix>@prefix)
      | (?P<lang>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
      | (?P<end>\Z)
      | (?P<bad>[\s\S]+)  # the rest of the document, from the first stray character
    ) {_SKIP_RE.pattern}""",
    re.VERBOSE,
)

Token = tuple[str, str, int]  # (kind, text, offset)


def _syntax_error(text: str, offset: int, message: str) -> TurtleSyntaxError:
    line = text.count("\n", 0, offset) + 1
    return TurtleSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[Token]:
    """Every token but whitespace and comments, then an ``end`` sentinel at
    the start of the last line, where end-of-document errors point."""
    start = _SKIP_RE.match(text).end()
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in _TOKEN_RE.finditer(text, start)]
    if len(tokens) > 1 and tokens[-2][0] == "bad":  # ``bad`` runs up to the final ``end``
        _, rest, offset = tokens[-2]
        raise _syntax_error(text, offset, f"unexpected character {rest[0]!r}")
    tokens[-1] = ("end", "", text.rfind("\n") + 1)
    return tokens


_ESCAPE_MAP = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE_RE = re.compile(r"\\(u.{0,4}|U.{0,8}|.)")


def _decode_string(text: str, tok: Token) -> str:
    body = tok[1][1:-1]
    if "\\" not in body:
        return body

    def unescape(m: re.Match) -> str:
        esc = m.group(1)
        if esc in _ESCAPE_MAP:
            return _ESCAPE_MAP[esc]
        if esc[0] not in "uU":
            raise _syntax_error(text, tok[2], f"unknown escape \\{esc}")
        code = esc[1:]
        valid = len(code) == (4 if esc[0] == "u" else 8) and re.fullmatch(r"[0-9A-Fa-f]+", code)
        if not valid or int(code, 16) > 0x10FFFF:
            raise _syntax_error(text, tok[2], f"bad unicode escape \\{esc}")
        return chr(int(code, 16))

    return _ESCAPE_RE.sub(unescape, body)


Statements = dict[Iri, dict[Iri, list[Union[Iri, Literal]]]]


def _parse_statements(text: str) -> Statements:
    """subject -> predicate -> objects, each list in document order."""
    tokens = _tokenize(text)
    prefixes: dict[str, str] = {}
    statements: Statements = {}
    resolved: dict[str, Iri] = {}  # token text -> IRI; names repeat heavily

    def take(i: int, expected: str) -> Token:
        tok = tokens[i]
        if tok[0] == "end":
            raise _syntax_error(text, tok[2], f"unexpected end of document, expected {expected}")
        return tok

    def resolve(tok: Token) -> Iri:
        kind, value, offset = tok
        iri = resolved.get(value)
        if iri is not None:
            return iri
        if kind == "iriref":
            raw = value[1:-1]
        elif kind == "pname":
            name, _, local = value.partition(":")
            if name not in prefixes:
                raise _syntax_error(text, offset, f"undeclared prefix {name!r}")
            raw = prefixes[name] + local
        else:
            raise _syntax_error(text, offset, f"expected an IRI, got {value!r}")
        if not raw:
            raise _syntax_error(text, offset, "empty IRI; relative IRIs are not supported")
        iri = resolved[value] = Iri(raw)
        return iri

    i = 0
    while tokens[i][0] != "end":
        if tokens[i][0] == "prefix":
            name = take(i + 1, "a prefix name")
            if name[0] != "pname" or not name[1].endswith(":"):
                raise _syntax_error(text, name[2], "expected a prefix name ending in ':'")
            ns = take(i + 2, "a namespace IRI")
            if ns[0] != "iriref":
                raise _syntax_error(text, ns[2], "expected a namespace IRI")
            dot = take(i + 3, "'.'")
            if dot[1] != ".":
                raise _syntax_error(text, dot[2], "expected '.' after @prefix")
            prefixes[name[1][:-1]] = ns[1][1:-1]
            resolved.clear()  # a redeclared prefix changes what its names mean
            i += 4
            continue

        subject = resolve(tokens[i])
        preds = statements.setdefault(subject, {})
        i += 1
        while True:
            verb = take(i, "a predicate")
            objects = preds.setdefault(RDF_TYPE if verb[0] == "kw_a" else resolve(verb), [])
            i += 1
            while True:
                tok = take(i, "an object")
                i += 1
                if tok[0] == "string":
                    lang = None
                    if tokens[i][0] == "lang":
                        lang = tokens[i][1][1:]
                        i += 1
                    objects.append(Literal(_decode_string(text, tok), lang))
                else:
                    objects.append(resolve(tok))
                sep = take(i, "',', ';' or '.'")
                i += 1
                if sep[0] != "punct":
                    raise _syntax_error(text, sep[2], f"expected punctuation, got {sep[1]!r}")
                if sep[1] != ",":
                    break
            if sep[1] == ".":
                break
            # after ';' either a new predicate or a dangling '.' ends the block
            if tokens[i][1] == ".":
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
        if any(t in KIND_BY_CLASS for t in types) or any(p in _MEMBER_SLOT for p in preds):
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
