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
import secrets
from typing import Optional, Union

from .graph import KIND_BY_CLASS, RDF_TYPE, Graph, Triple
from .model import (
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
_REL_BY_PRED = {rel.schema_iri: rel for rel in RcRelation}
_SIM_STRUCTURAL = {SIM_HAS_SIMULACRUM, SIM_HAS_CONTEXT, PROV_WAS_DERIVED_FROM, *_REL_BY_PRED}

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

    out = [f"@prefix {name}: <{ns}> ." for name, ns in PREFIXES]
    for subject in sorted(by_subject):
        out.append("")
        preds = sorted(
            by_subject[subject],
            key=lambda p: (_PREDICATE_RANK.get(p, 13), p),
        )
        block = []
        for p in preds:
            objects = sorted(by_subject[subject][p], key=_object_sort_key)
            rendered = ", ".join(_render_object(o) for o in objects)
            verb = "a" if p == RDF_TYPE else compact_iri(p)
            block.append(f"{verb} {rendered}")
        first, *rest = block
        if rest:
            out.append(f"{compact_iri(subject)} {first} ;")
            out.extend(f"    {part} ;" for part in rest[:-1])
            out.append(f"    {rest[-1]} .")
        else:
            out.append(f"{compact_iri(subject)} {first} .")
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


_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _render_object(o: Union[Iri, Literal]) -> str:
    if isinstance(o, Literal):
        text = "".join(_LITERAL_ESCAPES.get(ch, ch) for ch in o.text)
        return f'"{text}"@{o.lang}' if o.lang else f'"{text}"'
    return compact_iri(o)


def _object_sort_key(o: Union[Iri, Literal]):
    if isinstance(o, Literal):
        return (1, o.text, o.lang or "")
    return (0, str(o), "")


# -- import ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<prefix>@prefix)
      | (?P<iriref><[^<>\s"{}|^`\\]*>)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<lang>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
      | (?P<pname>[A-Za-z][A-Za-z0-9_\-]*:(?:[A-Za-z0-9_](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?)?)
      | (?P<kw_a>a(?![A-Za-z0-9_:\-]))
      | (?P<punct>[.;,])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "offset")

    def __init__(self, kind: str, value: str, offset: int):
        self.kind = kind
        self.value = value
        self.offset = offset


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return line, col


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            raise TurtleSyntaxError(f"unexpected character {text[pos]!r}", *_line_col(text, pos))
        kind = m.lastgroup or ""
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), m.start()))
        pos = m.end()
    if pos != len(text):
        raise TurtleSyntaxError(f"unexpected character {text[pos]!r}", *_line_col(text, pos))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token], text: str):
        self._tokens = tokens
        self._pos = 0
        self._text = text

    def peek(self) -> Optional[_Token]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self, expected: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise TurtleSyntaxError(
                f"unexpected end of document, expected {expected}", self._text.count("\n") + 1, 1
            )
        self._pos += 1
        return tok

    def fail(self, tok: _Token, message: str):
        raise TurtleSyntaxError(message, *_line_col(self._text, tok.offset))


_ESCAPE_MAP = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}


def _decode_string(raw: str, tok: _Token, stream: "_TokenStream") -> str:
    body = raw[1:-1]
    if "\\" not in body:
        return body
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        esc = body[i + 1]
        if esc in _ESCAPE_MAP:
            out.append(_ESCAPE_MAP[esc])
            i += 2
        elif esc in ("u", "U"):
            width = 4 if esc == "u" else 8
            hexpart = body[i + 2 : i + 2 + width]
            if len(hexpart) != width or not re.fullmatch(r"[0-9A-Fa-f]+", hexpart):
                stream.fail(tok, f"bad unicode escape \\{esc}{hexpart}")
            out.append(chr(int(hexpart, 16)))
            i += 2 + width
        else:
            stream.fail(tok, f"unknown escape \\{esc}")
    return "".join(out)


def _parse_statements(text: str) -> list[tuple[Iri, Iri, Union[Iri, Literal]]]:
    stream = _TokenStream(_tokenize(text), text)
    prefixes: dict[str, str] = {}
    triples: list[tuple[Iri, Iri, Union[Iri, Literal]]] = []
    resolved: dict[str, Iri] = {}  # token text -> IRI; names repeat heavily

    def resolve(tok: _Token) -> Iri:
        iri = resolved.get(tok.value)
        if iri is not None:
            return iri
        if tok.kind == "iriref":
            iri = Iri(tok.value[1:-1])
        elif tok.kind == "pname":
            name, _, local = tok.value.partition(":")
            if name not in prefixes:
                stream.fail(tok, f"undeclared prefix {name!r}")
            iri = Iri(prefixes[name] + local)
        else:
            stream.fail(tok, f"expected an IRI, got {tok.value!r}")
        resolved[tok.value] = iri
        return iri

    def parse_object() -> Union[Iri, Literal]:
        tok = stream.next("an object")
        if tok.kind == "string":
            lang = None
            nxt = stream.peek()
            if nxt is not None and nxt.kind == "lang":
                lang = stream.next("language tag").value[1:]
            return Literal(_decode_string(tok.value, tok, stream), lang)
        return resolve(tok)

    while True:
        tok = stream.peek()
        if tok is None:
            break
        if tok.kind == "prefix":
            stream.next("@prefix")
            name_tok = stream.next("a prefix name")
            if name_tok.kind != "pname" or not name_tok.value.endswith(":"):
                stream.fail(name_tok, "expected a prefix name ending in ':'")
            iri_tok = stream.next("a namespace IRI")
            if iri_tok.kind != "iriref":
                stream.fail(iri_tok, "expected a namespace IRI")
            dot = stream.next("'.'")
            if not (dot.kind == "punct" and dot.value == "."):
                stream.fail(dot, "expected '.' after @prefix")
            prefixes[name_tok.value[:-1]] = iri_tok.value[1:-1]
            continue

        subject = resolve(stream.next("a subject"))
        while True:
            verb_tok = stream.next("a predicate")
            if verb_tok.kind == "kw_a":
                predicate = RDF_TYPE
            else:
                predicate = resolve(verb_tok)
            while True:
                triples.append((subject, predicate, parse_object()))
                sep = stream.next("',', ';' or '.'")
                if sep.kind != "punct":
                    stream.fail(sep, f"expected punctuation, got {sep.value!r}")
                if sep.value == ",":
                    continue
                break
            if sep.value == ".":
                break
            # after ';' either a new predicate or a dangling '.' ends the block
            nxt = stream.peek()
            if nxt is not None and nxt.kind == "punct" and nxt.value == ".":
                stream.next("'.'")
                break
    return triples


def import_turtle(text: str) -> Graph:
    """Parse a Turtle document into a graph.

    Lenient about content: simulations missing members, unknown classes and
    unknown predicates are all representable, and the validator reports them.
    Strict about syntax: malformed documents raise :class:`TurtleSyntaxError`.
    """
    triples = _parse_statements(text)

    by_subject: dict[Iri, dict[Iri, list[Union[Iri, Literal]]]] = {}
    for s, p, o in triples:
        by_subject.setdefault(s, {}).setdefault(p, []).append(o)

    labels: dict[Iri, str] = {}
    roles: dict[Iri, set[Role]] = {}
    links: dict[Iri, set[Iri]] = {}
    entity_ids: set[Iri] = set()
    variant_edges: list[tuple[Iri, Iri]] = []
    extras: set[Triple] = set()
    sims: list[tuple[Iri, list[SimulationKind], list[Iri], list[tuple[RcRelation, Iri]], list[Iri], list[Iri]]] = []

    def note_entity(iri: Iri, role: Optional[Role] = None) -> None:
        entity_ids.add(iri)
        if role is not None:
            roles.setdefault(iri, set()).add(role)

    def iri_objects(subject: Iri, pred: Iri, objects: list) -> list[Iri]:
        kept = []
        for o in objects:
            if isinstance(o, Literal) and pred != RDFS_LABEL:
                logger.warning("ignoring literal object %r of %s on %s", o.text, pred, subject)
                extras.add((subject, pred, o))
            else:
                kept.append(o)
        return kept

    for subject, preds in by_subject.items():
        types = [o for o in preds.get(RDF_TYPE, []) if isinstance(o, Iri)]
        is_sim = any(t in KIND_BY_CLASS for t in types) or any(p in _SIM_STRUCTURAL for p in preds)
        if is_sim:
            kinds = [KIND_BY_CLASS[t] for t in types if t in KIND_BY_CLASS]
            unknown_types = [t for t in types if t not in KIND_BY_CLASS]
            if not kinds:
                kinds = [SimulationKind.GENERIC]
                if unknown_types:
                    logger.warning("unknown class %s on %s, defaulting to the generic simulation", unknown_types[0], subject)
            for t in unknown_types:
                extras.add((subject, RDF_TYPE, t))

            simulacra = iri_objects(subject, SIM_HAS_SIMULACRUM, preds.get(SIM_HAS_SIMULACRUM, []))
            contexts = iri_objects(subject, SIM_HAS_CONTEXT, preds.get(SIM_HAS_CONTEXT, []))
            sources = iri_objects(subject, PROV_WAS_DERIVED_FROM, preds.get(PROV_WAS_DERIVED_FROM, []))
            rcs: list[tuple[RcRelation, Iri]] = []
            for pred, rel in _REL_BY_PRED.items():
                for o in iri_objects(subject, pred, preds.get(pred, [])):
                    rcs.append((rel, o))
            for iri in simulacra:
                note_entity(iri, Role.SIMULACRUM)
            for _, iri in rcs:
                note_entity(iri, Role.REALITY_COUNTERPART)
            for iri in contexts:
                note_entity(iri, Role.CONTEXT)
            for iri in sources:
                note_entity(iri, Role.SOURCE)
            sims.append((subject, kinds, simulacra, rcs, contexts, sources))
            handled = {RDF_TYPE, SIM_HAS_SIMULACRUM, SIM_HAS_CONTEXT, PROV_WAS_DERIVED_FROM, *_REL_BY_PRED}
            for pred, objects in preds.items():
                if pred not in handled:
                    extras.update((subject, pred, o) for o in objects)
        else:
            note_entity(subject)
            for t in types:
                role = _ROLE_BY_CLASS.get(t)
                if role is not None:
                    note_entity(subject, role)
                else:
                    extras.add((subject, RDF_TYPE, t))
            for o in preds.get(RDFS_LABEL, []):
                if isinstance(o, Literal):
                    current = labels.get(subject)
                    labels[subject] = o.text if current is None else min(current, o.text)
                else:
                    extras.add((subject, RDFS_LABEL, o))
            for o in preds.get(OWL_SAME_AS, []):
                if isinstance(o, Iri):
                    links.setdefault(subject, set()).add(o)
                else:
                    extras.add((subject, OWL_SAME_AS, o))
            for o in iri_objects(subject, SIM_HAS_VARIANT, preds.get(SIM_HAS_VARIANT, [])):
                variant_edges.append((subject, o))
                note_entity(o)
            handled = {RDF_TYPE, RDFS_LABEL, OWL_SAME_AS, SIM_HAS_VARIANT}
            for pred, objects in preds.items():
                if pred not in handled:
                    extras.update((subject, pred, o) for o in objects)

    g = Graph()
    for iri in sorted(entity_ids):
        g.upsert_entity(
            Entity(
                id=iri,
                label=labels.get(iri, iri.local_name),
                roles=frozenset(roles.get(iri, ())),
                external_links=frozenset(links.get(iri, ())),
            )
        )
    for subject, kinds, simulacra, rcs, contexts, sources in sorted(sims, key=lambda sim: sim[0]):
        for kind in kinds:
            g.insert_simulation(
                Simulation(
                    id=subject,
                    kind=kind,
                    simulacra=tuple(g.entities[i] for i in simulacra),
                    reality_counterparts=tuple((rel, g.entities[i]) for rel, i in rcs),
                    contexts=tuple(g.entities[i] for i in contexts),
                    sources=tuple(g.entities[i] for i in sources),
                )
            )
    for base, variant in variant_edges:
        g._add_variant_edge(base, variant)
    g.extra_triples.update(extras)
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
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
