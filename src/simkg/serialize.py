"""Turtle-compatible export and import of the graph.

Only the subset the exporter itself produces is parsed back: prefix
declarations, IRIs and prefixed names, ``a``, predicate lists with ``;``,
object lists with ``,`` and string literals with optional language tags.
No collections, blank nodes or relative IRIs.  Output is byte-deterministic:
subjects sorted by IRI, predicates in a fixed schema order, objects sorted.

Export only renders the statement blocks of ``Graph.blocks``, which
``graph.statement_block`` defines and puts in that order.  Import splits
the document into plain string tokens and types each token by its text.
``_TOKEN_RE`` is the one definition of a token: the document is cut into
tokens with string methods, each word the cut makes is checked against
``_TOKEN_RE`` where the parser first reads it, and a document with a word
the regex reads otherwise is read again from the regex's own tokens; so is
a document with a syntax error, unless every word of its cut is one token.
A token's position in the document is worked out only for an error message.
Import runs with the cyclic garbage collector paused (``collector_paused``).
"""

from __future__ import annotations

import gc
import os
import re
import stat
import sys
from contextlib import contextmanager
from functools import cache
from itertools import chain, islice, repeat
from typing import Optional, Union

from .graph import (
    KIND_BY_CLASS,
    MEMBER_SLOT,
    OWL_SAME_AS,
    RDF_TYPE,
    RDFS_LABEL,
    ROLE_BY_CLASS,
    SIM_HAS_VARIANT,
    Graph,
    Triple,
)
from .model import IRI_CHAR, PREFIXES, Entity, Iri, Literal, Role, Simulation, SimulationKind
from .validate import check_axioms


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
    """Every statement the exporter will emit, each once, in no particular order."""
    return [(s, p, o) for s, block in g.blocks() for p, objects in block for o in objects]


def export_turtle(g: Graph, force: bool = False) -> str:
    """Serialize the graph; byte-identical output for equal graphs.

    Refuses a graph with axiom violations unless ``force`` is set, in which
    case the violating statements are serialized as they are.
    """
    if not force:
        violations = check_axioms(g)
        if violations:
            raise GraphViolationsError(violations)

    term = cache(_render_term)  # terms repeat heavily; memoised for this call only
    out = [f"@prefix {prefix}: <{ns}> ." for prefix, ns in PREFIXES]
    for subject, preds in g.blocks():
        block = " ;\n    ".join(
            [f"{'a' if p == RDF_TYPE else term(p)} {', '.join(map(term, objects))}" for p, objects in preds]
        )
        out.append(f"\n{term(subject)} {block} .")
    return "\n".join(out) + "\n"


_SAFE_LOCAL = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*\Z")
_PREFIX_OF = {ns: name for name, ns in PREFIXES}  # every namespace ends in '/' or '#'


def compact_iri(iri: Iri) -> str:
    """Prefixed rendering when the IRI sits in a declared namespace."""
    # a safe local name holds neither '/' nor '#', so its namespace is the IRI up to the last of them
    cut = max(iri.rfind("/"), iri.rfind("#")) + 1
    name = _PREFIX_OF.get(iri[:cut])
    if name and _SAFE_LOCAL.match(iri, cut):
        return f"{name}:{iri[cut:]}"
    return f"<{iri}>"


_LITERAL_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _render_term(o: Union[Iri, Literal]) -> str:
    return _render_literal(o) if isinstance(o, Literal) else compact_iri(o)


def _render_literal(o: Literal) -> str:
    text = o.text.translate(_LITERAL_ESCAPES)
    return f'"{text}"@{o.lang}' if o.lang else f'"{text}"'


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


def _cut_tokens(text: str, pos: int) -> Optional[list[str]]:
    """``_TOKEN_RE.findall(text, pos)`` cut with string methods, or a list
    with a word that ``_TOKEN_RE`` reads otherwise, or ``None`` where a
    string or IRI has no end.

    Strings, IRIs and comments are the only tokens that can hold whitespace,
    ``,``, ``;`` or ``#``, so they are cut out first, in document order.
    Every other stretch of text splits at whitespace, with ``,`` and ``;``
    tokens of their own.  A word is one token only where ``_TOKEN_RE``
    matches all of it; ``_read_statements`` checks each where it first
    reads it.  A string holds no newline and ends at the first ``"`` unless
    it holds a backslash, when ``_TOKEN_RE`` finds its end.
    """
    n = len(text)
    find = text.find

    def next_at(char: str, start: int) -> int:
        at = find(char, start)
        return n if at < 0 else at

    quote, iri, comment = next_at('"', pos), next_at("<", pos), next_at("#", pos)
    tokens: list[str] = []
    while True:
        cut = min(quote, iri, comment)
        tokens += text[pos:cut].replace(",", " , ").replace(";", " ; ").split()
        if cut == n:
            tokens.append("")
            return tokens
        if cut == comment:
            pos = next_at("\n", cut)
        elif cut == iri:
            pos = find(">", cut) + 1
            if not pos:
                return None
            tokens.append(text[cut:pos])
        else:
            pos = find('"', cut + 1) + 1
            tok = text[cut:pos]
            if not pos or "\\" in tok or "\n" in tok:
                tok = _TOKEN_RE.match(text, cut)[1]
                if not tok:  # a stray '"'
                    return None
                pos = cut + len(tok)
            tokens.append(tok)
        # the cut token may hold the next of the other characters
        if quote < pos:
            quote = next_at('"', pos)
        if iri < pos:
            iri = next_at("<", pos)
        if comment < pos:
            comment = next_at("#", pos)


class _Miscut(Exception):
    """A word of ``_cut_tokens`` is not one token as ``_TOKEN_RE`` reads it."""


def _syntax_error(text: str, offset: int, message: str) -> TurtleSyntaxError:
    line = text.count("\n", 0, offset) + 1
    return TurtleSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


_ESCAPE_MAP = {'"': '"', "'": "'", "\\": "\\", "n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f"}
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
        point = int(code, 16) if valid else -1
        # a surrogate is no character, and could not be written out as UTF-8
        if not 0 <= point <= 0x10FFFF or 0xD800 <= point <= 0xDFFF:
            raise ValueError(f"bad unicode escape \\{esc}")
        return chr(point)

    return _ESCAPE_RE.sub(unescape, body)


Statements = dict[Iri, dict[Iri, list[Union[Iri, Literal]]]]


def _parse_statements(text: str) -> Statements:
    """subject -> predicate -> objects, each list in document order.

    The tokens come from ``_cut_tokens``.  Where the cut has no end or a
    word is not one token, the document is read again from
    ``_TOKEN_RE.findall``, so every error and its position come from the
    regex's tokens.  A syntax error in a cut whose every word is one token
    is raised as it is: those words are the regex's tokens.
    """
    start = _SKIP_RE.match(text).end()
    tokens = _cut_tokens(text, start)
    if tokens is not None:
        try:
            return _read_statements(text, start, tokens)
        except _Miscut:
            pass
        except TurtleSyntaxError:
            # the regex read names a stray character anywhere before any other error
            if all(_TOKEN_RE.match(word)[1] == word for word in set(tokens)):
                raise
    return _read_statements(text, start, _TOKEN_RE.findall(text, start))


def _read_statements(text: str, start: int, tokens: list[str]) -> Statements:
    """The statements of ``tokens``, the tokens of ``text`` from ``start`` on.

    Tokens are plain strings, typed by their text: ``<`` starts an IRI,
    ``"`` a string, ``@prefix`` is the directive and any other ``@`` a
    language tag, ``.``/``;``/``,`` are punctuation, ``a`` is the keyword,
    the empty string is the end, and anything else is a prefixed name.
    A token read as a name, an IRI or a language tag must be one token as
    ``_TOKEN_RE`` reads it, or ``_Miscut`` is raised; each name is checked
    once, where it is first resolved.
    """
    prefixes: dict[str, str] = {}
    statements: Statements = {}
    resolved: dict[str, Iri] = {}  # token -> IRI; names repeat heavily
    known = resolved.get  # an IRI is never empty, so a miss is the only false result

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
        if _TOKEN_RE.match(tok)[1] != tok:
            raise _Miscut(tok)
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

        preds = statements.setdefault(known(tok) or resolve(i, "a subject"), {})
        i += 1
        while True:
            verb = tokens[i]
            if verb == "a":
                objects = preds.setdefault(RDF_TYPE, [])
            else:
                objects = preds.setdefault(known(verb) or resolve(i, "a predicate"), [])
            i += 1
            while True:
                tok = tokens[i]
                if iri := known(tok):
                    objects.append(iri)
                elif tok[:1] == '"':
                    body = tok[1:-1]
                    if "\\" in body:
                        try:
                            body = _unescape(body)
                        except ValueError as err:
                            raise fail(i, str(err)) from None
                    lang = tokens[i + 1]
                    if lang[:1] == "@" and lang != "@prefix":
                        lang = take(i + 1, "a language tag")
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


@contextmanager
def collector_paused():
    """Run the body with the cyclic garbage collector off, and give the
    caller back the collector state it had, however the body ends.

    Graph work makes no reference cycles (``tests/test_cyclic_garbage.py``
    checks that), so the collections a load or a command would trigger only
    walk the growing graph again and again and free nothing.  A nested use
    leaves the collector as the outer one found it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@collector_paused()
def import_turtle(text: str) -> Graph:
    """Parse a Turtle document into a graph, with the cyclic collector paused.

    Lenient about content: simulations missing members, unknown classes and
    unknown predicates are all representable, and the validator reports them.
    Strict about syntax: malformed documents raise :class:`TurtleSyntaxError`.
    """
    # Whether a subject is a simulation depends on all of its predicates.
    statements = _parse_statements(text)
    g = Graph()
    entities, extras = g.entities, g.extra_triples

    def objects(subject: Iri, pred: Iri, found: list, keep: type) -> list:
        """``found`` less each object not of type ``keep``, which is an extra
        triple; a literal for an IRI warns."""
        kept = []
        for o in found:
            if isinstance(o, keep):
                kept.append(o)
                continue
            if keep is Iri:
                print(f"ignoring literal object {o.text!r} of {pred} on {subject}", file=sys.stderr)
            extras.add((subject, pred, o))
        return kept

    # Subjects go in as they come.  Members and variants that no subject
    # declares are made afterwards, so a default label never competes, and
    # roles are stated once every membership is stored.  Unknown classes,
    # literals where IRIs belong, extra labels and unknown predicates cost
    # only the subject that has them.
    variant_edges: list[tuple[Iri, Iri]] = []
    stated: list[tuple[Iri, Role]] = []
    for subject in sorted(statements):
        preds = statements[subject]
        types = preds.pop(RDF_TYPE, ())  # a literal here is kept as an extra triple
        kinds = [*filter(None, map(KIND_BY_CLASS.get, types))]
        if not kinds and MEMBER_SLOT.keys().isdisjoint(preds):
            for t in types:
                if role := ROLE_BY_CLASS.get(t):
                    stated.append((subject, role))
                else:
                    extras.add((subject, RDF_TYPE, t))
            labels = preds.pop(RDFS_LABEL, ())
            if len(labels) == 1 and isinstance(labels[0], Literal) and not labels[0].lang:
                label = labels[0].text
            else:
                labels = objects(subject, RDFS_LABEL, labels, Literal)
                label = min([o.text for o in labels]) if labels else subject.local_name
                # the entity holds one untagged label; the others are extra triples
                extras.update((subject, RDFS_LABEL, o) for o in labels if o.lang or o.text != label)
            links = objects(subject, OWL_SAME_AS, preds.pop(OWL_SAME_AS), Iri) if OWL_SAME_AS in preds else ()
            entities[subject] = Entity(subject, label, frozenset(links))
            if SIM_HAS_VARIANT in preds:
                variant_edges += zip(repeat(subject), objects(subject, SIM_HAS_VARIANT, preds.pop(SIM_HAS_VARIANT), Iri))
            for pred, rest in preds.items():  # unknown predicates
                extras.update(zip(repeat(subject), repeat(pred), rest))
        else:
            if len(kinds) < len(types):
                unknown_types = [t for t in types if t not in KIND_BY_CLASS]
                # beside a kind, a role class is what a simulation that is also a member carries
                odd = [t for t in unknown_types if t not in ROLE_BY_CLASS] if kinds else unknown_types
                if odd:
                    first = _render_literal(odd[0]) if isinstance(odd[0], Literal) else odd[0]
                    fate = "kept as an extra triple" if kinds else "defaulting to the generic simulation"
                    print(f"unknown class {first} on {subject}, {fate}", file=sys.stderr)
                extras.update(zip(repeat(subject), repeat(RDF_TYPE), unknown_types))
            groups = [(), (), (), ()]  # simulacra, counterparts, contexts, sources
            for pred, found in preds.items():
                slot = MEMBER_SLOT.get(pred)
                if slot is None:  # an unknown predicate
                    extras.update(zip(repeat(subject), repeat(pred), found))
                    continue
                index, rel = slot
                if not all(map(isinstance, found, repeat(Iri))):  # one C-level pass clears the usual list
                    found = objects(subject, pred, found, Iri)
                groups[index] += tuple(found) if rel is None else tuple(zip(repeat(rel), found))
            for kind in kinds or (SimulationKind.GENERIC,):
                g._store(Simulation(subject, kind, *groups))

    for iri in chain(*g._index_of_role.values(), (v for _, v in variant_edges)):
        if iri not in entities:
            entities[iri] = Entity(iri, iri.local_name)
    for base, variant in variant_edges:
        g._add_variant_edge(base, variant)
    for subject, role in stated:
        g.state_role(subject, role)
    return g


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return import_turtle(fh.read())


def save_graph(g: Graph, path, force: bool = False) -> None:
    write_atomic(path, export_turtle(g, force=force))


def write_atomic(path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` in one step.

    The text goes to a new file in the same directory, which takes the
    permission bits of the file it replaces and is then renamed over
    ``path``; if anything fails, ``path`` is left as it was, the new file
    is removed and the ``OSError`` names ``path``.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                fh.write(text)
            try:
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:  # a new file keeps the mode the umask gives
                pass
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as err:  # the temporary name would differ from run to run
        raise OSError(err.errno, err.strerror, os.fspath(path)) from None
