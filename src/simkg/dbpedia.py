"""Converter from DBpedia-style triples into simulations.

Two extraction rules:

* rule A, ``?s dbp:symbol ?o``: the subject is the reality counterpart,
  the object the simulacrum, and the subject's types the contexts.
  Subjects typed as railway stations or public companies are dropped
  (station signage and tickers are icons, not cultural symbols).
* rule B, ``?s dct:subject <category>`` where the category label contains
  "symbol": the subject is the simulacrum and the cleaned category label
  the reality counterpart, in the general-or-unknown context.

Triples come either from a live SPARQL endpoint (paginated, with bounded
retry) or from an offline file of whitespace-separated triples.
"""

from __future__ import annotations

import re
import sys
import time
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Union
from urllib.parse import urlencode, urlsplit  # pathlib loads urllib.parse for every command

from .graph import RDF_TYPE
from .model import (
    IRI_CHAR,
    Conversion,
    EmptyLabelError,
    Entity,
    Iri,
    RcRelation,
    Simulation,
    SimulationKind,
    build_simulation,
    general_context,
    make_entity,
)
from .serialize import _unescape

DBP_SYMBOL = Iri("http://dbpedia.org/property/symbol")
DCT_SUBJECT = Iri("http://purl.org/dc/terms/subject")

# Prefixes accepted in offline triple files.
FILE_PREFIXES = {
    "dbr": "http://dbpedia.org/resource/",
    "dbc": "http://dbpedia.org/resource/Category:",
    "dbp": "http://dbpedia.org/property/",
    "dbo": "http://dbpedia.org/ontology/",
    "dct": "http://purl.org/dc/terms/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "skos": "http://www.w3.org/2004/02/skos/core#",
}

# Subject types whose dbp:symbol assertions are dropped; matched against the
# type IRI or its local name, so both bare names and full IRIs work.
DEFAULT_EXCLUDED_TYPES = frozenset({"RailwayStation", "PublicCompany"})

# Endpoint retry bounds: tries per page, the wait in seconds before the
# second try (doubled before each later one), and each request's timeout,
# which also caps the wait a Retry-After header asks for.
MAX_ATTEMPTS = 5
RETRY_WAIT = 0.5
TIMEOUT = 60.0

_CATEGORY_PREFIXES = re.compile(r"^(national symbols of|symbols of|symbol of)(?:\s+|\Z)", re.IGNORECASE)


class NetworkError(RuntimeError):
    """The endpoint could not be fetched; names the failing page."""


class MalformedResponseError(ValueError):
    """The endpoint (or an offline recording of it) returned nonsense."""


class SymbolPredicate(Enum):
    DBP_SYMBOL = "dbp_symbol"
    DCT_SUBJECT = "dct_subject"


class SymbolTriple(NamedTuple):
    subject: Iri
    predicate: SymbolPredicate
    object: Union[Iri, str]  # literal objects stay plain strings
    subject_types: tuple[Iri, ...] = ()


_SPARQL_JSON = "application/sparql-results+json"

_SYMBOL_QUERY = """\
SELECT ?s ?o ?type WHERE {{
  ?s <{dbp_symbol}> ?o .
  OPTIONAL {{ ?s a ?type }}
}} ORDER BY ?s ?o ?type LIMIT {limit} OFFSET {offset}"""

_CATEGORY_QUERY = """\
SELECT ?s ?o WHERE {{
  ?s <{dct_subject}> ?o .
  ?o a <http://www.w3.org/2004/02/skos/core#Concept> ;
     <http://www.w3.org/2000/01/rdf-schema#label> ?label .
  FILTER(CONTAINS(LCASE(STR(?label)), "symbol"))
}} ORDER BY ?s ?o LIMIT {limit} OFFSET {offset}"""


def fetch_symbol_data(endpoint: str, page_size: int = 10000) -> list[SymbolTriple]:
    """Fetch every symbol-bearing triple from a SPARQL endpoint.

    Pages with LIMIT/OFFSET and retries each page with exponential backoff
    (:data:`MAX_ATTEMPTS`, :data:`RETRY_WAIT`, :data:`TIMEOUT`); either the
    whole result arrives or the failing page is reported.  No partial result
    is ever returned silently.  A ``page_size`` below 1, or an ``endpoint``
    that :func:`check_endpoint` refuses, raises ``ValueError`` at once.
    """
    if page_size < 1:
        raise ValueError(f"page_size must be at least 1, got {page_size}")
    check_endpoint(endpoint)
    symbol_rows = _fetch_all_pages(endpoint, _SYMBOL_QUERY.replace("{dbp_symbol}", DBP_SYMBOL), page_size)
    category_rows = _fetch_all_pages(endpoint, _CATEGORY_QUERY.replace("{dct_subject}", DCT_SUBJECT), page_size)

    # the query's OPTIONAL gives every row of a subject the same types
    symbols: list[tuple[Iri, Union[Iri, str]]] = []
    types: dict[Iri, set[Iri]] = {}
    for row in symbol_rows:
        subject = _binding(row, "s")
        symbols.append((subject, _binding(row, "o", literal_ok=True)))
        if "type" in row:
            types.setdefault(subject, set()).add(_binding(row, "type"))
    categories = [(_binding(row, "s"), _binding(row, "o")) for row in category_rows]
    return _symbol_triples(symbols, types, categories)


def check_endpoint(endpoint: str) -> None:
    """Raise ``ValueError`` unless ``endpoint`` is an http or https URL with a
    host and a numeric port if any, in visible ASCII: no space, no control."""
    try:
        parts = urlsplit(endpoint)
        host, _ = parts.hostname, parts.port  # .port raises ValueError unless it is a number
    except ValueError:  # or for an unclosed '[' in the host
        host = None
    if not (host and parts.scheme in ("http", "https") and re.fullmatch("[!-~]+", endpoint)):
        raise ValueError(f"endpoint must be an http or https URL with a host, in visible ASCII, got {endpoint!r}")


def _fetch_all_pages(endpoint, query_template, page_size):
    """Every row of the query.  A server may answer fewer rows than asked
    for (Virtuoso caps each response at its ResultSetMaxRows), so a short
    page is not the last: the next page starts after the rows received,
    and only an empty page ends the result."""
    rows = []
    while page := _fetch_page(endpoint, query_template.format(limit=page_size, offset=len(rows)), len(rows)):
        rows.extend(page)
    return rows


def _fetch_page(endpoint, query, offset):
    # only the endpoint path loads the HTTP stack
    import gzip
    import json
    import urllib.request
    import zlib
    from http.client import HTTPException
    from urllib.error import HTTPError

    parts = urlsplit(endpoint)  # its own query string is kept
    params = "&".join(filter(None, [parts.query, urlencode({"query": query, "format": _SPARQL_JSON})]))
    url = parts._replace(query=params).geturl()
    request = urllib.request.Request(url, headers={"Accept": _SPARQL_JSON, "Accept-Encoding": "gzip"})
    last_error = retry_after = None
    for attempt in range(MAX_ATTEMPTS):
        if attempt:
            time.sleep(RETRY_WAIT * 2 ** (attempt - 1) if retry_after is None else retry_after)
            retry_after = None  # it replaces one wait only
        try:
            with urllib.request.urlopen(request, timeout=TIMEOUT) as response:
                status, headers, body = response.status, response.headers, response.read()
        except HTTPError as err:  # the answer to a status urlopen does not return
            err.close()
            status, headers, body = err.code, err.headers, b""
        except (OSError, HTTPException) as err:
            last_error = err
            print(f"page at offset {offset}, attempt {attempt + 1}/{MAX_ATTEMPTS} failed: {err}", file=sys.stderr)
            continue
        if status >= 500 or status == 429:
            last_error = RuntimeError(f"HTTP {status}")
            # a 429 or 503 may give the wait in delta-seconds (not an HTTP-date); at most TIMEOUT
            wait = headers.get("Retry-After", "").strip()
            retry_after = min(int(wait), TIMEOUT) if status in (429, 503) and re.fullmatch("[0-9]+", wait) else None
            print(f"page at offset {offset}, attempt {attempt + 1}/{MAX_ATTEMPTS}: HTTP {status}", file=sys.stderr)
            continue
        if status != 200:
            raise NetworkError(f"page at offset {offset}: HTTP {status} from {endpoint}")
        try:
            if headers.get("Content-Encoding", "").strip().lower() == "gzip":
                body = gzip.decompress(body)
            return json.loads(body)["results"]["bindings"]
        except (OSError, EOFError, zlib.error, ValueError, KeyError, TypeError) as err:
            raise MalformedResponseError(f"page at offset {offset}: not a SPARQL JSON result ({err})") from err
    raise NetworkError(f"page at offset {offset} failed after {MAX_ATTEMPTS} attempts: {last_error}")


def _binding(row: dict, var: str, literal_ok: bool = False) -> Union[Iri, str]:
    """The term bound to ``var``: an IRI, or where ``literal_ok`` is set a
    term that is not one, as its plain value."""
    try:
        b = row[var]
        kind, value = b.get("type"), b["value"]
    except (KeyError, TypeError, AttributeError) as err:
        raise MalformedResponseError(f"binding {var!r} missing from result row") from err
    if literal_ok and kind != "uri":
        return str(value)
    try:
        return Iri(value)
    except (ValueError, TypeError) as err:
        raise MalformedResponseError(f"endpoint returned a bad IRI: {err}") from None


def read_triples_file(path) -> list[SymbolTriple]:
    """Offline source: one triple per line, terminated by a period and
    optionally followed by a ``#`` comment.

    Terms are ``<iri>``, ``prefix:Local`` with the common DBpedia prefixes,
    or in object position an N-Triples literal, whose decoded lexical form
    is kept (its language tag or datatype is dropped).  Whitespace between
    terms is optional where N-Triples allows it.
    """
    symbols: list[tuple[Iri, Union[Iri, str]]] = []
    types: dict[Iri, set[Iri]] = {}
    categories: list[tuple[Iri, Iri]] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            m = _TRIPLE_RE.fullmatch(line)
            if m is None:
                if not _TERMINATOR_RE.search(line):
                    raise MalformedResponseError(f"line {lineno}: triple not terminated by '.'")
                raise MalformedResponseError(f"line {lineno}: expected 'subject predicate object .'")
            s_term, p_term, literal, o_term = m.groups()
            s = _expand_term(s_term, lineno)
            p = _expand_term(p_term, lineno)
            obj: Union[Iri, str] = _expand_term(o_term, lineno) if literal is None else _literal(literal, lineno)
            if p == DBP_SYMBOL:
                symbols.append((s, obj))
            elif not isinstance(obj, Iri):
                continue
            elif p == RDF_TYPE:
                types.setdefault(s, set()).add(obj)
            elif p == DCT_SUBJECT and "symbol" in _category_label(obj).lower():
                categories.append((s, obj))
    return _symbol_triples(symbols, types, categories)


def _symbol_triples(symbols, types, categories) -> list[SymbolTriple]:
    """Rule A's ``(subject, object)`` pairs, each with its subject's types
    (a dict of sets), and rule B's ``(subject, category)`` pairs, as one
    sorted list; both readers end here.  A pair is kept once, however
    often it was read, as an endpoint answers a statement once; a literal
    object is never the same term as an IRI of the same text."""
    pairs = dict.fromkeys((s, isinstance(o, Iri), o) for s, o in symbols)
    triples = [SymbolTriple(s, SymbolPredicate.DBP_SYMBOL, o, tuple(sorted(types.get(s, ())))) for s, _, o in pairs]
    triples += [SymbolTriple(s, SymbolPredicate.DCT_SUBJECT, category) for s, category in dict.fromkeys(categories)]
    triples.sort(key=lambda t: (t.subject, t.predicate.value, str(t.object), isinstance(t.object, Iri)))
    return triples


# One line of W3C RDF 1.1 N-Triples (https://www.w3.org/TR/n-triples/), plus
# the prefixed names of FILE_PREFIXES: subject, predicate, then an object that
# is either a literal (STRING_LITERAL_QUOTE, then an optional LANGTAG or
# ^^IRIREF) or a term, then '.' and an optional comment.  Terms need no
# whitespace between them.  A subject or predicate name runs to the next
# whitespace, '<' or '"', so it is never split in two; an object name gives
# up a final '.' to the terminator.  A '#' inside an IRI or a literal belongs
# to that term, so only a '#' after the '.' starts a comment.
_IRIREF = r"<[^\s>]*>"
_NAME = r'[^\s<>"]+'
_TRIPLE_RE = re.compile(
    rf'({_IRIREF}|{_NAME}(?![^\s<>"]))\s*({_IRIREF}|{_NAME}(?![^\s<>"]))\s*'
    rf'(?:"([^"\\\n\r]*(?:\\.[^"\\\n\r]*)*)"(?:@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*|\^\^<{IRI_CHAR}+>)?'
    rf"|({_IRIREF}|{_NAME}))\s*\.\s*(?:#.*)?"
)
_TERMINATOR_RE = re.compile(r"\.\s*(?:#.*)?$")


def _literal(body: str, lineno: int) -> str:
    """A literal's lexical form, its ECHAR and UCHAR escapes decoded."""
    try:
        return _unescape(body)
    except ValueError as err:
        raise MalformedResponseError(f"line {lineno}: {err}") from None


def _expand_term(term: str, lineno: int) -> Iri:
    try:
        if term.startswith("<") and term.endswith(">"):
            return Iri(term[1:-1])
        prefix, sep, local = term.partition(":")
        if sep and prefix in FILE_PREFIXES:
            return Iri(FILE_PREFIXES[prefix] + local)
    except ValueError as err:
        raise MalformedResponseError(f"line {lineno}: {err}") from None
    raise MalformedResponseError(f"line {lineno}: cannot resolve term {term!r}")


def _resource_label(iri: Iri) -> str:
    return iri.local_name.replace("_", " ").strip()


def _category_label(iri: Iri) -> str:
    label = _resource_label(iri)
    if label.lower().startswith("category:"):
        label = label[len("category:"):].strip()
    return label


def convert_dbpedia(
    triples: Iterable[SymbolTriple],
    source: Entity,
    excluded_types: Iterable[str] = DEFAULT_EXCLUDED_TYPES,
) -> Conversion:
    """Apply the two extraction rules; unconvertible rows are skipped with
    a warning, never fatal, and listed in ``skipped``."""
    excluded = {str(t) for t in excluded_types}
    out = Conversion([], [], [], [])
    for triple in triples:
        try:
            if triple.predicate is SymbolPredicate.DBP_SYMBOL:
                sim = _convert_symbol_row(triple, source, excluded, out)
            else:
                sim = _convert_category_row(triple, source, out)
        except EmptyLabelError as err:
            out.warnings.append(f"{triple.subject}: skipped ({err})")
            sim = None
        if sim is None:
            out.skipped.append(triple)
        else:
            out.simulations.append(sim)
    out.simulations.sort(key=lambda s: s.id)
    out.warnings[:] = dict.fromkeys(out.warnings)  # rows of one subject give its warning once
    return out


def _convert_symbol_row(triple, source, excluded, out) -> Optional[Simulation[Entity]]:
    dropped = [t for t in triple.subject_types if t in excluded or t.local_name in excluded]
    if dropped:
        out.warnings.append(f"{triple.subject}: excluded subject type {dropped[0].local_name}")
        return None
    rc = make_entity(_resource_label(triple.subject))
    simulacrum = make_entity(_resource_label(triple.object) if isinstance(triple.object, Iri) else triple.object)
    if triple.subject_types:
        contexts = [make_entity(_resource_label(t)) for t in triple.subject_types]
    else:
        contexts = [general_context()]
    return build_simulation(SimulationKind.GENERIC, simulacrum, [(RcRelation.HAS, rc)], contexts, [source])


def _convert_category_row(triple, source, out) -> Optional[Simulation[Entity]]:
    label = _category_label(triple.object) if isinstance(triple.object, Iri) else str(triple.object)
    cleaned = _CATEGORY_PREFIXES.sub("", label).strip()
    if not cleaned:
        out.warnings.append(f"{triple.subject}: category {triple.object} empty after cleaning")
        return None
    simulacrum = make_entity(_resource_label(triple.subject))
    rc = make_entity(cleaned)
    return build_simulation(
        SimulationKind.GENERIC, simulacrum, [(RcRelation.HAS, rc)], [general_context()], [source]
    )
