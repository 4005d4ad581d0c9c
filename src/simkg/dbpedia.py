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

import logging
import re
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .graph import RDF_TYPE
from .model import (
    EmptyLabelError,
    Entity,
    Iri,
    RcRelation,
    Role,
    Simulation,
    SimulationKind,
    build_simulation,
    general_context,
    make_entity,
)

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

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

_CATEGORY_PREFIXES = re.compile(r"^(national symbols of|symbols of|symbol of)\s+", re.IGNORECASE)


class NetworkError(RuntimeError):
    """The endpoint could not be fetched; names the failing page."""


class MalformedResponseError(ValueError):
    """The endpoint (or an offline recording of it) returned nonsense."""


class SymbolPredicate(Enum):
    DBP_SYMBOL = "dbp_symbol"
    DCT_SUBJECT = "dct_subject"


@dataclass(frozen=True, slots=True)
class SymbolTriple:
    subject: Iri
    predicate: SymbolPredicate
    object: Union[Iri, str]  # literal objects stay plain strings
    subject_types: tuple[Iri, ...] = ()


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


def fetch_symbol_data(
    endpoint: str,
    page_size: int = 10000,
    session: Optional[requests.Session] = None,
    max_attempts: int = 5,
    retry_wait: float = 0.5,
    timeout: float = 60.0,
) -> list[SymbolTriple]:
    """Fetch every symbol-bearing triple from a SPARQL endpoint.

    Pages with LIMIT/OFFSET and retries each page with exponential backoff;
    either the whole result arrives or the failing page is reported.  No
    partial result is ever returned silently.
    """
    import requests  # only the endpoint path needs the HTTP stack

    own_session = session is None
    http = session or requests.Session()
    try:
        symbol_rows = _fetch_all_pages(
            http, endpoint, _SYMBOL_QUERY.replace("{dbp_symbol}", DBP_SYMBOL),
            page_size, max_attempts, retry_wait, timeout,
        )
        category_rows = _fetch_all_pages(
            http, endpoint, _CATEGORY_QUERY.replace("{dct_subject}", DCT_SUBJECT),
            page_size, max_attempts, retry_wait, timeout,
        )
    finally:
        if own_session:
            http.close()

    grouped: dict[tuple[Iri, Union[Iri, str]], set[Iri]] = {}
    for row in symbol_rows:
        subject = _binding_iri(row, "s")
        obj = _binding_value(row, "o")
        types = grouped.setdefault((subject, obj), set())
        if "type" in row:
            types.add(_binding_iri(row, "type"))
    triples = [
        SymbolTriple(subject=s, predicate=SymbolPredicate.DBP_SYMBOL, object=o, subject_types=tuple(sorted(types)))
        for (s, o), types in grouped.items()
    ]
    for row in category_rows:
        triples.append(
            SymbolTriple(
                subject=_binding_iri(row, "s"),
                predicate=SymbolPredicate.DCT_SUBJECT,
                object=_binding_iri(row, "o"),
            )
        )
    triples.sort(key=lambda t: (t.subject, t.predicate.value, str(t.object)))
    return triples


def _fetch_all_pages(http, endpoint, query_template, page_size, max_attempts, retry_wait, timeout):
    rows = []
    offset = 0
    while True:
        query = query_template.format(limit=page_size, offset=offset)
        page = _fetch_page(http, endpoint, query, offset, max_attempts, retry_wait, timeout)
        rows.extend(page)
        if len(page) < page_size:
            return rows
        offset += page_size


def _fetch_page(http, endpoint, query, offset, max_attempts, retry_wait, timeout):
    import requests

    last_error = None
    for attempt in range(max_attempts):
        if attempt:
            time.sleep(retry_wait * 2 ** (attempt - 1))
        try:
            response = http.get(
                endpoint,
                params={"query": query, "format": "application/sparql-results+json"},
                headers={"Accept": "application/sparql-results+json"},
                timeout=timeout,
            )
        except requests.RequestException as err:
            last_error = err
            logger.warning("page at offset %d, attempt %d/%d failed: %s", offset, attempt + 1, max_attempts, err)
            continue
        if response.status_code >= 500 or response.status_code == 429:
            last_error = RuntimeError(f"HTTP {response.status_code}")
            logger.warning("page at offset %d, attempt %d/%d: HTTP %d", offset, attempt + 1, max_attempts, response.status_code)
            continue
        if response.status_code != 200:
            raise NetworkError(f"page at offset {offset}: HTTP {response.status_code} from {endpoint}")
        try:
            payload = response.json()
            return payload["results"]["bindings"]
        except (ValueError, KeyError, TypeError) as err:
            raise MalformedResponseError(f"page at offset {offset}: not a SPARQL JSON result ({err})") from err
    raise NetworkError(f"page at offset {offset} failed after {max_attempts} attempts: {last_error}")


def _binding_iri(row: dict, var: str) -> Iri:
    return _endpoint_iri(_binding(row, var)[1])


def _binding_value(row: dict, var: str) -> Union[Iri, str]:
    kind, value = _binding(row, var)
    return _endpoint_iri(value) if kind == "uri" else str(value)


def _endpoint_iri(value) -> Iri:
    try:
        return Iri(value)
    except (ValueError, TypeError) as err:
        raise MalformedResponseError(f"endpoint returned a bad IRI: {err}") from None


def _binding(row: dict, var: str) -> tuple[Optional[str], object]:
    """The binding's ``type`` and ``value``."""
    try:
        b = row[var]
        return b.get("type"), b["value"]
    except (KeyError, TypeError, AttributeError) as err:
        raise MalformedResponseError(f"binding {var!r} missing from result row") from err


def read_triples_file(path) -> list[SymbolTriple]:
    """Offline source: one triple per line, terminated by a period.

    Terms are ``<iri>``, ``prefix:Local`` with the common DBpedia prefixes,
    or a quoted literal in object position.
    """
    types: dict[Iri, set[Iri]] = {}
    raw_rows: list[tuple[Iri, Iri, Union[Iri, str]]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not line.endswith("."):
                raise MalformedResponseError(f"line {lineno}: triple not terminated by '.'")
            parts = _split_triple(line[:-1].strip(), lineno)
            s = _expand_term(parts[0], lineno)
            p = _expand_term(parts[1], lineno)
            o = parts[2]
            obj: Union[Iri, str] = o[1:-1] if o.startswith('"') else _expand_term(o, lineno)
            if not isinstance(s, Iri) or not isinstance(p, Iri):
                raise MalformedResponseError(f"line {lineno}: subject and predicate must be IRIs")
            if p == RDF_TYPE and isinstance(obj, Iri):
                types.setdefault(s, set()).add(obj)
            else:
                raw_rows.append((s, p, obj))

    triples = []
    for s, p, obj in raw_rows:
        if p == DBP_SYMBOL:
            triples.append(
                SymbolTriple(s, SymbolPredicate.DBP_SYMBOL, obj, tuple(sorted(types.get(s, ()))))
            )
        elif p == DCT_SUBJECT and isinstance(obj, Iri):
            if "symbol" in _category_label(obj).lower():
                triples.append(SymbolTriple(s, SymbolPredicate.DCT_SUBJECT, obj))
        else:
            logger.debug("ignoring unrelated triple %s %s %s", s, p, obj)
    triples.sort(key=lambda t: (t.subject, t.predicate.value, str(t.object)))
    return triples


def _split_triple(body: str, lineno: int) -> tuple[str, str, str]:
    m = re.fullmatch(r'(\S+)\s+(\S+)\s+(".*"|\S+)', body)
    if m is None:
        raise MalformedResponseError(f"line {lineno}: expected 'subject predicate object .'")
    return m.group(1), m.group(2), m.group(3)


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


def _object_label(obj: Union[Iri, str]) -> str:
    return _resource_label(obj) if isinstance(obj, Iri) else obj


@dataclass(slots=True)
class DbpediaConversion:
    simulations: list[Simulation] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def convert_dbpedia(
    triples: Iterable[SymbolTriple],
    source: Entity,
    excluded_types: Iterable[str] = DEFAULT_EXCLUDED_TYPES,
) -> DbpediaConversion:
    """Apply the two extraction rules; unconvertible rows are logged and
    skipped, never fatal."""
    excluded = {str(t) for t in excluded_types}
    out = DbpediaConversion()
    for triple in triples:
        try:
            if triple.predicate is SymbolPredicate.DBP_SYMBOL:
                sim = _convert_symbol_row(triple, source, excluded, out)
            else:
                sim = _convert_category_row(triple, source, out)
        except EmptyLabelError as err:
            out.warnings.append(f"{triple.subject}: skipped ({err})")
            continue
        if sim is not None:
            out.simulations.append(sim)
    out.simulations.sort(key=lambda s: s.id)
    return out


def _convert_symbol_row(triple, source, excluded, out) -> Optional[Simulation]:
    dropped = [t for t in triple.subject_types if t in excluded or t.local_name in excluded]
    if dropped:
        out.warnings.append(f"{triple.subject}: excluded subject type {dropped[0].local_name}")
        return None
    rc = make_entity(_resource_label(triple.subject), Role.REALITY_COUNTERPART)
    simulacrum = make_entity(_object_label(triple.object), Role.SIMULACRUM)
    if triple.subject_types:
        contexts = [make_entity(_resource_label(t), Role.CONTEXT) for t in triple.subject_types]
    else:
        contexts = [general_context()]
    return build_simulation(SimulationKind.GENERIC, simulacrum, [(RcRelation.HAS, rc)], contexts, [source])


def _convert_category_row(triple, source, out) -> Optional[Simulation]:
    label = _category_label(triple.object) if isinstance(triple.object, Iri) else str(triple.object)
    cleaned = _CATEGORY_PREFIXES.sub("", label).strip()
    if not cleaned:
        out.warnings.append(f"{triple.subject}: category {triple.object} empty after cleaning")
        return None
    simulacrum = make_entity(_resource_label(triple.subject), Role.SIMULACRUM)
    rc = make_entity(cleaned, Role.REALITY_COUNTERPART)
    return build_simulation(
        SimulationKind.GENERIC, simulacrum, [(RcRelation.HAS, rc)], [general_context()], [source]
    )
