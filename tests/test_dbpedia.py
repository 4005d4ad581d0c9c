import contextlib
import gzip
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest

import simkg
from conftest import FIXTURES
from simkg import (
    Iri,
    MalformedResponseError,
    NetworkError,
    SymbolPredicate,
    SymbolTriple,
    convert_dbpedia,
    fetch_symbol_data,
    make_entity,
    read_triples_file,
)
from simkg.cli import main
from simkg.dbpedia import FILE_PREFIXES
from simkg.model import KB


@pytest.fixture
def source():
    return make_entity("DBpedia")


@pytest.fixture(autouse=True)
def _short_retry_wait(monkeypatch):
    monkeypatch.setattr("simkg.dbpedia.RETRY_WAIT", 0.001)


class TestTriplesFile:
    def test_eagle_fixture(self):
        triples = read_triples_file(FIXTURES / "eagle.nt")
        by_subject = {(t.subject.local_name, t.predicate) for t in triples}
        assert ("Eagle", SymbolPredicate.DCT_SUBJECT) in by_subject
        # the Birds_of_prey category has no "symbol" in its label
        eagle_rows = [t for t in triples if t.subject.local_name == "Eagle"]
        assert len(eagle_rows) == 1
        zeus = next(t for t in triples if t.subject.local_name == "Zeus")
        assert zeus.subject_types == (Iri("http://dbpedia.org/ontology/Deity"),)
        assert zeus.object == Iri("http://dbpedia.org/resource/Thunderbolt")

    def test_literal_objects_kept_as_strings(self):
        triples = read_triples_file(FIXTURES / "eagle.nt")
        atocha = next(t for t in triples if "Atocha" in t.subject)
        assert atocha.object == "metro"

    def test_tagged_typed_and_escaped_literals(self, tmp_path):
        # W3C RDF 1.1 N-Triples literals: the label is the decoded lexical form
        nt = tmp_path / "literals.nt"
        nt.write_text(
            'dbr:Leek dbp:symbol "Leek"@en .\n'
            'dbr:Peru dbp:symbol "Condor"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
            'dbr:Bolivia dbp:symbol "Vicu\\u00f1a" .\n'
            'dbr:Spain dbp:symbol "Bull fighting"@es .\n'
            'dbr:Chile dbp:symbol "Say \\"hi\\"\\t\\\\ \\U0001F985"@en-GB.\n',
            encoding="utf-8",
        )
        objects = {t.subject.local_name: t.object for t in read_triples_file(nt)}
        assert objects == {
            "Leek": "Leek",
            "Peru": "Condor",
            "Bolivia": "Vicuña",
            "Spain": "Bull fighting",
            "Chile": 'Say "hi"\t\\ \U0001F985',
        }
        out = convert_dbpedia(read_triples_file(nt), make_entity("DBpedia"))
        assert sorted(s.id.local_name for s in out.simulations) == [
            "bullFighting-spain", "condor-peru", "leek-leek", "sayHi-chile", "vicuña-bolivia",
        ]

    @pytest.mark.parametrize(
        "obj, message",
        [
            ('"peace', "expected 'subject predicate object .'"),
            ('"peace"@', "expected 'subject predicate object .'"),
            ('"peace"^^xsd:string', "expected 'subject predicate object .'"),
            ('"peace" "war"', "expected 'subject predicate object .'"),
            ('"pe\\qce"', "unknown escape \\q"),
            ('"pe\\u12G4ce"', "bad unicode escape \\u12G4"),
            ('"pe\\uDFFFce"', "bad unicode escape \\uDFFF"),
        ],
    )
    def test_malformed_literal_names_the_line(self, tmp_path, obj, message):
        nt = tmp_path / "bad.nt"
        nt.write_text(f"dbr:A dbp:symbol dbr:B .\ndbr:A dbp:symbol {obj} .\n", encoding="utf-8")
        with pytest.raises(MalformedResponseError) as err:
            read_triples_file(nt)
        assert str(err.value) == f"line 2: {message}"

    @pytest.mark.parametrize(
        "line, subject, obj",
        [
            ('dbr:A dbp:symbol "peace" . # from the 2016 dump', "A", "peace"),
            ("dbr:A dbp:symbol dbr:Dove .# no space before the comment", "A", Iri("http://dbpedia.org/resource/Dove")),
            ("dbr:A dbp:symbol dbr:Dove.", "A", Iri("http://dbpedia.org/resource/Dove")),
            ('<http://dbpedia.org/resource/A><http://dbpedia.org/property/symbol>"peace".', "A", "peace"),
            ('<http://dbpedia.org/resource/A><http://dbpedia.org/property/symbol>"peace"@en.#c', "A", "peace"),
            ("<http://dbpedia.org/resource/A><http://dbpedia.org/property/symbol><http://dbpedia.org/resource/B>.",
             "A", Iri("http://dbpedia.org/resource/B")),
            ("<http://example.org/x#A> dbp:symbol <http://example.org/x#Dove> .", "A", Iri("http://example.org/x#Dove")),
            ('dbr:A dbp:symbol "no. #1" . # a "#" in a literal is text', "A", "no. #1"),
        ],
        ids=["comment", "comment-after-dot", "dot-after-name", "no-whitespace", "no-whitespace-tagged",
             "no-whitespace-iris", "hash-in-iri", "hash-in-literal"],
    )
    def test_n_triples_comments_and_spacing(self, tmp_path, line, subject, obj):
        # W3C RDF 1.1 N-Triples: a comment may follow the '.', and terms
        # need no whitespace between them
        nt = tmp_path / "forms.nt"
        nt.write_text(line + "\n", encoding="utf-8")
        [triple] = read_triples_file(nt)
        assert (triple.subject.local_name, triple.predicate, triple.object) == (subject, SymbolPredicate.DBP_SYMBOL, obj)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("dbr:A dbp:symbol dbr:B # no final dot", "triple not terminated by '.'"),
            ("dbr:A dbp:symbol <http://example.org/a.b> # no final dot", "triple not terminated by '.'"),
            ('dbr:A dbp:symbol "peace" "war" . # two objects', "expected 'subject predicate object .'"),
            ('dbr:A dbp:symbol "peace" # "." is inside the comment .', "expected 'subject predicate object .'"),
            ("<http://dbpedia.org/resource/A#> . dbp:symbol dbr:B .", "expected 'subject predicate object .'"),
            ("dbr:Adbp:symbol dbr:B .", "expected 'subject predicate object .'"),
        ],
    )
    def test_comment_is_not_a_terminator(self, tmp_path, line, message):
        nt = tmp_path / "bad.nt"
        nt.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(MalformedResponseError) as err:
            read_triples_file(nt)
        assert str(err.value) == f"line 1: {message}"

    def test_repeated_statement_counts_once(self, tmp_path, capsys):
        # an endpoint answers a statement once, however often a dump repeats it
        nt = tmp_path / "repeated.nt"
        nt.write_text(
            "dbr:Zeus dbp:symbol dbr:Thunderbolt .\n"
            "dbr:Zeus dbp:symbol dbr:Thunderbolt .\n"
            "dbr:Zeus dbp:symbol <http://dbpedia.org/resource/Thunderbolt> .\n",
            encoding="utf-8",
        )
        assert len(read_triples_file(nt)) == 1
        assert main(["ingest-dbpedia", "--triples", str(nt), "--out", str(tmp_path / "out.ttl")]) == 0
        assert capsys.readouterr().err.splitlines()[-1] == "1 triples -> 1 simulations"

    def test_repeated_category_counts_once(self, tmp_path):
        nt = tmp_path / "repeated.nt"
        nt.write_text(
            "dbr:Dove dct:subject dbc:Symbols_of_peace .\n"
            "<http://dbpedia.org/resource/Dove> dct:subject dbc:Symbols_of_peace .\n",
            encoding="utf-8",
        )
        [triple] = read_triples_file(nt)
        assert triple.predicate is SymbolPredicate.DCT_SUBJECT

    def test_literal_and_iri_of_the_same_text_are_two_objects(self, tmp_path, capsys):
        lines = [
            "dbr:Zeus dbp:symbol dbr:Thunderbolt .",
            'dbr:Zeus dbp:symbol "http://dbpedia.org/resource/Thunderbolt" .',
        ]
        thunderbolt = "http://dbpedia.org/resource/Thunderbolt"
        for name, order in (("iri-first", lines), ("literal-first", lines[::-1])):
            nt = tmp_path / f"{name}.nt"
            nt.write_text("\n".join(order) + "\n", encoding="utf-8")
            # either line order gives the same list: the literal sorts first
            assert [(type(t.object), t.object) for t in read_triples_file(nt)] == [(str, thunderbolt), (Iri, thunderbolt)]
            assert main(["ingest-dbpedia", "--triples", str(nt), "--out", str(tmp_path / f"{name}.ttl")]) == 0
            assert capsys.readouterr().err.splitlines()[-1].startswith("2 triples -> ")
        assert (tmp_path / "iri-first.ttl").read_bytes() == (tmp_path / "literal-first.ttl").read_bytes()

    def test_unterminated_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("dbr:A dbp:symbol dbr:B\n", encoding="utf-8")
        with pytest.raises(MalformedResponseError):
            read_triples_file(bad)


class TestConvert:
    def test_eagle_rule_b(self, source):
        triples = [
            SymbolTriple(
                Iri("http://dbpedia.org/resource/Eagle"),
                SymbolPredicate.DCT_SUBJECT,
                Iri("http://dbpedia.org/resource/Category:National_symbols_of_Liechtenstein"),
            )
        ]
        out = convert_dbpedia(triples, source)
        sim = out.simulations[0]
        assert sim.id == Iri(KB + "eagle-liechtenstein")
        assert sim.simulacrum.id.local_name == "eagle"
        assert sim.contexts[0].id.local_name == "generalOrUnknown"

    def test_zeus_rule_a(self, source):
        triples = [
            SymbolTriple(
                Iri("http://dbpedia.org/resource/Zeus"),
                SymbolPredicate.DBP_SYMBOL,
                Iri("http://dbpedia.org/resource/Thunderbolt"),
                (Iri("http://dbpedia.org/ontology/Deity"),),
            )
        ]
        out = convert_dbpedia(triples, source)
        sim = out.simulations[0]
        assert sim.simulacrum.id.local_name == "thunderbolt"
        assert [e.id.local_name for _, e in sim.reality_counterparts] == ["zeus"]
        assert [c.id.local_name for c in sim.contexts] == ["deity"]

    def test_railway_station_dropped(self, source):
        triples = [
            SymbolTriple(
                Iri("http://dbpedia.org/resource/Madrid_Atocha_railway_station"),
                SymbolPredicate.DBP_SYMBOL,
                "metro",
                (Iri("http://dbpedia.org/ontology/RailwayStation"),),
            )
        ]
        out = convert_dbpedia(triples, source)
        assert out.simulations == []
        assert any("RailwayStation" in w for w in out.warnings)

    def test_excluded_subject_is_warned_about_once(self, source, tmp_path, capsys):
        nt = tmp_path / "station.nt"
        nt.write_text(
            'dbr:Atocha dbp:symbol "metro" .\n'
            "dbr:Atocha dbp:symbol dbr:Clock .\n"
            "dbr:Atocha rdf:type dbo:RailwayStation .\n",
            encoding="utf-8",
        )
        out = convert_dbpedia(read_triples_file(nt), source)
        assert len(out.skipped) == 2  # every row is still listed
        assert main(["ingest-dbpedia", "--triples", str(nt)]) == 0
        assert capsys.readouterr().err == (
            "warning: http://dbpedia.org/resource/Atocha: excluded subject type RailwayStation\n"
            "2 triples -> 0 simulations\n"
        )

    def test_rule_b_context_always_general(self, source):
        out = convert_dbpedia(read_triples_file(FIXTURES / "eagle.nt"), source)
        rule_b = [s for s in out.simulations if s.id.local_name == "eagle-liechtenstein"]
        assert rule_b and [c.id.local_name for c in rule_b[0].contexts] == ["generalOrUnknown"]

    def test_no_excluded_type_survives(self, source):
        out = convert_dbpedia(read_triples_file(FIXTURES / "eagle.nt"), source)
        rc_ids = {e.id.local_name for s in out.simulations for _, e in s.reality_counterparts}
        assert "madridAtochaRailwayStation" not in rc_ids

    def test_subject_without_types_gets_general_context(self, source):
        triples = [
            SymbolTriple(Iri("http://dbpedia.org/resource/Truce"), SymbolPredicate.DBP_SYMBOL, "white flag")
        ]
        out = convert_dbpedia(triples, source)
        sim = out.simulations[0]
        assert sim.id.local_name == "whiteFlag-truce"
        assert [c.id.local_name for c in sim.contexts] == ["generalOrUnknown"]

    @pytest.mark.parametrize(
        "category, shown",
        [
            (Iri("http://dbpedia.org/resource/Category:"), "http://dbpedia.org/resource/Category:"),
            ("Symbols of ", "Symbols of "),
            *[
                (Iri(f"http://dbpedia.org/resource/Category:{name}"), f"http://dbpedia.org/resource/Category:{name}")
                for name in ("Symbols_of", "Symbol_of", "National_symbols_of")
            ],
        ],
        ids=["empty-iri-label", "prefix-only-literal", "Symbols_of", "Symbol_of", "National_symbols_of"],
    )
    def test_category_empty_after_cleaning_is_a_warning(self, category, shown, source):
        subject = Iri("http://dbpedia.org/resource/X")
        out = convert_dbpedia([SymbolTriple(subject, SymbolPredicate.DCT_SUBJECT, category)], source)
        assert out.simulations == []
        assert out.warnings == [f"{subject}: category {shown} empty after cleaning"]

    def test_extra_exclusions_are_config(self, source):
        triples = [
            SymbolTriple(
                Iri("http://dbpedia.org/resource/Acme"),
                SymbolPredicate.DBP_SYMBOL,
                "anvil",
                (Iri("http://dbpedia.org/ontology/Cartoon"),),
            )
        ]
        assert convert_dbpedia(triples, source).simulations
        out = convert_dbpedia(triples, source, excluded_types={"Cartoon"})
        assert out.simulations == []

    def test_source_attached_everywhere(self, source):
        out = convert_dbpedia(read_triples_file(FIXTURES / "eagle.nt"), source)
        assert all(s.sources[0].id.local_name == "dbpedia" for s in out.simulations)

    def test_conversion_pure_function_of_triples(self, source):
        triples = read_triples_file(FIXTURES / "eagle.nt")
        a = [s.id for s in convert_dbpedia(triples, source).simulations]
        b = [s.id for s in convert_dbpedia(triples, source).simulations]
        assert a == b


# -- a loopback SPARQL endpoint ------------------------------------------------

DROP = "drop"  # a script step: close the connection without an answer
STALL = "stall"  # a script step, or the body of one: send nothing more for STALL_S
STALL_S = 1.0  # well over the TIMEOUT of the tests that stall


def _load_fixture(name):
    return json.loads((FIXTURES / "dbpedia" / name).read_text(encoding="utf-8"))


def _offsets(log):
    """The OFFSET of each request in a ``_local_endpoint`` log."""
    return [re.search(r"OFFSET (\d+)", parse_qs(urlsplit(path).query)["query"][0]).group(1) for path in log]


class _SparqlHandler(BaseHTTPRequestHandler):
    """Miniature SPARQL endpoint.  Each request's path is appended to
    ``log``.  While ``script`` has steps, a request takes the next one:
    DROP, STALL, or a ``(status, headers, body)`` answer whose body is
    bytes, a JSON value or STALL.  After that it serves the fixture rows with
    LIMIT/OFFSET pagination, at most ``row_cap`` rows a request when that
    is set, as a Virtuoso server capped by its ResultSetMaxRows setting
    does, and gzip-encoded when ``gzip`` is set.  A request that does not
    accept SPARQL JSON, or gzip where the pages are gzip-encoded, gets a
    406."""

    script: list = []
    log: list = []
    row_cap = None
    gzip = False
    symbol_rows = _load_fixture("symbol_page.json")["results"]["bindings"]
    category_rows = _load_fixture("category_page.json")["results"]["bindings"]

    def do_GET(self):
        self.log.append(self.path)
        step = self.script.pop(0) if self.script else self._fixture_page()
        if step == STALL:
            time.sleep(STALL_S)
        if step in (DROP, STALL):
            return
        status, headers, body = step
        if isinstance(body, (dict, list)):
            body = json.dumps(body).encode()
        self.send_response(status)
        for name, value in {"Content-Length": str(len(body)), **headers}.items():
            self.send_header(name, value)
        self.end_headers()
        if body == STALL:
            self.wfile.flush()
            time.sleep(STALL_S)
        else:
            self.wfile.write(body)

    def _fixture_page(self):
        accept, encoding = self.headers.get("Accept", ""), self.headers.get("Accept-Encoding", "")
        if "application/sparql-results+json" not in accept or (self.gzip and "gzip" not in encoding):
            return 406, {}, b""
        query = parse_qs(urlsplit(self.path).query)["query"][0]
        rows = self.symbol_rows if "symbol>" in query else self.category_rows
        limit = int(re.search(r"LIMIT (\d+)", query).group(1))
        if self.row_cap is not None:
            limit = min(limit, self.row_cap)
        offset = int(re.search(r"OFFSET (\d+)", query).group(1))
        body = json.dumps({"results": {"bindings": rows[offset : offset + limit]}}).encode()
        headers = {"Content-Type": "application/sparql-results+json"}
        if self.gzip:
            body, headers["Content-Encoding"] = gzip.compress(body), "gzip"
        return 200, headers, body

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _local_endpoint(script=(), log=None, row_cap=None, gzip=False, **rows):
    """The URL of a :class:`_SparqlHandler` served on a loopback port, which
    appends each request's path to ``log`` when that is given;
    ``symbol_rows`` and ``category_rows`` replace the fixture rows."""
    attrs = {"script": list(script), "log": [] if log is None else log, "row_cap": row_cap, "gzip": gzip, **rows}
    server = ThreadingHTTPServer(("127.0.0.1", 0), type("Handler", (_SparqlHandler,), attrs))
    # a short poll, as shutdown() waits out one: the default 0.5 s would dominate each test
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/sparql"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def _fetch(script=(), log=None, **kwargs):
    """``fetch_symbol_data`` on a loopback endpoint that has no fixture rows."""
    with _local_endpoint(script, log, symbol_rows=[], category_rows=[]) as endpoint:
        return fetch_symbol_data(endpoint, **kwargs)


UNUSABLE_ENDPOINTS = {
    "no-scheme": "nonsense",
    "no-host": "http://",
    "empty-host": "http:///sparql",
    "space": "http://exa mple.org/sparql",
    "open-bracket": "https://[::1/x",
    "ftp": "ftp://example.org/sparql",
    "file": "file:///etc/hosts",
    "data": "data:,hello",
    "port-not-a-number": "http://example.org:port/sparql",
    "control-character": "http://example.org/\x7fsparql",
    "newline": "http://example.org/sparql\n",
    "leading-space": " http://example.org/sparql",
    "non-ascii-path": "http://example.org/spärql",
    "non-ascii-host": "http://exämple.org/sparql",
    "empty": "",
}


class TestFetch:
    def test_recorded_responses_three_rows(self):
        log = []
        with _local_endpoint(log=log) as endpoint:
            triples = fetch_symbol_data(endpoint, page_size=100)
        assert len(triples) == 3
        # only an empty page ends a query
        assert _offsets(log) == ["0", "2", "0", "1"]
        predicates = sorted(t.predicate.value for t in triples)
        assert predicates == ["dbp_symbol", "dbp_symbol", "dct_subject"]
        zeus = next(t for t in triples if t.subject.local_name == "Zeus")
        assert zeus.subject_types == (Iri("http://dbpedia.org/ontology/Deity"),)

    def test_zero_rows(self):
        log = []
        assert _fetch(log=log) == []
        assert len(log) == 2

    @pytest.mark.parametrize("status", [503, 429])
    def test_retry_then_success(self, status, capsys):
        log = []
        assert _fetch([(status, {}, b"")], log) == []
        assert len(log) == 3
        assert capsys.readouterr().err == f"page at offset 0, attempt 1/5: HTTP {status}\n"

    @pytest.mark.parametrize(
        "status, retry_after, waits",
        [
            (429, "2", [2]),
            (503, " 7 ", [7]),
            (429, "99999", [simkg.dbpedia.TIMEOUT]),
            (429, "soon", [0.001]),
            (503, "Wed, 21 Oct 2026 07:28:00 GMT", [0.001]),
            (429, "-1", [0.001]),
            (429, "1.5", [0.001]),
            (500, "2", [0.001]),  # only a 429 or a 503 says when to come back
            (429, None, [0.001]),
        ],
    )
    def test_retry_after_replaces_the_next_wait(self, status, retry_after, waits, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        headers = {"Retry-After": retry_after} if retry_after is not None else {}
        assert _fetch([(status, headers, b"")]) == []
        assert slept == waits

    def test_retry_after_is_not_kept_for_later_waits(self, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        assert _fetch([(429, {"Retry-After": "3"}, b""), DROP, (503, {}, b"")]) == []
        assert slept == [3, 0.002, 0.004]

    def test_gives_up_after_max_attempts_naming_page(self, capsys):
        with pytest.raises(NetworkError) as err:
            _fetch([(500, {}, b"")] * 5)
        assert str(err.value) == "page at offset 0 failed after 5 attempts: HTTP 500"
        assert capsys.readouterr().err == "".join(f"page at offset 0, attempt {a}/5: HTTP 500\n" for a in range(1, 6))

    def test_unreachable_endpoint_fails_after_max_attempts(self, capsys):
        with socket.socket() as sock:  # a loopback port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            endpoint = f"http://127.0.0.1:{sock.getsockname()[1]}/sparql"
        with pytest.raises(NetworkError, match=r"^page at offset 0 failed after 5 attempts: "):
            fetch_symbol_data(endpoint)
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" failed: ")[0] for line in lines] == [f"page at offset 0, attempt {a}/5" for a in range(1, 6)]

    @pytest.mark.parametrize(
        "body",
        [{"unexpected": True}, b"<html>busy</html>", b"", [], {"results": []}],
        ids=["no-results", "html", "empty", "list", "no-bindings"],
    )
    def test_malformed_response(self, body):
        with pytest.raises(MalformedResponseError, match=r"^page at offset 0: not a SPARQL JSON result \("):
            _fetch([(200, {}, body)])

    @pytest.mark.parametrize("binding", [{"type": "uri"}, "http://dbpedia.org/resource/Zeus"])
    def test_binding_without_value_is_a_malformed_response(self, binding):
        row = {"s": binding, "o": {"type": "literal", "value": "x"}}
        with _local_endpoint(symbol_rows=[row], category_rows=[]) as endpoint:
            with pytest.raises(MalformedResponseError, match="binding 's'"):
                fetch_symbol_data(endpoint)

    @pytest.mark.parametrize(
        "fault", [DROP, (200, {"Content-Length": "1000"}, b'{"results"')], ids=["dropped-connection", "cut-body"]
    )
    def test_connection_error_is_retried(self, fault, capsys):
        log = []
        assert _fetch([fault], log) == []
        assert len(log) == 3
        assert capsys.readouterr().err.startswith("page at offset 0, attempt 1/5 failed: ")

    @pytest.mark.parametrize("stall", [STALL, (200, {"Content-Length": "100"}, STALL)], ids=["headers", "body"])
    def test_response_slower_than_the_timeout_is_retried(self, stall, monkeypatch, capsys):
        monkeypatch.setattr("simkg.dbpedia.TIMEOUT", 0.2)
        log = []
        with _local_endpoint([stall], log) as endpoint:
            assert len(fetch_symbol_data(endpoint)) == 3
        assert _offsets(log) == ["0", "0", "2", "0", "1"]
        assert capsys.readouterr().err == "page at offset 0, attempt 1/5 failed: timed out\n"

    def test_gzip_encoded_pages_give_the_same_triples(self):
        with _local_endpoint(gzip=True) as endpoint:
            gzipped = fetch_symbol_data(endpoint, page_size=1)
        with _local_endpoint() as endpoint:
            assert gzipped == fetch_symbol_data(endpoint, page_size=1)
        assert len(gzipped) == 3

    @pytest.mark.parametrize(
        "body",
        [gzip.compress(b'{"results": {}}')[:-4], gzip.compress(b"{}")[:10] + b"garbage!!!", b'{"results": {}}'],
        ids=["truncated", "corrupt", "not-gzip"],
    )
    def test_bad_gzip_body_is_a_malformed_response(self, body):
        with pytest.raises(MalformedResponseError, match="not a SPARQL JSON result"):
            _fetch([(200, {"Content-Encoding": "gzip"}, body)])

    def test_every_response_is_closed(self, monkeypatch):
        answers = []  # each response urlopen returned, and each HTTPError it raised
        urlopen = urllib.request.urlopen

        def recording_urlopen(*args, **kwargs):
            try:
                answers.append(urlopen(*args, **kwargs))
            except urllib.error.HTTPError as err:
                answers.append(err)
                raise
            return answers[-1]

        monkeypatch.setattr(urllib.request, "urlopen", recording_urlopen)
        assert _fetch([(503, {}, b"")]) == []
        with pytest.raises(NetworkError):
            _fetch([(404, {}, b"")])
        assert [a.status for a in answers] == [503, 200, 200, 404]
        assert all((a.fp if isinstance(a, urllib.error.HTTPError) else a).closed for a in answers)

    @pytest.mark.parametrize("suffix", ["?default-graph-uri=http%3A%2F%2Fdbpedia.org", "#fragment"])
    def test_endpoint_query_string_is_kept(self, suffix):
        log = []
        with _local_endpoint(log=log) as endpoint:
            assert len(fetch_symbol_data(endpoint + suffix)) == 3
        own = parse_qs(urlsplit(suffix.split("#")[0]).query)
        assert all(parse_qs(urlsplit(path).query).items() >= own.items() for path in log)
        assert len(_offsets(log)) == len(log) == 4

    @pytest.mark.parametrize("endpoint", UNUSABLE_ENDPOINTS.values(), ids=UNUSABLE_ENDPOINTS.keys())
    def test_unusable_endpoint_is_refused_at_once(self, endpoint, monkeypatch, capsys):
        monkeypatch.setattr(time, "sleep", lambda s: pytest.fail("an unusable endpoint was retried"))
        with pytest.raises(ValueError) as err:
            fetch_symbol_data(endpoint)
        message = f"endpoint must be an http or https URL with a host, in visible ASCII, got {endpoint!r}"
        assert str(err.value) == message
        # refused before the graph is read: reading the missing graph would exit 3
        assert main(["ingest-dbpedia", "--endpoint", endpoint, "--graph", "missing.ttl"]) == 1
        assert capsys.readouterr() == ("", f"usage error: --{message}\n")

    @pytest.mark.parametrize("page_size", [0, -1])
    def test_page_size_below_one_is_rejected(self, page_size):
        log = []
        with _local_endpoint(log=log) as endpoint:
            with pytest.raises(ValueError, match="page_size"):
                fetch_symbol_data(endpoint, page_size=page_size)
        assert log == []

    @pytest.mark.parametrize("page_size", ["0", "-3"])
    def test_page_size_below_one_is_a_usage_error(self, page_size, capsys):
        log = []
        with _local_endpoint(log=log) as endpoint:
            code = main(["ingest-dbpedia", "--endpoint", endpoint, "--page-size", page_size])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: ") and len(err.splitlines()) == 1
        assert log == []

    def test_page_size_one_pages_until_a_short_page(self):
        log = []
        assert _fetch(log=log, page_size=1) == []
        assert len(log) == 2  # one empty page per query

    @pytest.mark.parametrize("var", ["s", "o", "type"])
    def test_bad_endpoint_iri_is_a_malformed_response(self, var):
        row = {
            "s": {"type": "uri", "value": "http://dbpedia.org/resource/Zeus"},
            "o": {"type": "uri", "value": "http://dbpedia.org/resource/Eagle"},
            "type": {"type": "uri", "value": "http://dbpedia.org/ontology/Deity"},
        }
        row[var] = {"type": "uri", "value": "http://dbpedia.org/resource/a>b"}
        with _local_endpoint(symbol_rows=[row], category_rows=[]) as endpoint:
            with pytest.raises(MalformedResponseError, match="a>b"):
                fetch_symbol_data(endpoint)

    def test_bad_endpoint_iri_exits_3_with_one_line(self, tmp_path, capsys):
        row = {"s": {"type": "uri", "value": "http://dbpedia.org/resource/a b"}, "o": {"type": "literal", "value": "x"}}
        with _local_endpoint(symbol_rows=[row], category_rows=[]) as endpoint:
            code = main(["ingest-dbpedia", "--endpoint", endpoint, "--out", str(tmp_path / "out.ttl")])
        err = capsys.readouterr().err
        assert code == 3
        assert err == (
            "error: endpoint returned a bad IRI: not an IRI: 'http://dbpedia.org/resource/a b' "
            "(empty, or has whitespace, a control character or one of <>\"{}|^`\\)\n"
        )
        assert not (tmp_path / "out.ttl").exists()

    def test_endpoint_refusal_exits_3_with_one_line(self, capsys):
        with _local_endpoint([(404, {}, b"")]) as endpoint:
            assert main(["ingest-dbpedia", "--endpoint", endpoint]) == 3
        assert capsys.readouterr().err == f"error: page at offset 0: HTTP 404 from {endpoint}\n"


_COMMAND_MODULES = {"simkg.analysis", "simkg.dbpedia", "simkg.dictionary", "simkg.wordnet", "simkg.query"}
_HTTP_STACK = {"urllib.request", "http.client"}


def _loaded_modules(argv):
    """The modules ``python -X importtime *argv`` loads, with simkg on the path."""
    env = {**os.environ, "PYTHONPATH": str(Path(simkg.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}


def test_cli_import_leaves_out_the_http_stack():
    assert _loaded_modules(["-c", "import simkg.cli"]).isdisjoint(_HTTP_STACK)


@pytest.mark.parametrize(
    ("argv", "runs"),
    [
        (["-c", "import simkg.cli"], set()),
        (["-m", "simkg", "validate", "--graph", str(FIXTURES / "golden" / "hook.ttl")], set()),
        (["-m", "simkg", "ingest-dict", str(FIXTURES / "hook.dict"), "--source-label", "olderr"], {"simkg.dictionary"}),
        (["-m", "simkg", "ingest-wordnet", str(FIXTURES / "penelope.tsv")], {"simkg.wordnet"}),
        (["-m", "simkg", "ingest-dbpedia", "--triples", str(FIXTURES / "eagle.nt")], {"simkg.dbpedia"}),
        (["-m", "simkg", "ingest-dbpedia", "--endpoint", "ENDPOINT"], {"simkg.dbpedia"}),
    ],
    ids=["import", "validate", "ingest-dict", "ingest-wordnet", "ingest-dbpedia", "ingest-dbpedia-endpoint"],
)
def test_cli_start_up_leaves_out_the_modules_it_does_not_run(argv, runs):
    endpoint = _local_endpoint() if "ENDPOINT" in argv else contextlib.nullcontext()
    with endpoint as url:
        loaded = _loaded_modules([url if a == "ENDPOINT" else a for a in argv])
    assert "simkg.cli" in loaded
    assert loaded.isdisjoint(_COMMAND_MODULES - runs)
    # simkg needs only the standard library; what the interpreter loads
    # before simkg starts (site's .pth files, an editable install's finder)
    # is left out of the count
    outside = {name.partition(".")[0] for name in loaded - _loaded_modules(["-c", "pass"])}
    assert outside - {"simkg"} <= set(sys.stdlib_module_names)
    # only the endpoint path loads the HTTP stack
    assert loaded & _HTTP_STACK == (_HTTP_STACK if "--endpoint" in argv else set())
    # records are tuples: no command pays for the dataclass machinery
    assert loaded.isdisjoint({"dataclasses", "inspect"})
    # warnings are plain stderr lines
    assert loaded.isdisjoint({"logging", "traceback"})


def test_public_names_load_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(Path(simkg.__file__).parents[1])}
    code = (
        "import sys, simkg\n"
        "assert not [m for m in sys.modules if m.startswith('simkg.')]\n"
        "assert all(getattr(simkg, name) is not None for name in simkg.__all__)\n"
        "assert set(simkg.__all__) <= set(dir(simkg))\n"
        "from simkg import cli, query\n"
        "assert cli.main and query.run_cq is simkg.run_cq\n"
        "try:\n    simkg.no_such_name\nexcept AttributeError:\n    pass\nelse:\n    sys.exit(1)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_dir_lists_the_public_names():
    assert "Graph" in dir(simkg)



def test_fetch_against_local_http_endpoint():
    with _local_endpoint([(500, {}, b"")]) as endpoint:
        triples = fetch_symbol_data(endpoint, page_size=1)
    assert len(triples) == 3


@pytest.mark.parametrize("page_size", [1, 2, 3, 10000])
def test_endpoint_that_caps_its_rows_still_gives_every_row(page_size):
    # one row a response, below every page size but 1: a page shorter than
    # asked for is not the last one
    with _local_endpoint(row_cap=1) as endpoint:
        capped = fetch_symbol_data(endpoint, page_size=page_size)
    with _local_endpoint() as endpoint:
        assert capped == fetch_symbol_data(endpoint, page_size=page_size)
    assert len(capped) == 3


def _endpoint_rows(nt_text):
    """The rows the two endpoint queries answer on a graph of these triple
    lines, each category taken for a ``skos:Concept`` labelled with its
    name.  Terms are prefixed names or plain literals."""
    def term(text):
        if text.startswith('"'):
            return {"type": "literal", "value": json.loads(text)}
        prefix, _, local = text.partition(":")
        return {"type": "uri", "value": FILE_PREFIXES[prefix] + local}

    triples = []
    for line in nt_text.splitlines():
        if line.strip() and not line.startswith("#"):
            s, p, o = line.rstrip(" .").split(" ", 2)
            triples.append((term(s), term(p)["value"], term(o)))
    symbol_rows, category_rows = [], []
    for s, p, o in triples:
        if p == FILE_PREFIXES["dbp"] + "symbol":
            types = [t for s2, p2, t in triples if s2 == s and p2 == FILE_PREFIXES["rdf"] + "type"]
            symbol_rows += [{"s": s, "o": o, **({"type": t} if t else {})} for t in types or [None]]
        elif p == FILE_PREFIXES["dct"] + "subject" and "symbol" in o["value"].lower():
            category_rows.append({"s": s, "o": o})
    return {"symbol_rows": symbol_rows, "category_rows": category_rows}


@pytest.mark.parametrize(
    "nt_text",
    [
        (FIXTURES / "eagle.nt").read_text(encoding="utf-8"),
        # a subject with two symbols and two types, one type line after its symbols
        "dbr:Athena dbp:symbol dbr:Owl .\n"
        "dbr:Athena rdf:type dbo:Deity .\n"
        'dbr:Athena dbp:symbol "olive branch" .\n'
        "dbr:Athena rdf:type dbo:Person .\n"
        "dbr:Dove dct:subject dbc:Symbols_of_peace .\n",
    ],
    ids=["eagle", "two-symbols-two-types"],
)
def test_endpoint_and_triples_file_give_the_same_graph(nt_text, tmp_path, capsys):
    nt = tmp_path / "rows.nt"
    nt.write_text(nt_text, encoding="utf-8")
    assert main(["ingest-dbpedia", "--triples", str(nt), "--out", str(tmp_path / "file.ttl")]) == 0
    from_file = capsys.readouterr()
    with _local_endpoint(row_cap=1, **_endpoint_rows(nt_text)) as endpoint:
        assert main(["ingest-dbpedia", "--endpoint", endpoint, "--out", str(tmp_path / "endpoint.ttl")]) == 0
    assert capsys.readouterr() == from_file
    assert (tmp_path / "endpoint.ttl").read_bytes() == (tmp_path / "file.ttl").read_bytes()
