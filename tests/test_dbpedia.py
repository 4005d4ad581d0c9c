import json
import os
import re
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest
import requests

import simkg
from conftest import FIXTURES
from simkg import (
    Iri,
    MalformedResponseError,
    NetworkError,
    Role,
    SymbolPredicate,
    SymbolTriple,
    convert_dbpedia,
    fetch_symbol_data,
    make_entity,
    read_triples_file,
)
from simkg.cli import main
from simkg.model import KB


@pytest.fixture
def source():
    return make_entity("DBpedia", Role.SOURCE)


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


class _StubResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self._text = text

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class _StubSession:
    """Replays canned responses; one per request, in order."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.requests.append(params["query"])
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def _page(bindings):
    return {"head": {"vars": ["s", "o", "type"]}, "results": {"bindings": bindings}}


def _load_fixture(name):
    return json.loads((FIXTURES / "dbpedia" / name).read_text(encoding="utf-8"))


class TestFetch:
    def test_recorded_responses_three_rows(self):
        session = _StubSession([
            _StubResponse(payload=_load_fixture("symbol_page.json")),
            _StubResponse(payload=_load_fixture("category_page.json")),
        ])
        triples = fetch_symbol_data("http://example.org/sparql", page_size=100, session=session)
        assert len(triples) == 3
        predicates = sorted(t.predicate.value for t in triples)
        assert predicates == ["dbp_symbol", "dbp_symbol", "dct_subject"]
        zeus = next(t for t in triples if t.subject.local_name == "Zeus")
        assert zeus.subject_types == (Iri("http://dbpedia.org/ontology/Deity"),)

    def test_zero_rows(self):
        session = _StubSession([
            _StubResponse(payload=_page([])),
            _StubResponse(payload=_page([])),
        ])
        assert fetch_symbol_data("http://example.org/sparql", session=session) == []

    @pytest.mark.parametrize("status", [503, 429])
    def test_retry_then_success(self, status):
        ok = _page([])
        session = _StubSession([
            _StubResponse(status_code=status),
            _StubResponse(payload=ok),
            _StubResponse(payload=ok),
        ])
        triples = fetch_symbol_data("http://example.org/sparql", session=session, retry_wait=0.001)
        assert triples == []
        assert len(session.requests) == 3

    def test_gives_up_after_max_attempts_naming_page(self):
        session = _StubSession([_StubResponse(status_code=500)] * 5)
        with pytest.raises(NetworkError) as err:
            fetch_symbol_data("http://example.org/sparql", session=session, retry_wait=0.001, max_attempts=5)
        assert "offset 0" in str(err.value)

    def test_malformed_response(self):
        session = _StubSession([_StubResponse(payload={"unexpected": True})])
        with pytest.raises(MalformedResponseError):
            fetch_symbol_data("http://example.org/sparql", session=session)

    @pytest.mark.parametrize("binding", [{"type": "uri"}, "http://dbpedia.org/resource/Zeus"])
    def test_binding_without_value_is_a_malformed_response(self, binding):
        row = {"s": binding, "o": {"type": "literal", "value": "x"}}
        session = _StubSession([_StubResponse(payload=_page([row])), _StubResponse(payload=_page([]))])
        with pytest.raises(MalformedResponseError, match="binding 's'"):
            fetch_symbol_data("http://example.org/sparql", session=session)

    def test_connection_error_is_retried(self):
        ok = _page([])
        session = _StubSession([requests.ConnectionError("refused"), _StubResponse(payload=ok), _StubResponse(payload=ok)])
        assert fetch_symbol_data("http://example.org/sparql", session=session, retry_wait=0.001) == []
        assert len(session.requests) == 3

    @pytest.mark.parametrize("var", ["s", "o", "type"])
    def test_bad_endpoint_iri_is_a_malformed_response(self, var):
        row = {
            "s": {"type": "uri", "value": "http://dbpedia.org/resource/Zeus"},
            "o": {"type": "uri", "value": "http://dbpedia.org/resource/Eagle"},
            "type": {"type": "uri", "value": "http://dbpedia.org/ontology/Deity"},
        }
        row[var] = {"type": "uri", "value": "http://dbpedia.org/resource/a>b"}
        session = _StubSession([_StubResponse(payload=_page([row])), _StubResponse(payload=_page([]))])
        with pytest.raises(MalformedResponseError, match="a>b"):
            fetch_symbol_data("http://example.org/sparql", session=session)

    def test_bad_endpoint_iri_exits_3_with_one_line(self, monkeypatch, tmp_path, capsys):
        row = {"s": {"type": "uri", "value": "http://dbpedia.org/resource/a b"}, "o": {"type": "literal", "value": "x"}}
        session = _StubSession([_StubResponse(payload=_page([row])), _StubResponse(payload=_page([]))])
        session.close = lambda: None
        monkeypatch.setattr(requests, "Session", lambda: session)
        code = main(["ingest-dbpedia", "--endpoint", "http://example.org/sparql", "--out", str(tmp_path / "out.ttl")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not (tmp_path / "out.ttl").exists()


def test_cli_import_leaves_out_the_http_stack():
    env = {**os.environ, "PYTHONPATH": str(Path(simkg.__file__).parents[1])}
    code = "import sys, simkg.cli; sys.exit('requests' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class _SparqlHandler(BaseHTTPRequestHandler):
    """Miniature SPARQL endpoint: serves fixture rows with LIMIT/OFFSET
    pagination and fails the first request with a 500 to exercise retry."""

    failures = {"remaining": 1}
    symbol_rows = _load_fixture("symbol_page.json")["results"]["bindings"]
    category_rows = _load_fixture("category_page.json")["results"]["bindings"]

    def do_GET(self):
        if self.failures["remaining"] > 0:
            self.failures["remaining"] -= 1
            self.send_response(500)
            self.end_headers()
            return
        query = parse_qs(urlparse(self.path).query)["query"][0]
        rows = self.symbol_rows if "symbol>" in query else self.category_rows
        limit = int(re.search(r"LIMIT (\d+)", query).group(1))
        offset = int(re.search(r"OFFSET (\d+)", query).group(1))
        body = json.dumps({"results": {"bindings": rows[offset : offset + limit]}}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/sparql-results+json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_fetch_against_local_http_endpoint():
    _SparqlHandler.failures["remaining"] = 1
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SparqlHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_port}/sparql"
        triples = fetch_symbol_data(endpoint, page_size=1, retry_wait=0.001)
        assert len(triples) == 3
    finally:
        server.shutdown()
        thread.join()
