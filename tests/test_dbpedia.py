import contextlib
import json
import os
import re
import subprocess
import sys
import threading
import time
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


class _StubResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self._text = text
        self.headers = headers or {}

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


class _CountingSession:
    """Answers every request with an empty page and counts the requests;
    fails the test instead of letting a fetch loop run on."""

    def __init__(self, limit=10):
        self.calls = 0
        self.limit = limit

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls += 1
        assert self.calls <= self.limit, f"still fetching after {self.limit} requests"
        return _StubResponse(payload=_page([]))

    def close(self):
        pass


def _page(bindings):
    return {"head": {"vars": ["s", "o", "type"]}, "results": {"bindings": bindings}}


def _load_fixture(name):
    return json.loads((FIXTURES / "dbpedia" / name).read_text(encoding="utf-8"))


class TestFetch:
    def test_recorded_responses_three_rows(self):
        session = _StubSession([
            _StubResponse(payload=_load_fixture("symbol_page.json")),
            _StubResponse(payload=_page([])),  # only an empty page ends a query
            _StubResponse(payload=_load_fixture("category_page.json")),
            _StubResponse(payload=_page([])),
        ])
        triples = fetch_symbol_data("http://example.org/sparql", page_size=100, session=session)
        assert len(triples) == 3
        assert [re.search(r"OFFSET (\d+)", q).group(1) for q in session.requests] == ["0", "2", "0", "1"]
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
        triples = fetch_symbol_data("http://example.org/sparql", session=session)
        assert triples == []
        assert len(session.requests) == 3

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
        ok = _StubResponse(payload=_page([]))
        session = _StubSession([_StubResponse(status_code=status, headers=headers), ok, ok])
        assert fetch_symbol_data("http://example.org/sparql", session=session) == []
        assert slept == waits

    def test_retry_after_is_not_kept_for_later_waits(self, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        ok = _StubResponse(payload=_page([]))
        session = _StubSession([
            _StubResponse(status_code=429, headers={"Retry-After": "3"}),
            requests.ConnectionError("refused"),
            _StubResponse(status_code=503),
            ok,
            ok,
        ])
        assert fetch_symbol_data("http://example.org/sparql", session=session) == []
        assert slept == [3, 0.002, 0.004]

    def test_gives_up_after_max_attempts_naming_page(self):
        session = _StubSession([_StubResponse(status_code=500)] * 5)
        with pytest.raises(NetworkError) as err:
            fetch_symbol_data("http://example.org/sparql", session=session)
        assert "offset 0" in str(err.value)

    def test_malformed_response(self):
        session = _StubSession([_StubResponse(payload={"unexpected": True})])
        with pytest.raises(MalformedResponseError):
            fetch_symbol_data("http://example.org/sparql", session=session)

    @pytest.mark.parametrize("binding", [{"type": "uri"}, "http://dbpedia.org/resource/Zeus"])
    def test_binding_without_value_is_a_malformed_response(self, binding):
        row = {"s": binding, "o": {"type": "literal", "value": "x"}}
        session = _StubSession([_StubResponse(payload=_page([row])), *[_StubResponse(payload=_page([]))] * 2])
        with pytest.raises(MalformedResponseError, match="binding 's'"):
            fetch_symbol_data("http://example.org/sparql", session=session)

    def test_connection_error_is_retried(self):
        ok = _page([])
        session = _StubSession([requests.ConnectionError("refused"), _StubResponse(payload=ok), _StubResponse(payload=ok)])
        assert fetch_symbol_data("http://example.org/sparql", session=session) == []
        assert len(session.requests) == 3

    @pytest.mark.parametrize("page_size", [0, -1])
    def test_page_size_below_one_is_rejected(self, page_size):
        session = _CountingSession()
        with pytest.raises(ValueError, match="page_size"):
            fetch_symbol_data("http://example.org/sparql", page_size=page_size, session=session)
        assert session.calls == 0

    @pytest.mark.parametrize("page_size", ["0", "-3"])
    def test_page_size_below_one_is_a_usage_error(self, page_size, monkeypatch, capsys):
        session = _CountingSession()
        monkeypatch.setattr(requests, "Session", lambda: session)
        code = main(["ingest-dbpedia", "--endpoint", "http://example.org/sparql", "--page-size", page_size])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: ") and len(err.splitlines()) == 1
        assert session.calls == 0

    def test_page_size_one_pages_until_a_short_page(self):
        session = _CountingSession()
        assert fetch_symbol_data("http://example.org/sparql", page_size=1, session=session) == []
        assert session.calls == 2  # one empty page per query

    @pytest.mark.parametrize("var", ["s", "o", "type"])
    def test_bad_endpoint_iri_is_a_malformed_response(self, var):
        row = {
            "s": {"type": "uri", "value": "http://dbpedia.org/resource/Zeus"},
            "o": {"type": "uri", "value": "http://dbpedia.org/resource/Eagle"},
            "type": {"type": "uri", "value": "http://dbpedia.org/ontology/Deity"},
        }
        row[var] = {"type": "uri", "value": "http://dbpedia.org/resource/a>b"}
        session = _StubSession([_StubResponse(payload=_page([row])), *[_StubResponse(payload=_page([]))] * 2])
        with pytest.raises(MalformedResponseError, match="a>b"):
            fetch_symbol_data("http://example.org/sparql", session=session)

    def test_bad_endpoint_iri_exits_3_with_one_line(self, monkeypatch, tmp_path, capsys):
        row = {"s": {"type": "uri", "value": "http://dbpedia.org/resource/a b"}, "o": {"type": "literal", "value": "x"}}
        session = _StubSession([_StubResponse(payload=_page([row])), *[_StubResponse(payload=_page([]))] * 2])
        session.close = lambda: None
        monkeypatch.setattr(requests, "Session", lambda: session)
        code = main(["ingest-dbpedia", "--endpoint", "http://example.org/sparql", "--out", str(tmp_path / "out.ttl")])
        err = capsys.readouterr().err
        assert code == 3
        assert err == (
            "error: endpoint returned a bad IRI: not an IRI: 'http://dbpedia.org/resource/a b' "
            "(empty, or has whitespace, a control character or one of <>\"{}|^`\\)\n"
        )
        assert not (tmp_path / "out.ttl").exists()

    def test_endpoint_refusal_exits_3_with_one_line(self, monkeypatch, capsys):
        session = _StubSession([_StubResponse(status_code=404)])
        session.close = lambda: None
        monkeypatch.setattr(requests, "Session", lambda: session)
        assert main(["ingest-dbpedia", "--endpoint", "http://example.org/sparql"]) == 3
        assert capsys.readouterr().err == "error: page at offset 0: HTTP 404 from http://example.org/sparql\n"


def test_cli_import_leaves_out_the_http_stack():
    env = {**os.environ, "PYTHONPATH": str(Path(simkg.__file__).parents[1])}
    code = "import sys, simkg.cli; sys.exit('requests' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


_COMMAND_MODULES = {"simkg.analysis", "simkg.dbpedia", "simkg.dictionary", "simkg.wordnet", "simkg.query"}


@pytest.mark.parametrize(
    ("argv", "runs"),
    [
        (["-c", "import simkg.cli"], set()),
        (["-m", "simkg", "validate", "--graph", str(FIXTURES / "golden" / "hook.ttl")], set()),
        (["-m", "simkg", "ingest-dict", str(FIXTURES / "hook.dict"), "--source-label", "olderr"], {"simkg.dictionary"}),
        (["-m", "simkg", "ingest-wordnet", str(FIXTURES / "penelope.tsv")], {"simkg.wordnet"}),
        (["-m", "simkg", "ingest-dbpedia", "--triples", str(FIXTURES / "eagle.nt")], {"simkg.dbpedia"}),
    ],
    ids=["import", "validate", "ingest-dict", "ingest-wordnet", "ingest-dbpedia"],
)
def test_cli_start_up_leaves_out_the_modules_it_does_not_run(argv, runs):
    env = {**os.environ, "PYTHONPATH": str(Path(simkg.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}
    assert "simkg.cli" in loaded
    assert loaded.isdisjoint(_COMMAND_MODULES - runs)
    # records are tuples: no command pays for the dataclass machinery
    assert loaded.isdisjoint({"dataclasses", "inspect", "requests"})
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


class _SparqlHandler(BaseHTTPRequestHandler):
    """Miniature SPARQL endpoint: serves fixture rows with LIMIT/OFFSET
    pagination, fails its first ``failures`` requests with a 500 to exercise
    retry, and answers at most ``row_cap`` rows a request when that is set,
    as a Virtuoso server capped by its ResultSetMaxRows setting does."""

    failures = {"remaining": 0}
    row_cap = None
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
        if self.row_cap is not None:
            limit = min(limit, self.row_cap)
        offset = int(re.search(r"OFFSET (\d+)", query).group(1))
        body = json.dumps({"results": {"bindings": rows[offset : offset + limit]}}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/sparql-results+json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _local_endpoint(failures=0, row_cap=None, **rows):
    """The URL of a :class:`_SparqlHandler` served on a loopback port;
    ``symbol_rows`` and ``category_rows`` replace the fixture rows."""
    handler = type("Handler", (_SparqlHandler,), {"failures": {"remaining": failures}, "row_cap": row_cap, **rows})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    # a short poll, as shutdown() waits out one: the default 0.5 s would dominate each test
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/sparql"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def test_fetch_against_local_http_endpoint():
    with _local_endpoint(failures=1) as endpoint:
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
