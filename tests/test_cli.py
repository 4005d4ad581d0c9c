import codecs
import contextlib
import gc
import io
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from simkg import Iri, Role, export_turtle, import_turtle, load_graph, run_cq
from simkg.cli import _insert_all, main
from simkg.dictionary import convert_document
from simkg.graph import Graph
from simkg.model import KB, Conversion, CycleError, VariantLink, make_entity
from simkg.query import RESULT_VARIABLES, CqId

HEADER = """\
@prefix sim: <https://w3id.org/simulation/ontology/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix kb: <https://w3id.org/simulation/data/> .
"""
NOT_AN_IRI = '(empty, or has whitespace, a control character or one of <>"{}|^`\\)'  # why Iri() refuses a value


@pytest.fixture
def toy_file(toy_graph, tmp_path):
    path = tmp_path / "toy.ttl"
    path.write_text(export_turtle(toy_graph), encoding="utf-8")
    return path


class TestValidateCommand:
    def test_clean_graph_exit_zero(self, toy_file, capsys):
        assert main(["validate", "--graph", str(toy_file)]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_violations_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.ttl"
        bad.write_text(
            HEADER + "kb:x-y a sim:Simulation ;\n    sim:hasSimulacrum kb:x ;\n"
            "    sim:hasRealityCounterpart kb:y .\n",
            encoding="utf-8",
        )
        assert main(["validate", "--graph", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "MissingContext" in out and "MissingSource" in out

    def test_single_violation_text(self, tmp_path, capsys):
        bad = tmp_path / "bad.ttl"
        bad.write_text(
            HEADER + "kb:x-y a sim:Simulation ;\n    sim:hasSimulacrum kb:x ;\n"
            "    sim:hasRealityCounterpart kb:y ;\n    sim:hasContext kb:c .\n",
            encoding="utf-8",
        )
        assert main(["validate", "--graph", str(bad)]) == 2
        assert capsys.readouterr().out == (
            "MissingSource\thttps://w3id.org/simulation/data/x-y\tno source on this simulation\n"
            "1 violation\n"
        )

    def test_csv_format(self, toy_file, capsys):
        assert main(["validate", "--graph", str(toy_file), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "axiom,subject,detail"


class TestQueryCommand:
    def test_q2_2_two_rows(self, toy_file, capsys):
        assert main(["query", "--graph", str(toy_file), "--cq", "Q2.2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].split()[0] == "kb:olive-fertility"
        assert lines[1].split()[0] == "kb:olive-immortality"

    def test_q2_2_text_columns_padded(self, toy_file, capsys):
        assert main(["query", "--graph", str(toy_file), "--cq", "Q2.2"]) == 0
        assert capsys.readouterr().out == (
            "kb:olive-fertility    kb:fertility    kb:dictionaryOfSymbols1\n"
            "kb:olive-immortality  kb:immortality  kb:dictionaryOfSymbols2\n"
        )

    def test_bound_query_with_prefixed_iri(self, toy_file, capsys):
        assert main(["query", "--graph", str(toy_file), "--cq", "Q1.1", "--bind", "simulacrum=kb:olive"]) == 0
        out = capsys.readouterr().out
        assert "kb:fertility" in out and "kb:immortality" in out

    def test_csv_has_header(self, toy_file, capsys):
        assert main(["query", "--graph", str(toy_file), "--cq", "Q2.2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "simulation,rc,source"
        assert len(lines) == 3

    # A question with no rows, and where it has none: on the toy graph, or on
    # one simulation with two simulacra and no source (ODD_SIMULATION).
    EMPTY_CASES = {
        "Q1.1": ("odd", ["simulacrum=kb:c"]),
        "Q1.2": ("odd", ["context=kb:x"]),
        "Q1.3": ("odd", ["entity=kb:c"]),
        "Q1.4": ("odd", ["rc=kb:x"]),
        "Q1.5": ("toy", []),
        "Q2.1": ("odd", ["simulacrum=kb:x"]),
        "Q2.2": ("odd", []),
        "Q2.3": ("odd", ["simulation=kb:x-y"]),
        "Q2.4": ("toy", []),
        "Q3.1": ("odd", ["entity=kb:x"]),
        "Q3.2": ("odd", ["simulacrum=kb:c"]),
        "Q3.3": ("odd", []),
        "Q3.4": ("odd", ["rc=kb:y"]),
        "Q3.5": ("odd", []),
    }
    ODD_SIMULATION = (
        HEADER + "kb:x-y a sim:Simulation ;\n    sim:hasSimulacrum kb:x, kb:z ;\n"
        "    sim:hasRealityCounterpart kb:y ;\n    sim:hasContext kb:c .\n"
    )

    def test_every_cq_has_an_empty_case(self):
        assert set(self.EMPTY_CASES) == {cq.value for cq in CqId}

    @pytest.mark.parametrize("cq", sorted(EMPTY_CASES))
    def test_empty_result_csv_prints_header(self, cq, toy_file, tmp_path, capsys):
        graph, binds = self.EMPTY_CASES[cq]
        path = toy_file
        if graph == "odd":
            path = tmp_path / "odd.ttl"
            path.write_text(self.ODD_SIMULATION, encoding="utf-8")
        args = ["query", "--graph", str(path), "--cq", cq, *(a for b in binds for a in ("--bind", b))]
        assert main([*args, "--format", "csv"]) == 0
        assert capsys.readouterr().out == ",".join(RESULT_VARIABLES[CqId(cq)]) + "\n"
        assert main(args) == 0
        assert capsys.readouterr().out == ""  # text output has no header

    def test_unknown_cq_is_usage_error(self, toy_file, capsys):
        assert main(["query", "--graph", str(toy_file), "--cq", "Q9.9"]) == 1

    def test_malformed_bind_is_usage_error(self, toy_file):
        assert main(["query", "--graph", str(toy_file), "--cq", "Q1.1", "--bind", "oops"]) == 1


class TestIngestCommands:
    def test_ingest_dict_roundtrip_pipeline(self, tmp_path, capsys):
        out_file = tmp_path / "hook.ttl"
        rc = main(["ingest-dict", str(FIXTURES / "hook.dict"), "--out", str(out_file)])
        assert rc == 0
        g = load_graph(out_file)
        assert "https://w3id.org/simulation/data/hook-crescentMoon" in g.simulations

        assert main(["stats", "--graph", str(out_file)]) == 0
        stats_out = capsys.readouterr().out
        assert "hook" in stats_out  # default source label is the file stem

    def test_ingest_dbpedia_offline(self, tmp_path):
        out_file = tmp_path / "dbp.ttl"
        rc = main(["ingest-dbpedia", "--triples", str(FIXTURES / "eagle.nt"), "--out", str(out_file)])
        assert rc == 0
        g = load_graph(out_file)
        assert "https://w3id.org/simulation/data/eagle-liechtenstein" in g.simulations

    def test_ingest_wordnet(self, tmp_path):
        out_file = tmp_path / "wn.ttl"
        rc = main(["ingest-wordnet", str(FIXTURES / "penelope.tsv"), "--out", str(out_file)])
        assert rc == 0
        g = load_graph(out_file)
        assert "https://w3id.org/simulation/data/penelope-devotion" in g.simulations

    @pytest.mark.parametrize(
        "command, fixture",
        [
            ("ingest-dict", "birds.dict"),  # not hook.dict, whose source label "hook" would hide the lemma's
            ("ingest-wordnet", "penelope.tsv"),
            ("ingest-dbpedia", "eagle.nt"),
        ],
    )
    def test_a_byte_order_mark_is_ignored(self, command, fixture, tmp_path, capsys):
        results = []
        for bom in (b"", codecs.BOM_UTF8):
            src = tmp_path / str(len(bom)) / fixture  # one name, so the default source label is the same
            src.parent.mkdir()
            src.write_bytes(bom + (FIXTURES / fixture).read_bytes())
            out = tmp_path / f"{len(bom)}.ttl"
            args = ["--triples", str(src)] if command == "ingest-dbpedia" else [str(src)]
            code = main([command, *args, "--out", str(out)])
            results.append((code, capsys.readouterr().err.replace(str(src), "SRC"), out.read_bytes()))
        assert results[0] == results[1] and results[0][0] == 0

    def test_pipelining_identity(self, tmp_path, capsys):
        # running query on a saved file equals running against the in-process graph
        out_file = tmp_path / "birds.ttl"
        main(["ingest-dict", str(FIXTURES / "birds.dict"), "--out", str(out_file), "--source-label", "olderr"])
        capsys.readouterr()
        main(["query", "--graph", str(out_file), "--cq", "Q3.3"])
        from_file = capsys.readouterr().out

        g = Graph()
        _, conv = convert_document(
            (FIXTURES / "birds.dict").read_text(encoding="utf-8"), make_entity("olderr")
        )
        _insert_all(g, conv, "birds.dict")
        rows = run_cq(g, CqId.Q3_3)
        expected = "\n".join(
            "  ".join(["kb:" + v.local_name for v in row.values()]) for row in rows
        )
        assert from_file.strip().split() == expected.strip().split()

    def test_missing_file_exit_three(self, tmp_path):
        assert main(["ingest-dict", str(tmp_path / "nope.dict")]) == 3

    def test_graph_flag_accumulates(self, tmp_path):
        first = tmp_path / "first.ttl"
        both = tmp_path / "both.ttl"
        main(["ingest-dict", str(FIXTURES / "hook.dict"), "--out", str(first), "--source-label", "olderr"])
        main([
            "ingest-wordnet", str(FIXTURES / "penelope.tsv"),
            "--graph", str(first), "--out", str(both),
        ])
        g = load_graph(both)
        assert "https://w3id.org/simulation/data/hook-crescentMoon" in g.simulations
        assert "https://w3id.org/simulation/data/penelope-devotion" in g.simulations

    def test_phrase_table_override(self, tmp_path):
        table = tmp_path / "table.json"
        table.write_text('{"reminiscent of": ["Allusion", "Has"]}', encoding="utf-8")
        doc = tmp_path / "doc.dict"
        doc.write_text("hook\n  reminiscent of: barbs\n", encoding="utf-8")
        out = tmp_path / "out.ttl"
        assert main(["ingest-dict", str(doc), "--out", str(out), "--phrase-table", str(table)]) == 0
        g = load_graph(out)
        sim = next(iter(g.simulations.values()))
        assert sim.kind.value == "Allusion"

    def test_cardinality_warning_uses_the_validator_wording(self, tmp_path, capsys):
        # a Healing kind with a plain relation breaks HealingCardinality
        table = tmp_path / "table.json"
        table.write_text('{"soothes": ["Healing", "Has"]}', encoding="utf-8")
        doc = tmp_path / "doc.dict"
        doc.write_text("hook\n  soothes: headache\n", encoding="utf-8")
        assert main(["ingest-dict", str(doc), "--phrase-table", str(table)]) == 0
        warning = (
            f"{doc}: line 2: skipped meaning term 'headache' "
            "(HealingCardinality: healing simulation has 0 healed reality counterparts, expected 1)"
        )
        assert warning in capsys.readouterr().err.splitlines()

    def test_bad_phrase_table_is_usage_error(self, tmp_path):
        table = tmp_path / "table.json"
        table.write_text('{"reminiscent of": ["Banana", "Has"]}', encoding="utf-8")
        doc = tmp_path / "doc.dict"
        doc.write_text("hook\n  barbs\n", encoding="utf-8")
        assert main(["ingest-dict", str(doc), "--phrase-table", str(table)]) == 1

    @pytest.mark.parametrize(
        "text",
        ['{"reminiscent of": ', '[["Allusion", "Has"]]', '{"reminiscent of": "Allusion"}', '{"reminiscent of": [1, 2]}'],
        ids=["invalid-json", "list", "not-a-pair", "not-names"],
    )
    def test_malformed_phrase_table_is_usage_error(self, text, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text(text, encoding="utf-8")
        doc = tmp_path / "doc.dict"
        doc.write_text("hook\n  barbs\n", encoding="utf-8")
        assert main(["ingest-dict", str(doc), "--phrase-table", str(table)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: phrase table: ")
        assert len(err.splitlines()) == 1

    def test_phrase_table_byte_order_mark_is_ignored(self, tmp_path, capsys):
        doc = tmp_path / "doc.dict"
        doc.write_text("hook\n  reminiscent of: barbs\n", encoding="utf-8")
        results = []
        for bom in (b"", codecs.BOM_UTF8):
            table = tmp_path / f"table{len(bom)}.json"
            table.write_bytes(bom + b'{"reminiscent of": ["Allusion", "Has"]}')
            out = tmp_path / f"{len(bom)}.ttl"
            code = main(["ingest-dict", str(doc), "--out", str(out), "--phrase-table", str(table)])
            results.append((code, capsys.readouterr(), out.read_bytes()))
        assert results[0] == results[1] and results[0][0] == 0
        assert b"sim:AllusionSimulation" in results[0][2]

    def test_exclude_type_flag(self, tmp_path, capsys):
        out = tmp_path / "dbp.ttl"
        rc = main([
            "ingest-dbpedia", "--triples", str(FIXTURES / "eagle.nt"),
            "--exclude-type", "Deity", "--out", str(out),
        ])
        assert rc == 0
        g = load_graph(out)
        assert not any("thunderbolt" in i for i in g.simulations)


    def test_reflexive_variant_block_does_not_sink_the_ingest(self, tmp_path, capsys):
        doc = tmp_path / "doc.dict"
        doc.write_text("hook\n  attraction\n  ~ Hook:\n    lure\nrose\n  love\n", encoding="utf-8")
        out = tmp_path / "out.ttl"
        assert main(["ingest-dict", str(doc), "--out", str(out)]) == 0
        assert "https://w3id.org/simulation/data/rose-love" in load_graph(out).simulations
        err = capsys.readouterr().err
        assert err.count("unusable variant label") == 1
        assert f"{doc}: line 3: unusable variant label 'Hook', block skipped" in err.splitlines()

    @pytest.mark.parametrize(
        "doc, warning, entries",
        [
            ("...\n  peace\nrose\n  love\n", "line 1: unusable lemma '...', entry skipped", 2),
            (
                "rose\n  [<] peace\n  love\n",
                "line 2: unusable context, clause skipped (label '<' has no alphanumeric characters)",
                1,
            ),
        ],
        ids=["lemma", "context"],
    )
    def test_unmintable_dictionary_label_does_not_sink_the_ingest(self, doc, warning, entries, tmp_path, capsys):
        path = tmp_path / "doc.dict"
        path.write_text(doc, encoding="utf-8")
        out = tmp_path / "out.ttl"
        assert main(["ingest-dict", str(path), "--out", str(out)]) == 0
        assert list(load_graph(out).simulations) == ["https://w3id.org/simulation/data/rose-love"]
        assert capsys.readouterr().err.splitlines() == [
            f"{path}: {warning}",
            f"{path}: {entries} entries -> 1 simulations, 0 variant links",
        ]

    @pytest.mark.parametrize(
        "row, bad",
        [("http://example.org/synset/x\t...\ta symbol of peace\t0\n", "..."),
         ("http://example.org/synset/x\tdove\t(<) a symbol of peace\t0\n", "<")],
        ids=["label", "leading-context"],
    )
    def test_unmintable_wordnet_label_does_not_sink_the_ingest(self, row, bad, tmp_path, capsys):
        tsv = tmp_path / "syn.tsv"
        tsv.write_text(row + "http://example.org/synset/r\trose\ta symbol of love\t0\n", encoding="utf-8")
        out = tmp_path / "out.ttl"
        assert main(["ingest-wordnet", str(tsv), "--out", str(out)]) == 0
        assert list(load_graph(out).simulations) == ["https://w3id.org/simulation/data/rose-love"]
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"{tsv}: http://example.org/synset/x: unusable label, record skipped "
            f"(label {bad!r} has no alphanumeric characters)",
            f"{tsv}: 2 records -> 1 simulations (1 skipped)",
        ]

    def test_unmintable_wordnet_meaning_term_is_dropped(self, tmp_path, capsys):
        tsv = tmp_path / "syn.tsv"
        tsv.write_text("http://example.org/synset/x\tdove\tsymbol of !!!, love\t0\n", encoding="utf-8")
        out = tmp_path / "out.ttl"
        assert main(["ingest-wordnet", str(tsv), "--out", str(out)]) == 0
        assert list(load_graph(out).simulations) == ["https://w3id.org/simulation/data/dove-love"]
        assert capsys.readouterr().err.splitlines() == [
            f"{tsv}: http://example.org/synset/x: skipped meaning term '!!!' (label '!!!' has no alphanumeric characters)",
            f"{tsv}: 1 records -> 1 simulations (0 skipped)",
        ]

    def test_bare_category_prefix_is_empty_after_cleaning(self, tmp_path, capsys):
        nt = tmp_path / "bare.nt"
        nt.write_text("dbr:Eagle dct:subject dbc:Symbols_of .\n", encoding="utf-8")
        out = tmp_path / "out.ttl"
        assert main(["ingest-dbpedia", "--triples", str(nt), "--out", str(out)]) == 0
        assert load_graph(out).simulations == {}
        assert capsys.readouterr().err.splitlines() == [
            "warning: http://dbpedia.org/resource/Eagle: category "
            "http://dbpedia.org/resource/Category:Symbols_of empty after cleaning",
            "1 triples -> 0 simulations",
        ]

    def test_variant_link_closing_a_cycle_is_a_warning(self, tmp_path, capsys):
        doc = tmp_path / "cycle.dict"
        doc.write_text("a\n  ~ b:\nb\n  ~ a:\n", encoding="utf-8")
        out = tmp_path / "out.ttl"
        assert main(["ingest-dict", str(doc), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: variant link https://w3id.org/simulation/data/b -> https://w3id.org/simulation/data/a "
            "closes a cycle",
            f"{doc}: 2 entries -> 0 simulations, 1 variant links",
        ]
        g = load_graph(out)
        assert {e.id.local_name for e in g.variant_closure(Iri(KB + "a"))} == {"b"}
        assert g.variant_closure(Iri(KB + "b")) == set()

    def test_variant_only_simulacra_keep_their_type(self, tmp_path):
        # hook has only a variant, and night owl's only term is skipped: no
        # simulation of their own says they are simulacra
        doc = tmp_path / "probe.dict"
        doc.write_text("hook\n  ~ fish hook:\n    catch\nowl\n  wisdom\n  ~ night owl:\n    ...\n", encoding="utf-8")
        out = tmp_path / "probe.ttl"
        assert main(["ingest-dict", str(doc), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert 'kb:hook a sim:Simulacrum ;\n    rdfs:label "hook" ;\n    sim:hasVariant kb:fishHook .' in text
        assert 'kb:nightOwl a sim:Simulacrum ;\n    rdfs:label "night owl" .' in text
        g = import_turtle(text)
        assert g._stated_roles == {Iri(KB + "hook"): {Role.SIMULACRUM}, Iri(KB + "nightOwl"): {Role.SIMULACRUM}}
        assert export_turtle(g) == text
        assert main(["validate", "--graph", str(out)]) == 0

    def test_kind_conflict_is_saved_and_reported(self, tmp_path, capsys):
        probe = tmp_path / "probe.dict"
        probe.write_text("hook\n  attraction\n  related to: attraction\n", encoding="utf-8")
        out_file = tmp_path / "probe.ttl"
        assert main(["ingest-dict", str(probe), "--out", str(out_file)]) == 0
        assert out_file.exists()
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "kind-conflict" in line] == [
            "warning: kind-conflict: https://w3id.org/simulation/data/hook-attraction typed both Generic and Relatedness"
        ]
        assert main(["validate", "--graph", str(out_file)]) == 2
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("KindConflict")] == [
            "KindConflict\thttps://w3id.org/simulation/data/hook-attraction\ttyped both Generic and Relatedness"
        ]


def _links(pairs):
    return [VariantLink(make_entity(base), make_entity(variant)) for base, variant in pairs]


def _insert_in_file_order(g, links):
    """What ``_insert_all`` does with a batch of links, taken in file order."""
    stored = 0
    for link in links:
        try:
            g.add_variant(link.base, link.variant)
        except CycleError as err:
            print(f"warning: {err}", file=sys.stderr)
            continue
        stored += 1
        for end in (link.base, link.variant):
            g.state_role(end.id, Role.SIMULACRUM)
    return stored


class TestVariantLinkOrder:
    """``_insert_all`` adds a batch of variant links whose base lies on a
    cycle first, in file order, and every other link top-down, so a chain
    that arrives deep end first costs linear time."""

    @pytest.mark.parametrize("cycle", [[], [("c0", "c1"), ("c1", "c0")]], ids=["acyclic", "unrelated-2-cycle"])
    def test_a_reversed_chain_costs_what_a_chain_in_order_costs(self, cycle):
        links = _links((f"n{i}", f"n{i + 1}") for i in range(4000))
        refused = len(cycle) // 2  # the link that closes the cycle

        def best(batch):
            times = []
            for _ in range(3):
                g = Graph()
                start = time.perf_counter()
                with contextlib.redirect_stderr(io.StringIO()):
                    assert _insert_all(g, Conversion([], batch, [], []), "chain") == len(batch) - refused
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(links[::-1] + _links(cycle)) < 4 * best(links + _links(cycle))

    @settings(max_examples=200, deadline=None)
    @given(
        stored=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8),
        batch=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1]), max_size=10),
    )
    def test_same_result_as_file_order(self, stored, batch):
        # stored links as an imported file may hold them: cycles and self-links too
        results = []
        for insert in (lambda g, links: _insert_all(g, Conversion([], links, [], []), "x"), _insert_in_file_order):
            g = Graph()
            for base, variant in stored:
                for end in (base, variant):
                    g.upsert_entity(make_entity(f"n{end}"))
                g._add_variant_edge(make_entity(f"n{base}").id, make_entity(f"n{variant}").id)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                count = insert(g, _links((f"n{b}", f"n{v}") for b, v in batch))
            results.append((count, err.getvalue(), g.variant_edges, g._stated_roles, g.entities))
        assert results[0] == results[1]


class TestReaderErrors:
    """A malformed input line ends the run with one error line, no traceback."""

    @pytest.mark.parametrize(
        "row",
        [
            "http://example.org/synset/a\tlabel\n",
            "http://example.org/synset/a b\tlabel\tsymbol of peace\t1\n",
        ],
    )
    def test_wordnet_bad_row(self, tmp_path, capsys, row):
        tsv = tmp_path / "synsets.tsv"
        tsv.write_text("http://example.org/synset/dove\tdove\tsymbol of peace\t1\n" + row, encoding="utf-8")
        assert main(["ingest-wordnet", str(tsv)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tsv}: line 2: ")
        assert len(err.splitlines()) == 1

    def test_dbpedia_empty_subject_iri(self, tmp_path, capsys):
        nt = tmp_path / "bad.nt"
        nt.write_text('<> <http://dbpedia.org/property/symbol> "peace" .\n', encoding="utf-8")
        assert main(["ingest-dbpedia", "--triples", str(nt)]) == 3
        assert capsys.readouterr().err == (
            f"error: {nt}: line 1: not an IRI: '' "
            "(empty, or has whitespace, a control character or one of <>\"{}|^`\\)\n"
        )

    def test_dbpedia_unknown_prefix(self, tmp_path, capsys):
        nt = tmp_path / "bad.nt"
        nt.write_text("foo:bar dbp:symbol dbr:B .\n", encoding="utf-8")
        assert main(["ingest-dbpedia", "--triples", str(nt)]) == 3
        assert capsys.readouterr().err == f"error: {nt}: line 1: cannot resolve term 'foo:bar'\n"

    def test_wordnet_iri_with_turtle_delimiter(self, tmp_path, capsys):
        # exported as <http://example.org/a>b>, the row would make a file no reader accepts
        tsv = tmp_path / "synsets.tsv"
        tsv.write_text("http://example.org/a>b\tbadge\tsymbol of honour\t1\n", encoding="utf-8")
        out = tmp_path / "g.ttl"
        assert main(["ingest-wordnet", str(tsv), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tsv}: line 1: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_wordnet_error_names_the_file(self, tmp_path, capsys):
        ok = tmp_path / "ok.tsv"
        ok.write_text("http://example.org/synset/dove\tdove\tsymbol of peace\t1\n", encoding="utf-8")
        bad = tmp_path / "bad.tsv"
        bad.write_text("http://example.org/synset/a\tlabel\n", encoding="utf-8")
        assert main(["ingest-wordnet", str(ok), str(bad)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"error: {bad}: line 1: expected 4 tab-separated fields, got 2"
        assert not any(line.startswith("error:") for line in err[:-1])

    @pytest.mark.parametrize("command", ["ingest-dict", "ingest-wordnet", "query", "eval-gold", "eval-converted"])
    def test_input_not_utf8_names_the_file(self, command, toy_file, tmp_path, capsys):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes("kb:a kb:b kb:c .\n".encode("utf-16"))  # starts with \xff\xfe
        gold = tmp_path / "gold.tsv"
        gold.write_text("Simulation\thttps://w3id.org/simulation/data/owl-death\n", encoding="utf-8")
        argv = {
            "ingest-dict": ["ingest-dict", str(bad)],
            "ingest-wordnet": ["ingest-wordnet", str(bad)],
            "query": ["query", "--graph", str(bad), "--cq", "Q1.5"],
            "eval-gold": ["eval", "--gold", str(bad), "--converted", str(toy_file)],
            "eval-converted": ["eval", "--gold", str(gold), "--converted", str(bad)],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["export", "eval"])
    def test_malformed_turtle_names_the_file(self, command, tmp_path, capsys):
        bad = tmp_path / "broken.ttl"
        bad.write_text('kb:a kb:b "unclosed .\n', encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("Simulation\thttps://w3id.org/simulation/data/owl-death\n", encoding="utf-8")
        argv = {
            "export": ["export", "--graph", str(bad)],
            "eval": ["eval", "--gold", str(gold), "--converted", str(bad)],
        }[command]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {bad}: line 1, col 11: unexpected character '\"'\n"

    def test_turtle_stays_strict_about_a_byte_order_mark(self, tmp_path, capsys):
        bom = tmp_path / "bom.ttl"
        bom.write_bytes(codecs.BOM_UTF8 + (FIXTURES / "golden" / "hook.ttl").read_bytes())
        assert main(["export", "--graph", str(bom)]) == 3
        assert capsys.readouterr().err == f"error: {bom}: line 1, col 1: unexpected character '\\ufeff'\n"


class TestExportCommand:
    def test_export_stdout(self, toy_file, capsys):
        assert main(["export", "--graph", str(toy_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("@prefix rdf:")
        assert import_turtle(out) == load_graph(toy_file)

    def test_syntax_error_exit_three(self, tmp_path):
        bad = tmp_path / "broken.ttl"
        bad.write_text('kb:a kb:b "unclosed .\n', encoding="utf-8")
        assert main(["export", "--graph", str(bad)]) == 3

class TestAnalysisCommands:
    def test_casestudy(self, tmp_path, capsys):
        g_file = tmp_path / "roses.ttl"
        doc = "white rose\n  purity; faith\n\ngolden hair\n  purity\n\nblue candle\n  faith\n"
        src = tmp_path / "roses.dict"
        src.write_text(doc, encoding="utf-8")
        main(["ingest-dict", str(src), "--out", str(g_file)])
        capsys.readouterr()
        svg_file = tmp_path / "dist.svg"
        rc = main(["casestudy", "--graph", str(g_file), "--target", "kb:whiteRose", "--svg", str(svg_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("meaning,")
        assert svg_file.read_text(encoding="utf-8").startswith("<svg")

        rc = main(["casestudy", "--graph", str(g_file), "--target", "kb:whiteRose", "--colors", "blue", "gold"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "meaning,blue,gold"
        assert "faith,1,0" in lines  # blue candle shares faith; custom lexicon drops white

    def test_bad_gold_is_an_input_error_that_names_the_file(self, tmp_path, toy_file, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("Banana\thttps://example.org/x\n", encoding="utf-8")
        assert main(["eval", "--gold", str(gold), "--converted", str(toy_file)]) == 3
        assert capsys.readouterr().err == f"error: {gold}: line 1: unknown category 'Banana'\n"

    def test_gold_file_byte_order_mark_is_ignored(self, tmp_path, toy_file, capsys):
        reports = []
        for bom in (b"", codecs.BOM_UTF8):
            gold = tmp_path / f"gold{len(bom)}.tsv"
            gold.write_bytes(bom + b"Simulation\thttps://w3id.org/simulation/data/owl-death\n")
            assert main(["eval", "--gold", str(gold), "--converted", str(toy_file)]) == 0
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1]


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_flag(self, toy_file):
        assert main(["validate", "--graph", str(toy_file), "--frobnicate"]) == 1

    @pytest.mark.parametrize(
        "command", ["ingest-dict", "ingest-dbpedia", "ingest-wordnet", "export", "casestudy", "eval"]
    )
    def test_option_the_command_does_not_read(self, command, toy_file, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("Simulation\thttps://w3id.org/simulation/data/owl-death\n", encoding="utf-8")
        argv = {
            "ingest-dict": ["ingest-dict", str(FIXTURES / "hook.dict")],
            "ingest-dbpedia": ["ingest-dbpedia", "--triples", str(FIXTURES / "eagle.nt")],
            "ingest-wordnet": ["ingest-wordnet", str(FIXTURES / "penelope.tsv")],
            "export": ["export", "--graph", str(toy_file)],
            "casestudy": ["casestudy", "--graph", str(toy_file), "--target", "kb:olive"],
            "eval": ["eval", "--gold", str(gold), "--converted", str(toy_file)],
        }[command]
        assert main(argv) == 0
        unread = ["--graph", str(toy_file)] if command == "eval" else ["--format", "csv"]
        assert main(argv + unread) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--cq", "Q1.1", "--bind", "simulacrum=a b"],
            ["casestudy", "--target", "kb:a b"],
        ],
    )
    def test_invalid_iri_argument_is_usage_error(self, argv, toy_file, capsys):
        assert main(argv + ["--graph", str(toy_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["query", "--cq", "Q1.1", "--bind", "simulacrum=kb:nope"], "no entity kb:nope in the graph"),
            (["query", "--cq", "Q2.3", "--bind", "simulation=kb:nope"], "no simulation kb:nope in the graph"),
            (["query", "--cq", "Q2.3", "--bind", "simulation=kb:olive"], "no simulation kb:olive in the graph"),
            (["casestudy", "--target", "kb:nope"], "no entity kb:nope in the graph"),
        ],
        ids=["Q1.1", "Q2.3", "Q2.3-entity", "casestudy"],
    )
    def test_unknown_iri_is_usage_error(self, argv, message, toy_file, capsys):
        assert main(argv + ["--graph", str(toy_file)]) == 1
        full = message.replace("kb:", str(KB))
        assert capsys.readouterr().err == f"usage error: {full}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ingest-dict", "hook.dict", "--source-label", "ol\udcffderr"], "source label must be valid UTF-8, got 'ol\\udcffderr'"),
            (["ingest-dict", "ol\udcff.dict"], "source label must be valid UTF-8, got 'ol\\udcff'"),
            (["ingest-dict", "hook.dict", "--source-label", " "], "source label: label is empty or whitespace-only"),
            (["ingest-dbpedia", "--triples", "eagle.nt", "--source-label", "ol\udcff"], "source label must be valid UTF-8, got 'ol\\udcff'"),
            (["ingest-dbpedia", "--triples", "eagle.nt", "--source-label", "!!!"], "source label: label '!!!' has no alphanumeric characters"),
            (["ingest-wordnet", "penelope.tsv", "--source-label", "ol\udcff"], "source label must be valid UTF-8, got 'ol\\udcff'"),
            (["casestudy", "--target", "kb:hook", "--colors", "gold", "r\udcffed"], "--colors must be valid UTF-8, got 'r\\udcffed'"),
            (["casestudy", "--target", "kb:hook", "--colors", "red", "red"], "--colors must name distinct, non-empty colours, got 'red' 'red'"),
            (["casestudy", "--target", "kb:hook", "--colors", ""], "--colors must name distinct, non-empty colours, got ''"),
            (["casestudy", "--target", "kb:hook", "--colors", "Red", "gold"], "--colors 'Red' matches no label word; write 'red'"),
            (["casestudy", "--target", "kb:hook", "--colors", "white", "Golden"], "--colors 'Golden' matches no label word; write 'gold'"),
            (["casestudy", "--target", "kb:hook", "--colors", "golden", "white"], "--colors 'golden' matches no label word; write 'gold'"),
            (["casestudy", "--target", "kb:hook", "--colors", "light blue"], "--colors 'light blue' matches no label word; name one word per colour"),
            (["query", "--cq", "Q9.9"], "unknown competency question 'Q9.9'; expected one of " + ", ".join(c.value for c in CqId)),
            (["query", "--cq", "Q1.1", "--bind", "simulacrum"], "--bind expects NAME=IRI, got 'simulacrum'"),
            (["query", "--cq", "Q1.1", "--bind", "simulacrum=kb:nope", "--bind", "simulacrum=kb:hook"], "--bind names 'simulacrum' more than once"),
            (["query", "--cq", "Q1.1", "--bind", "simulacrum=a b"], f"not an IRI: 'a b' {NOT_AN_IRI}"),
            (["casestudy", "--target", "kb:a b"], f"not an IRI: '{KB}a b' {NOT_AN_IRI}"),
            (["ingest-dict", "hook.dict", "--phrase-table", "list.json"], "phrase table: expected a JSON object, got list"),
        ],
        ids=[
            "dict", "dict-stem", "dict-blank", "dbpedia", "dbpedia-no-alnum", "wordnet", "casestudy", "palette-repeated",
            "palette-empty", "palette-upper-case", "palette-alias", "palette-fixture-name", "palette-two-words", "cq-id",
            "bind-syntax", "bind-repeated", "bind-iri", "casestudy-target", "phrase-table",
        ],
    )
    def test_unusable_label_argument_is_usage_error(self, argv, message, tmp_path, capsys):
        # the inputs exist but --graph does not: the argument is refused before any is read
        stem = tmp_path / "ol\udcff.dict"  # a file name that is not UTF-8, as argv decodes it
        stem.write_bytes((FIXTURES / "hook.dict").read_bytes())
        table = tmp_path / "list.json"
        table.write_text("[]", encoding="utf-8")
        files = {"ol\udcff.dict": stem, "list.json": table, **{f.name: f for f in FIXTURES.iterdir()}}
        out = tmp_path / "out"
        # a word names a file only where a file goes: after a command that
        # takes files, or after an option whose value is one
        file_positions = {"ingest-dict", "ingest-wordnet", "--triples", "--phrase-table"}
        argv = [str(files[a]) if before in file_positions else a for before, a in zip(["", *argv], argv)]
        assert main([*argv, "--graph", str(tmp_path / "missing.ttl"), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_dict_grammar_in_help(self, capsys):
        assert main(["ingest-dict", "--help"]) == 0
        assert "dictionary format" in capsys.readouterr().out


class TestCollectorPause:
    """``main`` runs a command with the cyclic garbage collector paused and
    gives the caller back the collector state it had, however it ends."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def caller_state(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["validate", "--graph", "{toy}"], 0),
            (["validate", "--graph", "{toy}", "--frobnicate"], 1),
            (["export", "--graph", "{bad}"], 2),
            (["validate", "--graph", "{missing}"], 3),
            (["--help"], 0),
        ],
        ids=["exit-0", "exit-1", "exit-2", "exit-3", "help"],
    )
    def test_state_is_restored(self, argv, code, caller_state, toy_file, tmp_path, capsys):
        bad = tmp_path / "bad.ttl"
        bad.write_text(HEADER + "kb:x-y sim:hasSimulacrum kb:x .\n", encoding="utf-8")
        paths = {"toy": toy_file, "bad": bad, "missing": tmp_path / "missing.ttl"}
        frozen = gc.get_freeze_count()
        assert main([arg.format(**paths) for arg in argv]) == code
        assert gc.isenabled() is caller_state
        assert gc.get_freeze_count() == frozen  # main never freezes the caller's heap

    def test_command_runs_paused_and_an_exception_propagates(self, caller_state, toy_file, monkeypatch):
        seen = []

        def failing_stats(args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr("simkg.cli._cmd_stats", failing_stats)
        with pytest.raises(RuntimeError, match="boom"):
            main(["stats", "--graph", str(toy_file)])
        assert seen == [False]
        assert gc.isenabled() is caller_state


def test_main_leaves_the_callers_stderr_alone(tmp_path):
    # a warning after main() returns goes to the stderr of that moment, not
    # to the stream that was stderr while the command ran
    mystery = tmp_path / "mystery.ttl"
    mystery.write_text(HEADER + "kb:x a <http://example.org/Mystery> ;\n    sim:hasSimulacrum kb:y .\n", encoding="utf-8")
    code = """\
import contextlib, io, sys
from simkg.cli import main
from simkg.serialize import load_graph
buf = io.StringIO()
with contextlib.redirect_stderr(buf):
    assert main(["validate", "--graph", sys.argv[1]]) == 0
load_graph(sys.argv[2])
assert buf.getvalue() == "", buf.getvalue()
"""
    result = subprocess.run(
        [sys.executable, "-c", code, str(FIXTURES / "golden" / "hook.ttl"), str(mystery)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == (
        "unknown class http://example.org/Mystery on https://w3id.org/simulation/data/x, "
        "defaulting to the generic simulation\n"
    )


# The process entry as ``python -m simkg`` runs it, and as the installed
# console script calls it.
ENTRIES = {
    "module": ["-m", "simkg"],
    "console-script": ["-c", "import sys; from simkg.__main__ import run; sys.exit(run())"],
}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_process_entry_matches_main(entry, capsys, monkeypatch):
    # the case table pins every other command's output; argparse's help text
    # differs between Python versions, so it is compared with main's instead
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps --help to, in both processes
    assert main(["--help"]) == 0
    expected = capsys.readouterr()
    result = subprocess.run([sys.executable, *entry, "--help"], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected.out, expected.err)


class TestExitFreeze:
    """``run``, the process entry, freezes the heap once ``main`` returns,
    so that the interpreter's exit skips its collections over it; ``main``
    never freezes, so an in-process caller's heap stays collectable."""

    @pytest.fixture
    def unfreeze(self):
        yield
        gc.unfreeze()

    @pytest.mark.parametrize(
        "argv, code",
        [(["validate", "--graph", "{toy}"], 0), (["validate", "--graph", "{missing}"], 3)],
        ids=["exit-0", "exit-3"],
    )
    def test_run_returns_the_code_of_main_and_freezes(self, argv, code, unfreeze, toy_file, tmp_path, monkeypatch):
        from simkg.__main__ import run

        paths = {"toy": toy_file, "missing": tmp_path / "missing.ttl"}
        monkeypatch.setattr(sys, "argv", ["simkg", *(arg.format(**paths) for arg in argv)])
        assert gc.get_freeze_count() == 0
        assert run() == code
        assert gc.get_freeze_count() > 0
