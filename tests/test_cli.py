import subprocess
import sys

import pytest

from conftest import FIXTURES
from simkg import export_turtle, import_turtle, load_graph
from simkg.cli import main

HEADER = """\
@prefix sim: <https://w3id.org/simulation/ontology/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix kb: <https://w3id.org/simulation/data/> .
"""


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

    def test_unknown_cq_is_usage_error(self, toy_file, capsys):
        assert main(["query", "--graph", str(toy_file), "--cq", "Q9.9"]) == 1

    def test_missing_binding_is_usage_error(self, toy_file):
        assert main(["query", "--graph", str(toy_file), "--cq", "Q1.1"]) == 1

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

    def test_ingest_dict_source_label(self, tmp_path):
        out_file = tmp_path / "hook.ttl"
        main(["ingest-dict", str(FIXTURES / "hook.dict"), "--out", str(out_file), "--source-label", "olderr"])
        g = load_graph(out_file)
        assert any(s.sources[0].id.local_name == "olderr" for s in g.simulations.values())

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

    def test_pipelining_identity(self, tmp_path, capsys):
        # running query on a saved file equals running against the in-process graph
        out_file = tmp_path / "birds.ttl"
        main(["ingest-dict", str(FIXTURES / "birds.dict"), "--out", str(out_file), "--source-label", "olderr"])
        capsys.readouterr()
        main(["query", "--graph", str(out_file), "--cq", "Q3.3"])
        from_file = capsys.readouterr().out

        from simkg import CqId, Graph, run_cq
        from simkg.cli import _insert_all
        from simkg.dictionary import convert_document
        from simkg.model import Role
        from simkg import make_entity

        g = Graph()
        _, conv = convert_document(
            (FIXTURES / "birds.dict").read_text(encoding="utf-8"), make_entity("olderr", Role.SOURCE)
        )
        _insert_all(g, conv.simulations, conv.variants)
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

    def test_bad_phrase_table_is_usage_error(self, tmp_path):
        table = tmp_path / "table.json"
        table.write_text('{"reminiscent of": ["Banana", "Has"]}', encoding="utf-8")
        doc = tmp_path / "doc.dict"
        doc.write_text("hook\n  barbs\n", encoding="utf-8")
        assert main(["ingest-dict", str(doc), "--phrase-table", str(table)]) == 1

    def test_exclude_type_flag(self, tmp_path, capsys):
        out = tmp_path / "dbp.ttl"
        rc = main([
            "ingest-dbpedia", "--triples", str(FIXTURES / "eagle.nt"),
            "--exclude-type", "Deity", "--out", str(out),
        ])
        assert rc == 0
        g = load_graph(out)
        assert not any("thunderbolt" in i for i in g.simulations)


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
        err = capsys.readouterr().err
        assert err.startswith(f"error: {nt}: line 1: ")
        assert len(err.splitlines()) == 1

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


class TestExportCommand:
    def test_export_stdout(self, toy_file, capsys):
        assert main(["export", "--graph", str(toy_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("@prefix rdf:")
        assert import_turtle(out) == load_graph(toy_file)

    def test_export_refuses_dirty_graph(self, tmp_path, capsys):
        bad = tmp_path / "bad.ttl"
        bad.write_text(HEADER + "kb:x-y sim:hasSimulacrum kb:x .\n", encoding="utf-8")
        assert main(["export", "--graph", str(bad)]) == 2
        assert main(["export", "--graph", str(bad), "--force"]) == 0

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

    def test_eval(self, tmp_path, toy_file, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text(
            "Simulation\thttps://w3id.org/simulation/data/owl-death\n", encoding="utf-8"
        )
        rc = main(["eval", "--gold", str(gold), "--converted", str(toy_file)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["element", "tp", "fp", "fn", "precision", "recall", "f1"]
        assert any(line.startswith("Average") for line in lines)

    def test_bad_gold_is_usage_error(self, tmp_path, toy_file):
        gold = tmp_path / "gold.tsv"
        gold.write_text("Banana\thttps://example.org/x\n", encoding="utf-8")
        assert main(["eval", "--gold", str(gold), "--converted", str(toy_file)]) == 1


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

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_dict_grammar_in_help(self, capsys):
        assert main(["ingest-dict", "--help"]) == 0
        assert "dictionary format" in capsys.readouterr().out


def test_module_entrypoint_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "simkg", "validate", "--graph", str(FIXTURES / "hook.dict")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 3  # not Turtle: reported as an input failure
    result = subprocess.run([sys.executable, "-m", "simkg", "--help"], capture_output=True, text=True)
    assert result.returncode == 0
    assert "simkg" in result.stdout
