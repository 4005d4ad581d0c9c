import csv
import io

import pytest

from simkg import (
    EvalCategory,
    GoldFormatError,
    Graph,
    Iri,
    RcRelation,
    SimulationKind,
    UnknownEntityError,
    build_simulation,
    color_distribution,
    eval_conversion,
    make_entity,
    parse_gold,
    save_graph,
)
from simkg.analysis import distribution_svg, label_colors, predicted_items
from simkg.cli import main
from simkg.model import KB, SIM


def _add(g, simulacrum, meanings, source="olderr"):
    for m in meanings:
        g.insert_simulation(
            build_simulation(
                SimulationKind.GENERIC,
                make_entity(simulacrum),
                [(RcRelation.HAS, make_entity(m))],
                [make_entity("general")],
                [make_entity(source)],
            )
        )


def _casestudy_csv(g, tmp_path, capsys):
    """What ``simkg casestudy`` prints for the white rose of graph ``g``."""
    path = tmp_path / "rose.ttl"
    save_graph(g, path)
    assert main(["casestudy", "--graph", str(path), "--target", "kb:whiteRose"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.fixture
def rose_graph():
    g = Graph()
    _add(g, "white rose", ["purity", "innocence", "charm", "faith"])
    _add(g, "golden hair", ["purity"])
    _add(g, "white knight", ["purity", "innocence"])
    _add(g, "white swan", ["purity"])
    _add(g, "blue candle", ["faith"])
    _add(g, "white dove", ["faith"])
    _add(g, "red dragon", ["war"])  # shares nothing with the rose
    return g


class TestLabelColors:
    def test_word_boundary(self):
        assert label_colors("white knight", ["white", "red"]) == {"white"}
        assert label_colors("whitewash", ["white"]) == set()

    def test_golden_counts_as_gold(self):
        assert label_colors("golden hair", ["gold"]) == {"gold"}

    def test_multiple_colors(self):
        assert label_colors("black and white", ["black", "white"]) == {"black", "white"}


class TestColorDistribution:
    def test_purity_row(self, rose_graph):
        dist = color_distribution(rose_graph, Iri(KB + "whiteRose"))
        purity = next(r for r in dist.rows if r.meaning.label == "purity")
        assert purity.count("white") == 2  # white knight, white swan
        assert purity.count("gold") == 1  # golden hair
        assert purity.total() == 3

    def test_faith_half_white_half_blue(self, rose_graph):
        dist = color_distribution(rose_graph, Iri(KB + "whiteRose"))
        faith = next(r for r in dist.rows if r.meaning.label == "faith")
        assert faith.count("white") == 1 and faith.count("blue") == 1
        assert faith.total() == 2

    def test_target_never_counted(self, rose_graph):
        dist = color_distribution(rose_graph, Iri(KB + "whiteRose"))
        # the white rose itself is white; without the exclusion purity would be 3 white
        purity = next(r for r in dist.rows if r.meaning.label == "purity")
        assert purity.count("white") == 2

    def test_target_with_no_meanings(self):
        g = Graph()
        g.upsert_entity(make_entity("pebble"))
        dist = color_distribution(g, Iri(KB + "pebble"))
        assert dist.rows == ()

    def test_unknown_target(self, rose_graph):
        with pytest.raises(UnknownEntityError):
            color_distribution(rose_graph, Iri(KB + "ghost"))

    def test_shared_simulacrum_in_multiple_rows(self, rose_graph):
        dist = color_distribution(rose_graph, Iri(KB + "whiteRose"))
        innocence = next(r for r in dist.rows if r.meaning.label == "innocence")
        purity = next(r for r in dist.rows if r.meaning.label == "purity")
        # white knight shares two meanings so it appears in both rows
        assert innocence.count("white") == 1
        assert purity.count("white") == 2

    def test_brute_force_oracle(self, rose_graph):
        dist = color_distribution(rose_graph, Iri(KB + "whiteRose"))
        # independent recomputation: raw set intersections over simulations
        target = Iri(KB + "whiteRose")
        sims = rose_graph.simulations.values()
        meanings_by_simulacrum = {}
        for s in sims:
            meanings_by_simulacrum.setdefault(rose_graph.entities[s.simulacrum].id, set()).update(
                rose_graph.entities[e].id for _, e in s.reality_counterparts
            )
        for row in dist.rows:
            expected = {}
            for simulacrum, meanings in meanings_by_simulacrum.items():
                if simulacrum == target or row.meaning.id not in meanings:
                    continue
                label = rose_graph.entities[simulacrum].label
                for color in label_colors(label, dist.colors):
                    expected[color] = expected.get(color, 0) + 1
            assert dict(row.counts) == expected

    def test_each_palette_gets_its_own_counts(self, rose_graph):
        target = Iri(KB + "whiteRose")
        for _ in range(2):  # the second round reads colours found by the first
            default = color_distribution(rose_graph, target)
            gold_red = color_distribution(rose_graph, target, ["gold", "red"])
            purity = next(r for r in default.rows if r.meaning.label == "purity")
            assert purity.counts == (("white", 2), ("gold", 1))
            assert gold_red.colors == ("gold", "red")
            assert [(r.meaning.label, r.counts) for r in gold_red.rows] == [
                ("charm", ()), ("faith", ()), ("innocence", ()), ("purity", (("gold", 1),)),
            ]

    def test_csv_and_svg_render(self, rose_graph, tmp_path, capsys):
        dist = color_distribution(rose_graph, Iri(KB + "whiteRose"))
        csv_text = _casestudy_csv(rose_graph, tmp_path, capsys)
        assert csv_text.splitlines()[0] == "meaning,white,red,green,black,gold,blue,purple"
        assert any(line.startswith("purity,2") for line in csv_text.splitlines())
        svg = distribution_svg(dist)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert 'fill="gold"' in svg

    def test_csv_quotes_a_label_with_a_comma_or_quote(self, rose_graph, tmp_path, capsys):
        _add(rose_graph, "white rose", ['peace, "love"'])
        _add(rose_graph, "white lily", ['peace, "love"'])
        csv_text = _casestudy_csv(rose_graph, tmp_path, capsys)
        rows = list(csv.reader(io.StringIO(csv_text)))
        assert {len(row) for row in rows} == {8}
        assert ['peace, "love"', "1", "0", "0", "0", "0", "0", "0"] in rows
        assert '"peace, ""love""",1,0,0,0,0,0,0' in csv_text.splitlines()
        assert "purity,2,0,0,0,1,0,0" in csv_text.splitlines()


GOLD_OK = """\
# comment lines are ignored
Simulation\thttps://w3id.org/simulation/data/owl-death
Simulacrum\thttps://w3id.org/simulation/data/owl
TypeOfSimulation\thttps://w3id.org/simulation/data/owl-death\thttps://w3id.org/simulation/ontology/Simulation
Variant\thttps://w3id.org/simulation/data/bird\thttps://w3id.org/simulation/data/nightBird
"""


class TestGoldFile:
    def test_parse_ok(self):
        items = parse_gold(GOLD_OK)
        assert (Iri(KB + "owl-death"),) in items[EvalCategory.SIMULATION]
        assert (Iri(KB + "owl-death"), Iri(SIM + "Simulation")) in items[EvalCategory.TYPE_OF_SIMULATION]
        assert (Iri(KB + "bird"), Iri(KB + "nightBird")) in items[EvalCategory.VARIANT]

    def test_unknown_category(self):
        with pytest.raises(GoldFormatError):
            parse_gold("Nonsense\thttps://example.org/x\n")

    def test_wrong_arity(self):
        with pytest.raises(GoldFormatError):
            parse_gold("Simulation\thttps://example.org/x\thttps://example.org/y\n")

    def test_bad_iri(self):
        with pytest.raises(GoldFormatError):
            parse_gold("Simulation\tnot an iri\n")


class TestEval:
    def test_identical_gold_and_predicted_all_ones(self, toy_graph):
        gold = predicted_items(toy_graph)
        report = eval_conversion(gold, toy_graph)
        for row in (*report.rows, report.average):
            assert row.precision == 1.0
            assert row.recall == 1.0
            assert row.f1 == 1.0

    def test_nine_of_ten_plus_extra(self):
        g = Graph()
        _add(g, "a", ["x"], source="s")
        _add(g, "b", ["y"], source="s")
        g.add_variant(make_entity("a"), make_entity("v"))
        predicted = predicted_items(g)
        assert sum(len(v) for v in predicted.values()) == 10
        gold = {cat: set(items) for cat, items in predicted.items()}
        gold[EvalCategory.VARIANT] = {(Iri(KB + "a"), Iri(KB + "w"))}  # expected a different variant
        report = eval_conversion(gold, g)
        assert report.average.tp == 9
        assert report.average.fp == 1
        assert report.average.fn == 1
        assert abs(report.average.precision - 0.9) < 1e-9
        assert abs(report.average.recall - 0.9) < 1e-9
        assert abs(report.average.f1 - 0.9) < 1e-9

    def test_metric_identities_on_integer_fixtures(self, toy_graph):
        gold = predicted_items(toy_graph)
        gold[EvalCategory.CONTEXT].add((Iri(KB + "unseenContext"),))
        report = eval_conversion(gold, toy_graph)
        ctx = next(r for r in report.rows if r.category == "Context")
        assert ctx.precision == ctx.tp / (ctx.tp + ctx.fp) if ctx.tp + ctx.fp else True
        assert ctx.recall == ctx.tp / (ctx.tp + ctx.fn)
        assert ctx.fn == 1

    def test_report_read_only(self, toy_graph):
        before = dict(toy_graph.simulations)
        eval_conversion(predicted_items(toy_graph), toy_graph)
        assert toy_graph.simulations == before
