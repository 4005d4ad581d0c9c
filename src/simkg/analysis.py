"""Corpus analyses: the colour case study and the conversion evaluation.

The colour study asks, for every meaning of a target entity, which other
simulacra share that meaning and what colour they carry in their label.
The evaluation harness scores a converted graph against a hand-annotated
gold file with micro precision/recall/F1 per element category.
"""

from __future__ import annotations

import csv
import io
import re
from enum import Enum
from typing import Collection, Iterable, NamedTuple, Union

from .graph import Graph
from .model import Entity, Iri

DEFAULT_COLOR_LEXICON = ("white", "red", "green", "black", "gold", "blue", "purple")
COLOR_ALIASES = {"golden": "gold"}

_WORDS = re.compile(r"[^\W_]+", re.UNICODE)


class GoldFormatError(ValueError):
    pass


class MeaningRow(NamedTuple):
    meaning: Entity
    counts: tuple[tuple[str, int], ...]  # (colour, distinct simulacra), colours with zero hits omitted

    def count(self, color: str) -> int:
        return dict(self.counts).get(color, 0)

    def total(self) -> int:
        return sum(n for _, n in self.counts)


class ColorDistribution(NamedTuple):
    target: Entity
    colors: tuple[str, ...]
    rows: tuple[MeaningRow, ...]


def label_colors(label: str, colors: Collection[str]) -> set[str]:
    """Colour tokens present in a label, on word boundaries; COLOR_ALIASES
    fold variants onto their canonical colour ("golden" counts as gold)."""
    found = set()
    for word in _WORDS.findall(label.lower()):
        word = COLOR_ALIASES.get(word, word)
        if word in colors:
            found.add(word)
    return found


def color_distribution(
    g: Graph,
    target: Union[Entity, Iri, str],
    colors: Iterable[str] = DEFAULT_COLOR_LEXICON,
) -> ColorDistribution:
    """Per-meaning colour counts of the simulacra sharing each meaning.

    A simulacrum sharing several meanings contributes to every matching
    row; within one row each simulacrum counts once per colour; the target
    itself is never counted.
    """
    target_entity = g.entity(target)
    palette = tuple(colors)
    lexicon = set(palette)
    rows = []
    for meaning in g._reachable_meanings(target_entity.id):
        sharers: set[Iri] = set()
        for sim_id in g.simulations_with_rc(meaning):
            sharers.update(g.simulations[sim_id].simulacra)
        sharers.discard(target_entity.id)
        counts = {color: 0 for color in palette}
        for iri in sharers:
            for color in label_colors(g.entities[iri].label, lexicon):
                counts[color] += 1
        rows.append(
            MeaningRow(
                meaning=g.entities[meaning],
                counts=tuple((c, counts[c]) for c in palette if counts[c]),
            )
        )
    return ColorDistribution(target=target_entity, colors=palette, rows=tuple(rows))


def distribution_csv(dist: ColorDistribution) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["meaning", *dist.colors])
    writer.writerows([row.meaning.label, *(row.count(c) for c in dist.colors)] for row in dist.rows)
    return out.getvalue()


_SVG_BAR_HEIGHT = 22
_SVG_GAP = 8
_SVG_LABEL_WIDTH = 180
_SVG_PLOT_WIDTH = 560


def distribution_svg(dist: ColorDistribution) -> str:
    """Static stacked-bar rendering, one horizontal bar per meaning."""
    rows = dist.rows
    height = _SVG_GAP + len(rows) * (_SVG_BAR_HEIGHT + _SVG_GAP) + 30
    width = _SVG_LABEL_WIDTH + _SVG_PLOT_WIDTH + 20
    scale_max = max((row.total() for row in rows), default=0) or 1
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text x="{_SVG_LABEL_WIDTH}" y="16" font-weight="bold">'
        f"Coloured simulacra sharing each meaning of {_escape(dist.target.label)}</text>",
    ]
    y = 30
    for row in rows:
        parts.append(
            f'<text x="{_SVG_LABEL_WIDTH - 6}" y="{y + _SVG_BAR_HEIGHT - 7}" text-anchor="end">'
            f"{_escape(row.meaning.label)}</text>"
        )
        x = float(_SVG_LABEL_WIDTH)
        for color in dist.colors:
            n = row.count(color)
            if not n:
                continue
            seg = _SVG_PLOT_WIDTH * n / scale_max
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{seg:.1f}" height="{_SVG_BAR_HEIGHT}" '
                f'fill="{color}" stroke="#444"><title>{_escape(row.meaning.label)}: {color} = {n}</title></rect>'
            )
            x += seg
        y += _SVG_BAR_HEIGHT + _SVG_GAP
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# -- conversion evaluation ---------------------------------------------------


class EvalCategory(Enum):
    SIMULATION = "Simulation"
    SIMULACRUM = "Simulacrum"
    REALITY_COUNTERPART = "RealityCounterpart"
    CONTEXT = "Context"
    TYPE_OF_SIMULATION = "TypeOfSimulation"
    VARIANT = "Variant"

    @property
    def arity(self) -> int:
        # TypeOfSimulation items pair a simulation with its class; Variant
        # items pair base and variant.  Everything else is a single IRI.
        return 2 if self in (EvalCategory.TYPE_OF_SIMULATION, EvalCategory.VARIANT) else 1


GoldItems = dict[EvalCategory, set[tuple[Iri, ...]]]


def parse_gold(text: str) -> GoldItems:
    """Gold annotation file: ``Category <TAB> iri [<TAB> iri]`` per line,
    blank lines and ``#`` comments ignored."""
    items: GoldItems = {cat: set() for cat in EvalCategory}
    by_label = {cat.value: cat for cat in EvalCategory}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t") if f.strip()]
        category = by_label.get(fields[0])
        if category is None:
            raise GoldFormatError(f"line {lineno}: unknown category {fields[0]!r}")
        if len(fields) - 1 != category.arity:
            raise GoldFormatError(
                f"line {lineno}: {category.value} takes {category.arity} IRI(s), got {len(fields) - 1}"
            )
        try:
            items[category].add(tuple(Iri(f) for f in fields[1:]))
        except ValueError as err:
            raise GoldFormatError(f"line {lineno}: {err}") from err
    return items


def predicted_items(g: Graph) -> GoldItems:
    items: GoldItems = {cat: set() for cat in EvalCategory}
    for sim in g.simulations.values():
        items[EvalCategory.SIMULATION].add((sim.id,))
        items[EvalCategory.TYPE_OF_SIMULATION].add((sim.id, sim.kind.schema_iri))
        items[EvalCategory.SIMULACRUM].update((e,) for e in sim.simulacra)
        items[EvalCategory.REALITY_COUNTERPART].update((e,) for _, e in sim.reality_counterparts)
        items[EvalCategory.CONTEXT].update((e,) for e in sim.contexts)
    items[EvalCategory.VARIANT].update((b, v) for b, v in g.variant_edges)
    return items


class MetricRow(NamedTuple):
    category: str
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        if self.tp + self.fp == 0:
            return 1.0 if self.fn == 0 else 0.0
        return self.tp / (self.tp + self.fp)

    @property
    def recall(self) -> float:
        if self.tp + self.fn == 0:
            return 1.0 if self.fp == 0 else 0.0
        return self.tp / (self.tp + self.fn)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)


class EvalReport(NamedTuple):
    rows: tuple[MetricRow, ...]
    average: MetricRow  # micro: TP/FP/FN pooled over all categories


def eval_conversion(gold: GoldItems, predicted: Graph) -> EvalReport:
    """Score a converted graph against gold annotations, micro-averaged."""
    predictions = predicted_items(predicted)
    rows = []
    pooled_tp = pooled_fp = pooled_fn = 0
    for category in EvalCategory:
        gold_set = gold.get(category, set())
        pred_set = predictions[category]
        tp = len(gold_set & pred_set)
        fp = len(pred_set - gold_set)
        fn = len(gold_set - pred_set)
        pooled_tp += tp
        pooled_fp += fp
        pooled_fn += fn
        rows.append(MetricRow(category.value, tp, fp, fn))
    return EvalReport(rows=tuple(rows), average=MetricRow("Average", pooled_tp, pooled_fp, pooled_fn))
