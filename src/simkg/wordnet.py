"""Converter from lexical-database synset records to simulations.

Input is tab-separated: ``synset_iri <TAB> label <TAB> gloss <TAB> flag``
where the flag marks records already known to be hyponyms of the symbol or
emblem synsets.  Meaning extraction is rule based: find a trigger phrase
in the gloss, cut the tail at the first clause boundary and split it into
meaning terms.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, field
from typing import Iterable

from .dictionary import ParseError
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

logger = logging.getLogger(__name__)

TRIGGER_PHRASES = ("symbol of", "emblem of", "symbolizes")
_TRIGGER = re.compile(r"\b(?:%s)\b" % "|".join(TRIGGER_PHRASES), re.IGNORECASE)
# A meaning enumeration ends at the first of these.
_BOUNDARY = re.compile(r";|\.|\s+who\s|\s+which\s", re.IGNORECASE)
_SPLITTER = re.compile(r",|\s+and\s+|\s+or\s+", re.IGNORECASE)
_LEADING_CONTEXT = re.compile(r"^\s*\(([^)]*)\)\s*")
_ARTICLE = re.compile(r"^(?:a|an|the)\s+", re.IGNORECASE)


class NoTriggerError(ValueError):
    def __init__(self, record: "SynsetRecord"):
        super().__init__(f"no trigger phrase in the gloss of {record.synset_iri}")
        self.record = record


@dataclass(frozen=True, slots=True)
class SynsetRecord:
    synset_iri: Iri
    label: str
    gloss: str
    is_symbol_hyponym: bool = False


def read_synset_file(path) -> list[SynsetRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter="\t"), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 tab-separated fields, got {len(row)}", lineno)
            iri, label, gloss, flag = (cell.strip() for cell in row)
            try:
                synset_iri = Iri(iri)
            except ValueError as err:
                raise ParseError(str(err), lineno) from None
            records.append(
                SynsetRecord(
                    synset_iri=synset_iri,
                    label=label,
                    gloss=gloss,
                    is_symbol_hyponym=flag.lower() in ("1", "true", "yes"),
                )
            )
    return records


def select_synsets(records: Iterable[SynsetRecord]) -> list[SynsetRecord]:
    """Keep flagged records and those whose gloss contains a trigger phrase."""
    return [r for r in records if r.is_symbol_hyponym or _TRIGGER.search(r.gloss)]


def convert_synset(record: SynsetRecord, source: Entity) -> list[Simulation]:
    """One simulation per extracted meaning term.

    The record's label becomes the simulacrum, linked back to the synset
    IRI; a leading parenthesized phrase in the gloss becomes the context.
    Raises :class:`NoTriggerError` when the gloss has no trigger phrase.
    """
    gloss = record.gloss
    context = general_context()
    m = _LEADING_CONTEXT.match(gloss)
    if m and m.group(1).strip():
        context = make_entity(m.group(1).strip(), Role.CONTEXT)
        gloss = gloss[m.end():]

    m = _TRIGGER.search(gloss)
    if m is None:
        raise NoTriggerError(record)
    tail = gloss[m.end():]
    boundary = _BOUNDARY.search(tail)
    if boundary:
        tail = tail[: boundary.start()]

    simulacrum = make_entity(record.label, Role.SIMULACRUM, links=[record.synset_iri])
    simulations = []
    for piece in _SPLITTER.split(tail):
        term = _ARTICLE.sub("", piece.strip()).strip()
        if not term:
            continue
        try:
            rc = make_entity(term, Role.REALITY_COUNTERPART)
        except EmptyLabelError:
            logger.debug("skipping unmintable meaning term %r from %s", term, record.synset_iri)
            continue
        simulations.append(
            build_simulation(SimulationKind.GENERIC, simulacrum, [(RcRelation.HAS, rc)], [context], [source])
        )
    return simulations


@dataclass(slots=True)
class WordnetConversion:
    simulations: list[Simulation] = field(default_factory=list)
    skipped: list[SynsetRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def convert_synsets(records: Iterable[SynsetRecord], source: Entity) -> WordnetConversion:
    """Select and convert a batch, keeping a log of skips and oddities."""
    out = WordnetConversion()
    for record in select_synsets(records):
        if record.gloss.lower().lstrip().startswith("(figurative)"):
            out.warnings.append(f"{record.synset_iri}: figurative marker treated as a context")
        try:
            out.simulations.extend(convert_synset(record, source))
        except NoTriggerError:
            out.skipped.append(record)
            out.warnings.append(f"{record.synset_iri}: no trigger phrase in gloss, skipped")
    return out
