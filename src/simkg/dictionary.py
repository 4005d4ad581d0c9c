"""Parser and converter for plain-text symbol dictionaries.

Format, one entry per lemma block::

    hook
      attraction; deceitfulness
      [Christian] Christ's power to draw souls
      related to: crescent moon
      ~ hook and eye:
        connection

A lemma starts at column 0.  Indented lines are clauses: an optional
bracketed context list, an optional relation phrase ending in ``:``, then
one or more meaning terms separated by ``;``.  A clause starting with
``~ <label>:`` opens a variant block whose more-indented clauses belong to
the variant.  A line that cannot be parsed is recorded as an error and
skipped; parsing goes on with the next line, so a bad clause loses only
itself, and every error is collected instead of stopping at the first.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional

from .model import (
    CardinalityError,
    Conversion,
    CycleError,
    EmptyLabelError,
    Entity,
    ParseError,
    RcRelation,
    SimulationKind,
    VariantLink,
    build_simulation,
    general_context,
    make_entity,
)

# Relation phrases recognized in clauses; a phrase selects the simulation
# kind and how the meaning term hangs off it.  Callers may pass their own
# table to convert_entry to extend or override these.
PHRASE_TABLE: dict[str, tuple[SimulationKind, RcRelation]] = {
    "related to": (SimulationKind.RELATEDNESS, RcRelation.HAS),
    "attribute of": (SimulationKind.ATTRIBUTE, RcRelation.HAS),
    "associated with": (SimulationKind.ASSOCIATION, RcRelation.HAS),
    "corresponds to": (SimulationKind.CORRESPONDENCE, RcRelation.HAS),
    "manifestation of": (SimulationKind.MANIFESTATION, RcRelation.HAS),
    "allusion to": (SimulationKind.ALLUSION, RcRelation.HAS),
    "emblem of": (SimulationKind.EMBLEMATIC, RcRelation.HAS),
    "protection from": (SimulationKind.PROTECTION, RcRelation.PREVENTED),
    "protection against": (SimulationKind.PROTECTION, RcRelation.PREVENTED),
    "cure for": (SimulationKind.HEALING, RcRelation.HEALED),
    "heals": (SimulationKind.HEALING, RcRelation.HEALED),
    "charm for": (SimulationKind.GENERIC, RcRelation.ELICITED),
    "restores": (SimulationKind.GENERIC, RcRelation.RESTORED),
    "eases": (SimulationKind.GENERIC, RcRelation.EASED),
}


class Clause(NamedTuple):
    context_labels: tuple[str, ...]
    relation_phrase: Optional[str]
    meaning_terms: tuple[str, ...]
    line: int


class DictEntry(NamedTuple):
    lemma: str
    clauses: tuple[Clause, ...]
    variant_blocks: tuple[tuple[str, tuple[Clause, ...], int], ...]  # label, clauses, line of ``~ label:``
    line: int


class ParsedDictionary(NamedTuple):
    """Built with fresh lists, which the parser fills."""

    entries: list[DictEntry]
    errors: list[ParseError]


def parse_dictionary(text: str) -> ParsedDictionary:
    """Parse a whole document; entries and collected errors."""
    result = ParsedDictionary([], [])
    lemma: Optional[str] = None
    lemma_line = 0
    clauses: list[Clause] = []
    variants: list[tuple[str, tuple[Clause, ...], int]] = []
    variant_label: Optional[str] = None
    variant_line = variant_indent = 0
    variant_clauses: list[Clause] = []

    def close_variant() -> None:
        nonlocal variant_label, variant_clauses
        if variant_label is not None:
            variants.append((variant_label, tuple(variant_clauses), variant_line))
            variant_label = None
            variant_clauses = []

    def close_entry() -> None:
        nonlocal lemma, clauses, variants
        close_variant()
        if lemma is not None:
            result.entries.append(
                DictEntry(lemma=lemma, clauses=tuple(clauses), variant_blocks=tuple(variants), line=lemma_line)
            )
            lemma = None
            clauses = []
            variants = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        indent = len(raw) - len(raw.lstrip())
        stripped = raw.strip()
        if indent == 0:
            close_entry()
            lemma = stripped
            lemma_line = lineno
            continue
        if lemma is None:
            result.errors.append(ParseError("indented clause before any lemma", lineno))
            continue
        try:
            if stripped.startswith("~"):
                close_variant()
                header = stripped[1:].strip()
                if not header.endswith(":") or not header[:-1].strip():
                    raise ParseError("variant block must look like '~ <label>:'", lineno)
                variant_label = header[:-1].strip()
                variant_line, variant_indent = lineno, indent
                continue
            clause = _parse_clause(stripped, lineno)
            if variant_label is not None and indent > variant_indent:
                variant_clauses.append(clause)
            else:
                close_variant()
                clauses.append(clause)
        except ParseError as err:
            result.errors.append(err)

    close_entry()
    return result


def _parse_clause(text: str, lineno: int) -> Clause:
    contexts: list[str] = []
    rest = text
    while rest.startswith("["):
        end = rest.find("]")
        if end < 0:
            raise ParseError("unclosed context bracket", lineno)
        contexts.extend(label.strip() for label in rest[1:end].split(",") if label.strip())
        rest = rest[end + 1:].strip()
    phrase: Optional[str] = None
    if ":" in rest:
        head, _, tail = rest.partition(":")
        if not head.strip():
            raise ParseError("empty relation phrase before ':'", lineno)
        phrase = head.strip()
        rest = tail
    terms = tuple(t.strip() for t in rest.split(";") if t.strip())
    if not terms:
        raise ParseError("clause has no meaning terms", lineno)
    return Clause(context_labels=tuple(contexts), relation_phrase=phrase, meaning_terms=terms, line=lineno)


def convert_entry(
    entry: DictEntry,
    source: Entity,
    phrase_table: Optional[Mapping[str, tuple[SimulationKind, RcRelation]]] = None,
) -> Conversion:
    """Turn a parsed entry into simulations and variant links.

    One simulation per meaning term per clause; a clause without contexts
    falls back to the general-or-unknown context; an unrecognized relation
    phrase demotes the clause to a generic simulation and is reported in
    the warnings.  A lemma, variant label, context or meaning term that
    cannot be minted skips its entry, block, clause or term with a warning;
    an entry skipped whole is also listed in ``skipped``.
    """
    table = PHRASE_TABLE if phrase_table is None else phrase_table
    out = Conversion([], [], [], [])
    try:
        lemma_entity = make_entity(entry.lemma)
    except EmptyLabelError:
        out.skipped.append(entry)
        out.warnings.append(f"line {entry.line}: unusable lemma {entry.lemma!r}, entry skipped")
        return out
    _convert_clauses(lemma_entity, entry.clauses, source, table, out)
    for variant_label, variant_clauses, line in entry.variant_blocks:
        try:
            variant_entity = make_entity(variant_label)
            link = VariantLink(base=lemma_entity, variant=variant_entity)
        except (EmptyLabelError, CycleError):
            out.warnings.append(f"line {line}: unusable variant label {variant_label!r}, block skipped")
            continue
        out.variants.append(link)
        _convert_clauses(variant_entity, variant_clauses, source, table, out)
    return out


def _convert_clauses(
    simulacrum: Entity,
    clauses: Iterable[Clause],
    source: Entity,
    table: Mapping[str, tuple[SimulationKind, RcRelation]],
    out: Conversion,
) -> None:
    for clause in clauses:
        try:
            contexts = [make_entity(label) for label in clause.context_labels] or [general_context()]
        except EmptyLabelError as err:
            out.warnings.append(f"line {clause.line}: unusable context, clause skipped ({err})")
            continue
        kind, relation = SimulationKind.GENERIC, RcRelation.HAS
        if clause.relation_phrase is not None:
            entry = table.get(clause.relation_phrase.lower())
            if entry is None:
                out.warnings.append(
                    f"line {clause.line}: unknown relation phrase {clause.relation_phrase!r}, treating as generic"
                )
            else:
                kind, relation = entry
        for term in clause.meaning_terms:
            try:
                rc = make_entity(term)
                out.simulations.append(build_simulation(kind, simulacrum, [(relation, rc)], contexts, [source]))
            except (EmptyLabelError, CardinalityError) as err:
                out.warnings.append(f"line {clause.line}: skipped meaning term {term!r} ({err})")


def convert_document(
    text: str,
    source: Entity,
    phrase_table: Optional[Mapping[str, tuple[SimulationKind, RcRelation]]] = None,
) -> tuple[ParsedDictionary, Conversion]:
    """Parse and convert in one step; parse errors surface as warnings."""
    parsed = parse_dictionary(text)
    merged = Conversion([], [], [], [f"line {e.line}: {e.reason}" for e in parsed.errors])
    for entry in parsed.entries:
        for into, part in zip(merged, convert_entry(entry, source, phrase_table)):
            into.extend(part)
    return parsed, merged
