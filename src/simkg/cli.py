"""Command-line surface.

One command per invocation; graph state travels between invocations as
Turtle files (``--graph`` loads before the command, ``--out`` receives the
command's primary output).  Diagnostics go to stderr, data to stdout.
Exit codes: 0 success, 1 usage error, 2 validation violations found,
3 I/O or network failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
from pathlib import Path
from typing import Optional

from .analysis import (
    DEFAULT_COLOR_LEXICON,
    GoldFormatError,
    color_distribution,
    distribution_csv,
    distribution_svg,
    eval_conversion,
    parse_gold,
)
from .dbpedia import (
    DEFAULT_EXCLUDED_TYPES,
    MalformedResponseError,
    NetworkError,
    convert_dbpedia,
    fetch_symbol_data,
    read_triples_file,
)
from .dictionary import PHRASE_TABLE, ParseError, convert_document
from .graph import Graph, UnknownEntityError
from .model import CycleError, Iri, RcRelation, Role, SimulationKind, make_entity
from .query import CqId, MissingBindingError, run_cq
from .serialize import (
    PREFIXES,
    GraphViolationsError,
    TurtleSyntaxError,
    compact_iri,
    export_turtle,
    load_graph,
    save_graph,
    write_atomic,
)
from .validate import check_axioms, kind_conflict_violations, report_text
from .wordnet import convert_synsets, read_synset_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2
EXIT_IO = 3

DICT_GRAMMAR_HELP = """\
dictionary format:
  lemma                      entry starts at column 0
    meaning; other meaning   indented clause, terms split on ';'
    [Context] meaning        bracketed context list applies to the clause
    related to: meaning      relation phrase before ':' picks the kind
    ~ variant label:         variant block; deeper clauses belong to it
      meaning
"""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _InputError(Exception):
    """A malformed input file; the message names the file."""


def expand_iri(value: str) -> Iri:
    """Accept kb:/sim:/... prefixed names anywhere an IRI is expected."""
    for name, ns in PREFIXES:
        if value.startswith(name + ":"):
            value = ns + value[len(name) + 1:]
            break
    try:
        return Iri(value)
    except ValueError as err:
        raise _UsageError(str(err)) from None


def _read(reader, path):
    """``reader(path)``, with the file named in any syntax error."""
    try:
        return reader(path)
    except (TurtleSyntaxError, ParseError, MalformedResponseError) as err:
        raise _InputError(f"{path}: {err}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="simkg", description="Cultural-symbolism knowledge graph toolkit")
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", metavar="FILE", help="load this Turtle graph before running")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="FILE", help="write the command's output here")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("text", "csv"), default="text", help="report format")
    common = [graph, out]

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "ingest-dict",
        parents=common,
        help="convert plain-text dictionary files",
        epilog=DICT_GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--source-label", help="source entity label (default: the file stem)")
    p.add_argument("--phrase-table", metavar="JSON", help="overlay for the relation-phrase table")
    p.set_defaults(func=_cmd_ingest_dict)

    p = sub.add_parser("ingest-dbpedia", parents=common, help="convert symbol triples from DBpedia")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--endpoint", metavar="URL", help="live SPARQL endpoint")
    group.add_argument("--triples", metavar="FILE", help="offline triple file")
    p.add_argument("--page-size", type=int, default=10000)
    p.add_argument("--source-label", default="DBpedia")
    p.add_argument(
        "--exclude-type",
        action="append",
        default=[],
        metavar="TYPE",
        help="additional subject types to drop (extends the built-in list)",
    )
    p.set_defaults(func=_cmd_ingest_dbpedia)

    p = sub.add_parser("ingest-wordnet", parents=common, help="convert synset records (TSV)")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--source-label", default="Wordnet")
    p.set_defaults(func=_cmd_ingest_wordnet)

    p = sub.add_parser("validate", parents=[*common, report], help="run the closed-world axiom checks")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("query", parents=[*common, report], help="run a competency question")
    p.add_argument("--cq", required=True, metavar="ID", help="e.g. Q2.2")
    p.add_argument("--bind", action="append", default=[], metavar="NAME=IRI")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("stats", parents=[*common, report], help="per-source corpus statistics")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("export", parents=common, help="serialize the graph as Turtle")
    p.add_argument("--force", action="store_true", help="serialize even when axiom checks fail")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("casestudy", parents=common, help="colour distribution across shared meanings")
    p.add_argument("--target", required=True, metavar="IRI")
    p.add_argument("--colors", nargs="+", default=list(DEFAULT_COLOR_LEXICON))
    p.add_argument("--svg", metavar="FILE", help="also write a stacked-bar SVG")
    p.set_defaults(func=_cmd_casestudy)

    p = sub.add_parser("eval", parents=[out, report], help="score a converted graph against gold annotations")
    p.add_argument("--gold", required=True, metavar="TSV")
    p.add_argument("--converted", required=True, metavar="TTL")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends, when called in-process
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (MissingBindingError, UnknownEntityError, GoldFormatError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphViolationsError, CycleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VIOLATIONS
    except (_InputError, MalformedResponseError, NetworkError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


def _load(args) -> Graph:
    if args.graph:
        return _read(load_graph, args.graph)
    return Graph()


def _write_output(args, text: str) -> None:
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _text_table(rows: list[list[str]]) -> str:
    """Left-aligned columns, two spaces apart, one line per row."""
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n" for row in rows)


def _emit_table(args, header: list[str], rows: list[list[str]]) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _write_output(args, buf.getvalue())
        return
    _write_output(args, _text_table([header, *rows]))


# -- ingest commands ---------------------------------------------------------


def _insert_all(g: Graph, simulations, variants=()) -> None:
    before = set(kind_conflict_violations(g))
    for sim in simulations:
        g.insert_simulation(sim)
    for v in kind_conflict_violations(g):
        if v not in before:
            print(f"warning: kind-conflict: {v.subject} {v.detail}", file=sys.stderr)
    for link in variants:
        try:
            g.add_variant(link.base, link.variant)
        except CycleError as err:
            print(f"warning: {err}", file=sys.stderr)


def _save_graph_output(g: Graph, args) -> None:
    if args.out:
        save_graph(g, args.out, force=True)


def _load_phrase_table(path: Optional[str]):
    if not path:
        return None
    table = dict(PHRASE_TABLE)
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    for phrase, (kind_name, rel_name) in raw.items():
        try:
            kind = SimulationKind[kind_name.upper()]
            rel = RcRelation[rel_name.upper()]
        except KeyError as err:
            raise _UsageError(f"phrase table: unknown name {err} for {phrase!r}") from None
        table[phrase.lower()] = (kind, rel)
    return table


def _cmd_ingest_dict(args) -> int:
    g = _load(args)
    table = _load_phrase_table(args.phrase_table)
    for name in args.files:
        path = Path(name)
        source = make_entity(args.source_label or path.stem, Role.SOURCE)
        parsed, conv = convert_document(path.read_text(encoding="utf-8"), source, table)
        for warning in conv.warnings:
            print(f"{name}: {warning}", file=sys.stderr)
        _insert_all(g, conv.simulations, conv.variants)
        print(
            f"{name}: {len(parsed.entries)} entries -> {len(conv.simulations)} simulations, "
            f"{len(conv.variants)} variant links",
            file=sys.stderr,
        )
    _save_graph_output(g, args)
    return EXIT_OK


def _cmd_ingest_dbpedia(args) -> int:
    g = _load(args)
    if args.triples:
        triples = _read(read_triples_file, args.triples)
    else:
        triples = fetch_symbol_data(args.endpoint, page_size=args.page_size)
    excluded = set(DEFAULT_EXCLUDED_TYPES) | set(args.exclude_type)
    source = make_entity(args.source_label, Role.SOURCE)
    conv = convert_dbpedia(triples, source, excluded_types=excluded)
    for warning in conv.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _insert_all(g, conv.simulations)
    print(f"{len(triples)} triples -> {len(conv.simulations)} simulations", file=sys.stderr)
    _save_graph_output(g, args)
    return EXIT_OK


def _cmd_ingest_wordnet(args) -> int:
    g = _load(args)
    source = make_entity(args.source_label, Role.SOURCE)
    for name in args.files:
        records = _read(read_synset_file, name)
        conv = convert_synsets(records, source)
        for warning in conv.warnings:
            print(f"{name}: {warning}", file=sys.stderr)
        _insert_all(g, conv.simulations)
        print(
            f"{name}: {len(records)} records -> {len(conv.simulations)} simulations "
            f"({len(conv.skipped)} skipped)",
            file=sys.stderr,
        )
    _save_graph_output(g, args)
    return EXIT_OK


# -- read-side commands --------------------------------------------------------


def _cmd_validate(args) -> int:
    g = _load(args)
    violations = check_axioms(g)
    if args.format == "csv":
        rows = [[v.axiom.value, str(v.subject), v.detail] for v in violations]
        _emit_table(args, ["axiom", "subject", "detail"], rows)
    else:
        _write_output(args, report_text(violations) + "\n")
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _cmd_query(args) -> int:
    g = _load(args)
    try:
        cq = CqId(args.cq)
    except ValueError:
        raise _UsageError(f"unknown competency question {args.cq!r}; expected one of "
                          + ", ".join(c.value for c in CqId)) from None
    bindings = {}
    for item in args.bind:
        name, sep, value = item.partition("=")
        if not sep or not name or not value:
            raise _UsageError(f"--bind expects NAME=IRI, got {item!r}")
        bindings[name] = expand_iri(value)
    rows = run_cq(g, cq, bindings)
    table = [[compact_iri(v) for v in row.values()] for row in rows]
    if args.format == "csv":
        _emit_table(args, list(rows[0].variables) if rows else [], table)
    else:
        _write_output(args, _text_table(table))
    return EXIT_OK


def _cmd_stats(args) -> int:
    g = _load(args)
    stats = g.stats()
    header = ["source", "simulacra", "reality_counterparts", "contexts", "simulations", "triples"]
    rows = [
        [r.label, str(r.n_simulacra), str(r.n_rcs), str(r.n_contexts), str(r.n_simulations), str(r.n_triples)]
        for r in (*stats.rows, stats.total)
    ]
    _emit_table(args, header, rows)
    return EXIT_OK


def _cmd_export(args) -> int:
    g = _load(args)
    _write_output(args, export_turtle(g, force=args.force))
    return EXIT_OK


def _cmd_casestudy(args) -> int:
    g = _load(args)
    dist = color_distribution(g, expand_iri(args.target), colors=args.colors)
    _write_output(args, distribution_csv(dist))
    if args.svg:
        write_atomic(args.svg, distribution_svg(dist))
    return EXIT_OK


def _cmd_eval(args) -> int:
    gold = parse_gold(Path(args.gold).read_text(encoding="utf-8"))
    predicted = _read(load_graph, args.converted)
    report = eval_conversion(gold, predicted)
    header = ["element", "tp", "fp", "fn", "precision", "recall", "f1"]
    rows = [
        [m.category, str(m.tp), str(m.fp), str(m.fn), f"{m.precision:.2f}", f"{m.recall:.2f}", f"{m.f1:.2f}"]
        for m in (*report.rows, report.average)
    ]
    _emit_table(args, header, rows)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
