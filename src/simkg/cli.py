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
import gc
import io
import sys
from functools import cache
from pathlib import Path
from typing import Optional

from .graph import Graph, UnknownEntityError
from .model import Conversion, CycleError, EmptyLabelError, Iri, ParseError, RcRelation, Role, SimulationKind, make_entity
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
from .validate import check_axioms, kind_conflict_violations

# json and the analysis, dbpedia, dictionary, query and wordnet modules are
# imported by the commands that use them, so that validate and export never
# load them.

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
    """An input that cannot be read: a malformed file, which the message
    names, or a failing endpoint."""


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


def _utf8(value: str, what: str) -> str:
    """``value``, a label from argv, where bytes that are not UTF-8 arrive as lone surrogates."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise _UsageError(f"{what} must be valid UTF-8, got {value!r}") from None
    return value


def _source(label: str):
    try:
        return make_entity(_utf8(label, "source label"))
    except EmptyLabelError as err:
        raise _UsageError(f"source label: {err}") from None


def _read(reader, path, syntax_error: type[Exception] = TurtleSyntaxError):
    """``reader(path)``, with the file named in a syntax or encoding error;
    ``syntax_error`` is the one ``reader`` raises."""
    try:
        return reader(path)
    except (syntax_error, UnicodeDecodeError) as err:
        raise _InputError(f"{path}: {err}") from None


def _read_text(path) -> str:
    return Path(path).read_text(encoding="utf-8-sig")


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
    p.add_argument("--colors", nargs="+")  # default: the lexicon, read when the command runs
    p.add_argument("--svg", metavar="FILE", help="also write a stacked-bar SVG")
    p.set_defaults(func=_cmd_casestudy)

    p = sub.add_parser("eval", parents=[out, report], help="score a converted graph against gold annotations")
    p.add_argument("--gold", required=True, metavar="TSV")
    p.add_argument("--converted", required=True, metavar="TTL")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused: graph work
    makes no reference cycles, so its collections would only walk the
    growing graph again and again and find nothing.  The caller gets its
    own collector state back however the command ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Optional[list[str]]) -> int:
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
    except (_UsageError, UnknownEntityError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except GraphViolationsError as err:
        print(f"error: graph has {len(err.violations)} axiom violations; pass --force to export anyway", file=sys.stderr)
        return EXIT_VIOLATIONS
    except _InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except OSError as err:  # named by the path as given, without the errno
        print(f"error: {err.filename}: {err.strerror}" if err.filename else f"error: {err}", file=sys.stderr)
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


def _csv(header: list[str], rows: list[list]) -> str:
    """The header, then the rows, as CSV lines that end in a bare newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_table(args, header: list[str], rows: list[list[str]]) -> None:
    _write_output(args, _csv(header, rows) if args.format == "csv" else _text_table([header, *rows]))


# -- ingest commands ---------------------------------------------------------


def _insert_all(g: Graph, conv: Conversion, where: str) -> int:
    """Print the converter's warnings, each after ``where``, then insert
    its simulations and its variant links; returns how many links were
    stored, as a link that closes a cycle is refused with a warning."""
    for warning in conv.warnings:
        print(f"{where}: {warning}", file=sys.stderr)
    stored = 0
    before = set(kind_conflict_violations(g))
    for sim in conv.simulations:
        g.insert_simulation(sim)
    for v in kind_conflict_violations(g):
        if v not in before:
            print(f"warning: kind-conflict: {v.subject} {v.detail}", file=sys.stderr)
    for link in g._top_down(conv.variants):
        try:
            g.add_variant(link.base, link.variant)
        except CycleError as err:
            print(f"warning: {err}", file=sys.stderr)
            continue
        stored += 1
        for end in (link.base, link.variant):  # simulacra, even with no simulation of their own
            g.state_role(end.id, Role.SIMULACRUM)
    return stored


def _save_graph_output(g: Graph, args) -> None:
    if args.out:
        save_graph(g, args.out, force=True)


def _load_phrase_table(path: Optional[str]):
    if not path:
        return None
    import json

    from .dictionary import PHRASE_TABLE

    table = dict(PHRASE_TABLE)
    try:
        raw = json.loads(_read_text(path))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise _UsageError(f"phrase table: {path}: {err}") from None
    if not isinstance(raw, dict):
        raise _UsageError(f"phrase table: expected a JSON object, got {type(raw).__name__}")
    for phrase, names in raw.items():
        if not (isinstance(names, list) and len(names) == 2 and all(isinstance(n, str) for n in names)):
            raise _UsageError(f"phrase table: expected a [kind, relation] pair for {phrase!r}, got {names!r}")
        try:
            kind = SimulationKind[names[0].upper()]
            rel = RcRelation[names[1].upper()]
        except KeyError as err:
            raise _UsageError(f"phrase table: unknown name {err} for {phrase!r}") from None
        table[phrase.lower()] = (kind, rel)
    return table


def _cmd_ingest_dict(args) -> int:
    from .dictionary import convert_document

    sources = [_source(args.source_label or Path(name).stem) for name in args.files]
    table = _load_phrase_table(args.phrase_table)
    g = _load(args)
    for name, source in zip(args.files, sources):
        parsed, conv = convert_document(_read(_read_text, name), source, table)
        links = _insert_all(g, conv, name)
        print(
            f"{name}: {len(parsed.entries)} entries -> {len(conv.simulations)} simulations, {links} variant links",
            file=sys.stderr,
        )
    _save_graph_output(g, args)
    return EXIT_OK


def _cmd_ingest_dbpedia(args) -> int:
    if args.page_size < 1:
        raise _UsageError(f"--page-size must be at least 1, got {args.page_size}")
    from . import dbpedia

    if args.endpoint is not None:
        try:
            dbpedia.check_endpoint(args.endpoint)
        except ValueError as err:
            raise _UsageError(f"--{err}") from None
    source = _source(args.source_label)
    g = _load(args)
    if args.endpoint is None:
        triples = _read(dbpedia.read_triples_file, args.triples, dbpedia.MalformedResponseError)
    else:
        try:
            triples = dbpedia.fetch_symbol_data(args.endpoint, page_size=args.page_size)
        except (dbpedia.MalformedResponseError, dbpedia.NetworkError) as err:
            raise _InputError(str(err)) from None
    excluded = set(dbpedia.DEFAULT_EXCLUDED_TYPES) | set(args.exclude_type)
    conv = dbpedia.convert_dbpedia(triples, source, excluded_types=excluded)
    _insert_all(g, conv, "warning")
    print(f"{len(triples)} triples -> {len(conv.simulations)} simulations", file=sys.stderr)
    _save_graph_output(g, args)
    return EXIT_OK


def _cmd_ingest_wordnet(args) -> int:
    from .wordnet import convert_synsets, read_synset_file

    source = _source(args.source_label)
    g = _load(args)
    for name in args.files:
        records = _read(read_synset_file, name, ParseError)
        conv = convert_synsets(records, source)
        _insert_all(g, conv, name)
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
    rows = [[v.axiom.value, str(v.subject), v.detail] for v in check_axioms(g)]
    if args.format == "csv":
        _emit_table(args, ["axiom", "subject", "detail"], rows)
    else:
        summary = f"{len(rows)} violations" if len(rows) != 1 else "1 violation"
        _write_output(args, "".join("\t".join(row) + "\n" for row in rows) + summary + "\n")
    return EXIT_VIOLATIONS if rows else EXIT_OK


def _cmd_query(args) -> int:
    from .query import RESULT_VARIABLES, CqId, MissingBindingError, run_cq

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
        if name in bindings:
            raise _UsageError(f"--bind names {name!r} more than once")
        bindings[name] = expand_iri(value)
    g = _load(args)
    try:
        rows = run_cq(g, cq, bindings)
    except MissingBindingError as err:
        raise _UsageError(str(err)) from None
    compact = cache(compact_iri)  # result IRIs repeat across rows
    table = [[compact(v) for v in row] for row in rows]
    if args.format == "csv":
        _emit_table(args, list(RESULT_VARIABLES[cq]), table)
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
    from .analysis import DEFAULT_COLOR_LEXICON, color_distribution, distribution_svg, palette_word

    colors = [_utf8(color, "--colors") for color in args.colors] if args.colors else DEFAULT_COLOR_LEXICON
    if "" in colors or len(set(colors)) < len(colors):
        raise _UsageError(f"--colors must name distinct, non-empty colours, got {' '.join(map(repr, colors))}")
    for color in colors:
        if (word := palette_word(color)) != color:
            advice = f"write {word!r}" if word else "name one word per colour"
            raise _UsageError(f"--colors {color!r} matches no label word; {advice}")
    target = expand_iri(args.target)
    g = _load(args)
    dist = color_distribution(g, target, colors=colors)
    rows = [[row.meaning.label, *(row.count(c) for c in dist.colors)] for row in dist.rows]
    _write_output(args, _csv(["meaning", *dist.colors], rows))
    if args.svg:
        write_atomic(args.svg, distribution_svg(dist))
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .analysis import GoldFormatError, eval_conversion, parse_gold

    gold = _read(lambda path: parse_gold(_read_text(path)), args.gold, GoldFormatError)
    predicted = _read(load_graph, args.converted)
    report = eval_conversion(gold, predicted)
    header = ["element", "tp", "fp", "fn", "precision", "recall", "f1"]
    rows = [
        [m.category, str(m.tp), str(m.fp), str(m.fn), f"{m.precision:.2f}", f"{m.recall:.2f}", f"{m.f1:.2f}"]
        for m in (*report.rows, report.average)
    ]
    _emit_table(args, header, rows)
    return EXIT_OK
