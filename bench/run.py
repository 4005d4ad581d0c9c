"""simkg benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload cli-read --seed 1 --seconds 30 --trace 0

Generates seeded source files shaped like the paper's corpus (see
``corpus.py``), converts them once through the library into
``corpus.ttl`` (untimed), runs one workload, checks every output against
the oracle and prints a report.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  See ``bench/README.md`` for how to read
the output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
sys.path[:0] = [str(HERE), str(SRC)]

import calibrate  # noqa: E402
import corpus  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracing import LAYERS, reduce_rows  # noqa: E402

WORKLOADS = ("cli-read", "cli-ingest", "lib-session")
STARTUP_ROUNDS = 9
MIN_ROUNDS = 3

END_TO_END = {"setup_s": "s", "peak_rss_mib": "MiB", "op_geomean_ms": "ms"}
CQ_IDS = ("Q1.1", "Q1.2", "Q1.3", "Q1.4", "Q1.5", "Q2.1", "Q2.2", "Q2.3", "Q2.4",
          "Q3.1", "Q3.2", "Q3.3", "Q3.4", "Q3.5")
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.process_overhead_s": "s",
    "cli.main_s": "s",
    "serialize.load_graph_s": "s",
    "serialize.save_graph_s": "s",
    "serialize.import_turtle_s": "s",
    "serialize.load_bytes": "bytes",
    "serialize.load_triples": "count",
    "serialize.export_turtle_s": "s",
    "serialize.export_bytes": "bytes",
    "validate.check_axioms_s": "s",
    "validate.violations": "count",
    "graph.insert_simulation_s": "s",
    "graph.add_variant_s": "s",
    "graph.stats_s": "s",
    "graph.simulations": "count",
    "graph.entities": "count",
    "graph.variant_edges": "count",
    "model.build_simulation_s": "s",
    **{f"query.run_cq_s.{cq}": "s" for cq in CQ_IDS},
    **{f"query.rows.{cq}": "count" for cq in CQ_IDS},
    "query.symbolic_meanings_s": "s",
    "dictionary.convert_document_s": "s",
    "dictionary.parse_dictionary_s": "s",
    "dictionary.convert_entry_s": "s",
    "dictionary.entries": "count",
    "dictionary.simulations": "count",
    "dictionary.warnings": "count",
    "dbpedia.read_triples_file_s": "s",
    "dbpedia.convert_dbpedia_s": "s",
    "dbpedia.useful_ratio": "ratio",
    "wordnet.read_synset_file_s": "s",
    "wordnet.convert_synsets_s": "s",
    "wordnet.selected_ratio": "ratio",
    "analysis.color_distribution_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "runtime.gc_pause_s": "s",
    "runtime.gc_gen2_collections": "count",
    "trace.overhead_ratio": "ratio",
}


class Run:
    """State of one benchmark run: the work directory, checks and samples."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kib = 0
        self.walls: dict[str, list[float]] = {}
        self.normed: dict[str, list[float]] = {}  # walls at the reference host speed
        self.norm: calibrate.Normaliser | None = None
        self.report: dict[str, object] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def child(self, argv: list[str], name: str | None = None, rss: bool = True):
        """Run one child process; returns (exit code, stdout, stderr).

        Wall time covers start to reap; peak RSS comes from this child's
        own rusage (``wait4``), not the running maximum over all children.
        A named child's wall time is also kept normalised, once
        ``self.norm`` is set.
        """
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if rss:
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if name:
            self.walls.setdefault(name, []).append(wall)
            if self.norm is not None:
                self.normed.setdefault(name, []).append(wall * self.norm.factor())
        return code, out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8")

    def simkg(self, args: list[str], name: str | None = None):
        return self.child([sys.executable, "-m", "simkg", *args], name)


def build_corpus(run: Run):
    """Write the source files and the merged ``corpus.ttl`` (untimed)."""
    from simkg import Graph, Role, make_entity, save_graph
    from simkg.dbpedia import convert_dbpedia, read_triples_file
    from simkg.dictionary import convert_document
    from simkg.serialize import graph_triples
    from simkg.wordnet import convert_synsets, read_synset_file

    c = corpus.generate(run.seed)
    for name, text in (("corpus.dict", c.dict_text), ("corpus.nt", c.nt_text),
                       ("corpus.tsv", c.tsv_text), ("probe.dict", corpus.PROBE_DICT)):
        (run.work / name).write_text(text, encoding="utf-8")
    g = Graph()
    _, conv = convert_document(c.dict_text, make_entity(corpus.DICT_SOURCE, Role.SOURCE))
    sims = list(conv.simulations)
    sims += convert_dbpedia(read_triples_file(run.work / "corpus.nt"), make_entity(corpus.DBPEDIA_SOURCE, Role.SOURCE)).simulations
    sims += convert_synsets(read_synset_file(run.work / "corpus.tsv"), make_entity(corpus.WORDNET_SOURCE, Role.SOURCE)).simulations
    for sim in sims:
        g.insert_simulation(sim)
    for link in conv.variants:
        g.add_variant(link.base, link.variant)
    save_graph(g, run.work / "corpus.ttl")  # refuses a graph with violations
    counts = {"simulations": len(g.simulations), "triples": len(graph_triples(g)), "entities": len(g.entities),
              "variant_edges": len(g.variant_edges), "chain_depth": c.chain_depth,
              "ttl_bytes": (run.work / "corpus.ttl").stat().st_size, **vars(c.counts)}
    run.check(counts["simulations"] == len(c.model.sims) and counts["triples"] == c.model.n_triples(),
              "corpus.ttl matches the generator's model")
    return c, counts


def startup(run: Run) -> None:
    code, out, _ = run.simkg(["--help"], "startup")
    run.check(code == 0 and "usage: simkg" in out, "simkg --help")


# -- CLI workloads -------------------------------------------------------------


def cli_read_round(run: Run, oracle: Oracle, rng: random.Random, pool) -> None:
    simulacrum = pool.pick(rng)
    code, out, _ = run.simkg(["query", "--graph", "corpus.ttl", "--cq", "Q1.1",
                              "--bind", f"simulacrum={oracle.compact(simulacrum)}"], "cli_query_s")
    want = [" ".join(oracle.compact(v) for v in row) for row in oracle.cq("Q1.1", simulacrum)]
    run.check(code == 0 and out.splitlines() == want, f"query Q1.1 {simulacrum}")

    code, out, _ = run.simkg(["validate", "--graph", "corpus.ttl"], "cli_validate_s")
    run.check(code == 0 and out == "0 violations\n", "validate")

    out_path = run.work / "export.ttl"
    out_path.unlink(missing_ok=True)
    code, _, _ = run.simkg(["export", "--graph", "corpus.ttl", "--out", out_path.name], "cli_export_s")
    run.check(code == 0 and out_path.read_bytes() == (run.work / "corpus.ttl").read_bytes(), "export")


def ingest_commands(c: corpus.Corpus) -> dict[str, tuple[list[str], str]]:
    n = c.counts
    return {
        "cli_ingest_dict_s": (["ingest-dict", "corpus.dict", "--out", "dict.ttl"],
                              f"corpus.dict: {n.dict_entries} entries -> {n.dict_sims} simulations, "
                              f"{n.dict_variants} variant links"),
        "cli_ingest_dbpedia_s": (["ingest-dbpedia", "--triples", "corpus.nt", "--out", "dbpedia.ttl"],
                                 f"{n.dbpedia_triples} triples -> {n.dbpedia_sims} simulations"),
        "cli_ingest_wordnet_s": (["ingest-wordnet", "corpus.tsv", "--out", "wordnet.ttl"],
                                 f"corpus.tsv: {n.wordnet_records} records -> {n.wordnet_sims} simulations "
                                 f"({n.wordnet_skipped} skipped)"),
    }


def cli_ingest_round(run: Run, commands) -> None:
    for name, (args, summary) in commands.items():
        out_path = run.work / args[-1]
        out_path.unlink(missing_ok=True)
        code, _, err = run.simkg(args, name)
        lines = err.splitlines()
        run.check(code == 0 and lines[-1:] == [summary] and out_path.stat().st_size > 0, f"{args[0]} summary")


def probe(run: Run) -> dict:
    """The kind-conflict probe (ROADMAP 4b): expected exit 0, today 2."""
    code, _, err = run.simkg(["ingest-dict", "probe.dict", "--out", "probe.ttl"])
    return {"name": "kind-conflict probe (hook / attraction / related to: attraction)",
            "exit": code, "expected": 0, "ok": code == 0, "stderr": err.strip()[-200:]}


def cli_rounds(run: Run, one_round, seconds: float) -> None:
    """At least MIN_ROUNDS rounds; no round starts that would end past
    ``seconds`` by the last round's length.  Each round ends with one
    ``--help`` child, so the start-up samples span the whole run, not
    only the host's state at its start."""
    begin, rounds, last = time.perf_counter(), 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - begin + last <= seconds:
        start = time.perf_counter()
        one_round()
        startup(run)
        last = time.perf_counter() - start
        rounds += 1


def replay(run: Run, commands: dict[str, list[str]], seconds: float) -> dict:
    """Replay each CLI command in process with spans on, one fresh child
    per replay (``replay.py``), in rounds for ``seconds`` (at least one);
    returns the per-layer metrics."""
    out_path = run.work / "replay.json"
    replays: dict[str, list[float]] = {name: [] for name in commands}
    rows, spans = [], []
    begin = time.perf_counter()
    while not rows or time.perf_counter() - begin < seconds:
        for name, args in commands.items():
            code, _, err = run.child([sys.executable, str(HERE / "replay.py"), "--name", name,
                                      "--out", out_path.name, "--", *args], rss=False)
            if not run.check(code == 0, f"replay child {name}"):
                raise SystemExit(f"replay child failed with exit {code}:\n{err}")
            res = json.loads(out_path.read_text(encoding="utf-8"))
            run.check(res["code"] == 0, f"replay {name}")
            replays[name].append(res["replay_s"])
            rows += res["rows"]
            spans.append(res["spans"])
    layers = reduce_rows(rows)
    startup_s = statistics.median(run.walls["startup"])
    overheads, detail = [], {}
    for name in commands:
        wall, again = statistics.median(run.walls[name]), statistics.median(replays[name])
        overheads.append(wall - again)
        detail[name] = {"wall_s": wall, "replay_s": again, "startup_s": startup_s,
                        "residual_s": wall - again - startup_s}
    layers["cli.startup_s"] = startup_s
    layers["cli.process_overhead_s"] = statistics.median(overheads)
    run.report["replay"] = detail
    write_spans(run, {"replays": spans})
    return layers


def cli_workload(run: Run, c: corpus.Corpus, trace: bool) -> dict:
    oracle = Oracle(c.model)
    rng = random.Random(run.seed * 7919 + 29)
    if run.workload == "cli-read":
        pool = corpus.Zipf(oracle.ranked("simulacrum"), 1.0)
        ops = ("cli_query_s", "cli_validate_s", "cli_export_s")
        one_round = lambda: cli_read_round(run, oracle, rng, pool)  # noqa: E731
        replay_args = {
            "cli_query_s": ["query", "--graph", "corpus.ttl", "--cq", "Q1.1",
                            "--bind", f"simulacrum={oracle.compact(pool.items[0])}"],
            "cli_validate_s": ["validate", "--graph", "corpus.ttl"],
            "cli_export_s": ["export", "--graph", "corpus.ttl", "--out", "replay.ttl"],
        }
    else:
        commands = ingest_commands(c)
        ops = tuple(commands)
        one_round = lambda: cli_ingest_round(run, commands)  # noqa: E731
        replay_args = {name: args for name, (args, _) in commands.items()}
        run.report["probe"] = probe(run)

    run.norm = calibrate.Normaliser()
    for _ in range(STARTUP_ROUNDS):
        startup(run)
    cli_rounds(run, one_round, run.seconds / 2 if trace else run.seconds)
    run.report["metrics"] = {op: {"value": statistics.median(run.normed[op]), "unit": "s",
                                  "samples": len(run.normed[op])} for op in ops}
    layers = replay(run, replay_args, run.seconds / 2) if trace else {}
    return {
        "setup_s": statistics.median(run.normed["startup"]),
        "peak_rss_mib": run.peak_rss_kib / 1024,
        # Every command time of the run, not a median or best of each
        # command: a run has only four to ten rounds.
        "op_geomean_ms": 1000 * statistics.geometric_mean([w for op in ops for w in run.normed[op]]),
        "host_factor": statistics.median(
            n / w for op in ("startup", *ops) for n, w in zip(run.normed[op], run.walls[op])),
        "layers": layers,
    }


# -- library session -----------------------------------------------------------


def lib_session(run: Run, trace: bool) -> dict:
    out_path = run.work / "session.json"
    code, _, err = run.child([sys.executable, str(HERE / "session.py"), "--corpus", "corpus.ttl",
                              "--seed", str(run.seed), "--seconds", str(run.seconds),
                              "--trace", str(int(trace)), "--out", out_path.name], rss=False)
    if not run.check(code == 0 and out_path.exists(), "session child"):
        raise SystemExit(f"session child failed with exit {code}:\n{err}")
    res = json.loads(out_path.read_text(encoding="utf-8"))
    run.attempted += res["attempted"]
    run.failures += [f"session: {f}" for f in res["failures"]]
    n = res["samples"]
    run.report["metrics"] = {
        "point_p50_us": {"value": res["point_p50_us"], "unit": "us", "samples": n["point"]},
        "point_p99_us": {"value": res["point_p99_us"], "unit": "us", "samples": n["point"],
                         "percentile": res["point_tail"]},
        "write_p50_us": {"value": res["write_p50_us"], "unit": "us", "samples": n["write"]},
        "scan_pass_s": {"value": res["scan_pass_s"], "unit": "s", "samples": n["scan"]},
    }
    if trace:
        write_spans(run, res.pop("spans"))
    return {
        "setup_s": res["setup_s"],
        "peak_rss_mib": res["peak_rss_mib"],
        "op_geomean_ms": res["op_geomean_ms"],
        "host_factor": res["host_factor"],
        "layers": res.get("layers", {}),
    }


# -- reporting -----------------------------------------------------------------


def write_spans(run: Run, spans: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{run.workload}-{run.seed}.json"
    path.write_text(json.dumps(spans), encoding="utf-8")
    run.report["spans_file"] = str(path.relative_to(ROOT))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def print_report(run: Run, result: dict, counts: dict, trace: bool) -> None:
    meta = {"python": platform.python_version(), "git_sha": git_sha(), "nproc": os.cpu_count(),
            "workload": run.workload, "seed": run.seed, "scale": corpus.SCALE, "seconds": run.seconds,
            "trace": int(trace)}
    print("run   " + "  ".join(f"{k}={v}" for k, v in meta.items()))
    print("corpus " + "  ".join(f"{k}={v}" for k, v in counts.items()))
    probe_result = run.report.get("probe")
    failed = len(run.failures) + (probe_result is not None and not probe_result["ok"])
    attempted = run.attempted + (probe_result is not None)
    print("end-to-end metrics (medians unless named otherwise)")
    rows = [("setup_s", result["setup_s"], "s", ""), ("error_rate", failed / attempted, "ratio",
            f"{failed} of {attempted} operations"), ("peak_rss_mib", result["peak_rss_mib"], "MiB", "")]
    for name, m in run.report["metrics"].items():
        note = f"n={m['samples']}" + (f" {m['percentile']}" if "percentile" in m else "")
        rows.append((name, m["value"], m["unit"], note))
    what = ("each operation type's geometric mean (11 read kinds, writes, scan passes)"
            if run.workload == "lib-session" else "every command time")
    rows.append(("op_geomean_ms", result["op_geomean_ms"], "ms", f"geometric mean of {what}"))
    for name, value, unit, note in rows:
        print(f"  {name:<22} {value:>14.6g} {unit:<6} {note}")
    print(f"host factor {result['host_factor']:.4f}: the timings above are normalised to the reference speed of "
          f"calibrate.py (a raw time is the figure divided by it); the replay and per-layer times below are raw")
    if probe_result is not None:
        state = "passes" if probe_result["ok"] else "FAILS (known defect, ROADMAP 4b)"
        print(f"probe {probe_result['name']}: exit {probe_result['exit']}, expected 0 -> {state}")
    for what in run.failures[:10]:
        print(f"check failed: {what}")
    for name, d in run.report.get("replay", {}).items():
        print(f"replay {name:<22} wall {d['wall_s']:.4f}s = startup {d['startup_s']:.4f}s + in-process "
              f"{d['replay_s']:.4f}s + residual {d['residual_s']:+.4f}s")
    if trace:
        print("per-layer metrics (traced run; 0 = the workload does not call it)")
        for name, value in result["layers"].items():
            print(f"  {name:<34} {value:>14.6g} {PER_LAYER.get(name, '')}")
    if "spans_file" in run.report:
        print(f"spans written to {run.report['spans_file']}")
    OUT_DIR.mkdir(exist_ok=True)
    report = {"meta": meta, "corpus": counts, "e2e": {n: [v, u, note] for n, v, u, note in rows},
              "probe": probe_result, "failures": run.failures, "replay": run.report.get("replay"),
              "samples": run.walls, "normalised_samples": run.normed,
              "layers": result["layers"]}
    (OUT_DIR / f"report-{run.workload}-{run.seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "simkg" / "__init__.py").is_file():
        print(f"error: no simkg sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    calibrate.pin()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, work)
    try:
        c, counts = build_corpus(run)
        trace = bool(args.trace)
        if args.workload == "lib-session":
            result = lib_session(run, trace)
        else:
            result = cli_workload(run, c, trace)
        print_report(run, result, counts, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    if trace:
        metrics = {name: {"value": result["layers"].get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
