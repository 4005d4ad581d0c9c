"""The lib-session workload, run in a fresh child of the benchmark.

Loads ``corpus.ttl`` three times (set-up), then runs a closed loop with
one client for the given seconds, then loads it three times more.  About 95% of operations are point reads:
the bound competency questions, the symbolic-meaning path query and the
colour distribution, with bindings drawn Zipf-skewed over entities of the
matching role.  About 5% are writes, from a fixed set of new simulations
over existing entities: the first write of each creates it, and later
writes merge it again.  Twelve scan passes (Q1.5, Q2.2, Q2.4, Q3.3, Q3.5,
``Graph.stats``, ``check_axioms``) are spread evenly over the run.  Every
answer is checked against the oracle after its timer stops.  With
``--trace 1``, every other operation of each type is traced, which also
gives the tracing overhead.  Every timing is normalised to the reference
host speed of ``calibrate.py``: the reference loop runs after each load
and once a second during the loop.  The result is written as JSON to
``--out``.

Peak RSS is taken right after the set-up loads, before the benchmark
builds its oracle, so it covers the interpreter, ``simkg`` and the loaded
graph, not the benchmark's own bookkeeping.

    python3 bench/session.py --corpus corpus.ttl --seed 1 \
        --seconds 30 --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from simkg import analysis, model, query, serialize, validate  # noqa: E402

import calibrate  # noqa: E402
import corpus  # noqa: E402
from oracle import BOUND_CQS, SCAN_CQS, Oracle  # noqa: E402
from tracing import Tracer, reduce_rows  # noqa: E402

# Set-up loads before and again after the timed loop, so that the set-up
# samples span the run, not only the host's state at its start.
SETUP_ROUNDS = 3
WRITE_SHARE = 0.05
SCANS_PER_RUN = 12
WINDOW_S = 1.0  # loop time between two runs of the reference loop
READS = [*BOUND_CQS, "symbolic_meanings", "color_distribution"]
WRITE_KINDS = (
    ("Generic", "hasRealityCounterpart"),
    ("Healing", "healedRealityCounterpart"),
    ("Protection", "preventedRealityCounterpart"),
)


def tail_percentile(samples: list[float]) -> tuple[str, float]:
    """p99, or the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for name, q in (("p99", 0.99), ("p90", 0.90), ("p50", 0.50)):
        if len(ordered) * (1 - q) >= 10:
            return name, ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return "max", ordered[-1]


class Samples:
    def __init__(self):
        self.reads: dict[str, list[float]] = {name: [] for name in READS}
        self.writes: list[float] = []
        self.scans: list[float] = []

    def all_reads(self) -> list[float]:
        return [t for samples in self.reads.values() for t in samples]

    def lists(self) -> list[list[float]]:
        return [*self.reads.values(), self.writes, self.scans]


class Session:
    def __init__(self, g, oracle: Oracle, rng: random.Random, norm: calibrate.Normaliser):
        self.g = g
        self.norm = norm
        self.factors: list[float] = []
        self.normalised: dict[int, int] = {}  # id of a sample list -> how many are normalised
        self.oracle = oracle
        self.rng = rng
        self.pools = {role: corpus.Zipf(oracle.ranked(role), 1.0)
                      for role in ("simulacrum", "rc", "context", "simulation")}
        self.candidates = self._write_candidates(max(50, len(oracle.model.sims) // 50))
        self.plain, self.traced = Samples(), Samples()
        self.cur = self.plain
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    # -- operations -----------------------------------------------------

    def point_read(self) -> None:
        kind = self.rng.choice(READS)
        clock = time.perf_counter
        if kind in BOUND_CQS:
            name, role = BOUND_CQS[kind]
            value = self.pools[role].pick(self.rng)
            cq, bindings = query.CqId(kind), {name: model.Iri(value)}
            start = clock()
            rows = query.run_cq(self.g, cq, bindings)
            self.cur.reads[kind].append(clock() - start)
            got, want = [r.values() for r in rows], self.oracle.cq(kind, value)
        elif kind == "symbolic_meanings":
            value = self.pools["simulacrum"].pick(self.rng)
            start = clock()
            found = query.symbolic_meanings(self.g, value, include_variants=True, repeat=True)
            self.cur.reads[kind].append(clock() - start)
            got, want = {e.id for e in found}, self.oracle.symbolic_meanings(value, True, True)
        else:
            value = self.pools["simulacrum"].pick(self.rng)
            start = clock()
            dist = analysis.color_distribution(self.g, value)
            self.cur.reads[kind].append(clock() - start)
            got = [(row.meaning.id, row.counts) for row in dist.rows]
            want = self.oracle.color_distribution(value)
        self.check(got == want, f"{kind} {value}")

    def _write_candidates(self, n: int) -> list[tuple]:
        """A fixed set of new simulations over existing entities.

        A write inserts one of them: the first write of each creates it,
        later ones merge the same content again.  So the graph grows by at
        most ``n`` simulations and read latency stays stationary instead of
        drifting with the write count.  Entities are drawn uniformly, not
        by the reads' skew; the meanings are ones that are not also
        simulacra, so no meaning chain opens; the source is one the
        simulacrum already has, so Q2.1 keeps its multi-source sets.
        """
        rng, oracle = self.rng, self.oracle
        leaves = sorted(set(oracle.by_rc) - set(oracle.by_simulacrum))
        local = lambda iri: iri[len(corpus.KB):]  # noqa: E731
        out = []
        for _ in range(n):
            simulacrum = rng.choice(self.pools["simulacrum"].items)
            m1, m2 = rng.sample(leaves, 2)
            contexts = rng.sample(self.pools["context"].items, rng.randint(1, 2))
            own = sorted({src for sid in oracle.by_simulacrum[simulacrum] for src in oracle.model.sims[sid].sources})
            sim_id = corpus.KB + "-".join((local(simulacrum), local(m1), local(m2)))
            kind, first_rel = WRITE_KINDS[zlib.crc32(sim_id.encode()) % len(WRITE_KINDS)]
            rels = [(first_rel, m1), ("hasRealityCounterpart", m2)]
            out.append((sim_id, kind, simulacrum, rels, contexts, [rng.choice(own)]))
        return out

    def write(self) -> None:
        sim_id, kind, simulacrum, rels, contexts, sources = self.rng.choice(self.candidates)
        ents = self.g.entities
        args = (
            model.SimulationKind(kind),
            ents[simulacrum],
            [(model.RcRelation(rel), ents[iri]) for rel, iri in rels],
            [ents[c] for c in contexts],
            [ents[s] for s in sources],
        )
        start = time.perf_counter()
        stored = self.g.insert_simulation(model.build_simulation(*args))
        self.cur.writes.append(time.perf_counter() - start)
        self.oracle.add(sim_id, kind, simulacrum, rels, contexts, sources)
        self.check(stored.id == sim_id, f"write {sim_id}")

    def scan_pass(self) -> None:
        start = time.perf_counter()
        rows = {cq: query.run_cq(self.g, query.CqId(cq)) for cq in SCAN_CQS}
        stats = self.g.stats()
        violations = validate.check_axioms(self.g)
        self.cur.scans.append(time.perf_counter() - start)
        for cq, result in rows.items():
            self.check([r.values() for r in result] == self.oracle.cq(cq), f"scan {cq}")
        m = self.oracle.model
        self.check((stats.total.n_simulations, stats.total.n_triples) == (len(m.sims), m.n_triples()), "scan stats")
        self.check(violations == [], "scan check_axioms")

    def normalise(self) -> None:
        """Run the reference loop and scale the samples taken since its
        previous run."""
        factor = self.norm.factor()
        self.factors.append(factor)
        for samples in (*self.plain.lists(), *self.traced.lists()):
            done = self.normalised.get(id(samples), 0)
            samples[done:] = [t * factor for t in samples[done:]]
            self.normalised[id(samples)] = len(samples)

    def run(self, seconds: float, tracer: Tracer | None = None) -> None:
        """Closed loop for ``seconds``.  With a tracer, every other
        operation of each type is traced, so traced and untraced samples
        share the same stretch of time and the host's drift cancels out of
        the tracing overhead."""
        self.norm.factor()  # the loop's first window starts here
        begin = time.perf_counter()
        next_scan = seconds / (SCANS_PER_RUN + 1)
        next_window = WINDOW_S
        counts = {"scan": 0, "write": 0, "read": 0}
        while (elapsed := time.perf_counter() - begin) < seconds:
            if elapsed >= next_window:
                self.normalise()
                next_window += WINDOW_S
                continue
            if elapsed >= next_scan:
                op, fn = "scan", self.scan_pass
                next_scan += seconds / (SCANS_PER_RUN + 1)
            elif self.rng.random() < WRITE_SHARE:
                op, fn = "write", self.write
            else:
                op, fn = "read", self.point_read
            counts[op] += 1
            if tracer is None or counts[op] % 2:
                self.cur = self.plain
                fn()
                continue
            self.cur = self.traced
            tracer.enabled = True
            tracer.begin_request(op)
            fn()
            tracer.end_request()
            tracer.enabled = False
        self.normalise()


def timed_loads(path: str, loads: list[float], norm: calibrate.Normaliser):
    """Load the graph SETUP_ROUNDS times, appending each normalised load
    time to ``loads``; returns the last graph."""
    for _ in range(SETUP_ROUNDS):
        g = None  # drop the previous graph before the next load
        start = time.perf_counter()
        g = serialize.load_graph(path)
        loads.append((time.perf_counter() - start) * norm.factor())
    return g


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    calibrate.pin()  # already inherited from run.py; kept for direct runs
    norm = calibrate.Normaliser()
    loads: list[float] = []
    g = timed_loads(args.corpus, loads, norm)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    oracle = Oracle(corpus.generate(args.seed).model)
    session = Session(g, oracle, random.Random(args.seed * 7919 + 17), norm)
    session.check(len(g.simulations) == len(oracle.model.sims), "load simulations")
    result = {"peak_rss_mib": peak_rss_kib / 1024}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            tracer.begin_request("setup")
            serialize.load_graph(args.corpus)
            tracer.end_request()
            tracer.enabled = False
            session.run(args.seconds, tracer)
        finally:
            tracer.uninstall()
        result["layers"] = reduce_rows(tracer.rows())
        overhead = statistics.median(session.traced.all_reads()) / statistics.median(session.plain.all_reads()) - 1
        result["layers"]["trace.overhead_ratio"] = overhead
        result["spans"] = tracer.dump()
    else:
        session.run(args.seconds)
    session.g = g = None  # the session graph would slow the loads' collections
    timed_loads(args.corpus, loads, norm)

    plain = session.plain
    reads = plain.all_reads()
    tail_name, tail = tail_percentile(reads)
    # Each read kind weighs the same however often the seed drew it; the
    # median of all reads jumps between the kinds' clusters from seed to seed.
    types = [samples for samples in (*plain.reads.values(), plain.writes, plain.scans) if samples]
    result.update(
        setup_s=statistics.median(loads),
        op_geomean_ms=1000 * statistics.geometric_mean([statistics.geometric_mean(t) for t in types]),
        point_p50_us=statistics.median(reads) * 1e6,
        point_tail=tail_name,
        point_p99_us=tail * 1e6,
        write_p50_us=statistics.median(plain.writes) * 1e6,
        scan_pass_s=statistics.median(plain.scans),
        host_factor=statistics.median(session.factors),
        samples={"point": len(reads), "write": len(plain.writes), "scan": len(plain.scans),
                 "setup": len(loads)},
        attempted=session.attempted,
        failures=session.failures,
    )
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
