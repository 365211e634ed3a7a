"""Benchmark worker: one workload as one closed-loop caller in this process.

``run.py`` starts this file in a fresh process on the generated inputs.  The
worker loads what attachnet loads lazily, then runs operations back to back
until ``--seconds`` have passed (and at least ``MIN_OPS``), checks every
output and writes a JSON result.  Each operation is also measured in
calibration slices (see ``HostClock``), which cancels the host's speed
drifting from one run to the next.  With ``--trace 1`` every untraced operation
is followed by two replays of it through the public functions, one untraced
and one traced; the result then carries the per-layer figures and the
tracing overhead.

``--probe`` only does the set-up and prints ``ready``: ``run.py`` times that
from a fresh process to measure set-up time.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

from spans import NULL, Tracer

MIN_OPS = 3
REL_TOL = 1e-9
MIN_SKELETON_F1 = 0.5
FACTOR_TABLES = ("wei2007_avoidance", "wei2007_anxiety", "lo2009", "guzman2019")
KMEANS_SEEDS = (1, 4000)
CAL_STEPS = 1_500  # one calibration slice: about 3.5 ms on a 2.1 GHz Xeon vCPU
CAL_INTERVAL_S = 0.1
CAL_ROWS = np.random.default_rng(0).normal(size=(64, 4))


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def setup(tr):
    """Import attachnet and load what it loads lazily; returns the fixture model."""
    with tr.span("setup.import_attachnet"):
        import attachnet
        from attachnet import fixtures, ingest, score
    with tr.span("fixtures.load_fixture_model"):
        model = fixtures.load_fixture_model()
    with tr.span("ingest.map_region"):
        ingest.map_region("US")
    with tr.span("ingest.default_codebook"):
        ingest.default_codebook()
    with tr.span("setup.warm_kernels"):  # compiles the kernels when numba is active
        rows = np.random.default_rng(0).normal(size=(50, 3))
        attachnet.tabu_search(score.stats_from_matrix(rows, ("a", "b", "c")))
    return model


def calibration_slice() -> float:
    """CPU seconds this thread spends on a fixed slice of interpreter and
    small-numpy work.

    It calls nothing in attachnet, so only the host's speed moves it.  Thread
    CPU time leaves out any wait for the GIL while the program's own threads
    run.
    """
    start = time.thread_time()
    table, total = {}, 0.0
    for i in range(CAL_STEPS):
        k = i & 63
        table[k] = table.get(k, 0) + i
        row = CAL_ROWS[k]
        total += float(row @ row) + sum(divmod(i, 7))
    return time.thread_time() - start


class Clock:
    """Wall time of the calls an operation makes into attachnet."""

    wall = 0.0

    @contextlib.contextmanager
    def timing(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall = time.perf_counter() - start


class HostClock(Clock):
    """A Clock that also gives the operation's time in calibration slices.

    The host's speed drifts by up to 2x within seconds, on each vCPU on its
    own, so an operation's time is divided by the mean time of calibration
    slices run while it runs.  An interval timer interrupts the operation
    every ``CAL_INTERVAL_S`` and its handler runs one slice in the main
    thread; the slices' time is taken out of the operation's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._busy = False

    def _tick(self, signum, frame):
        if not self._busy:  # a slice slower than the interval must not nest
            self._busy = True
            self.samples.append(calibration_slice())
            self._busy = False

    @contextlib.contextmanager
    def timing(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.wall = time.perf_counter() - start - sum(self.samples)
            if not self.samples:  # shorter than one interval
                self.samples.append(calibration_slice())

    def in_slices(self) -> float:
        """The last operation's time in units of one calibration slice."""
        return self.wall / statistics.mean(self.samples)


@contextlib.contextmanager
def quiet():
    """Swallow the CLI's printing and the averaging warnings it raises."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(
        io.StringIO()
    ) as err, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield out, err


def ingest_stage(tr, op, raw, cohort_path):
    """The calls ``attachnet ingest --filter-standard -o cohort`` makes."""
    from attachnet import ingest

    with tr.span("ingest.parse_responses", op):
        table = ingest.parse_responses(raw)
    with tr.span("ingest.filter_cohort", op):
        cohort = ingest.filter_cohort(table, ingest.standard_filter())
    with tr.span("ingest.demographic_summary", op):
        ingest.demographic_summary(cohort)
    with tr.span("ingest.serialize_responses", op):
        ingest.serialize_responses(cohort, cohort_path)
    return table, cohort


def ingest_counters(table, cohort) -> dict:
    return {
        "ingest.dropped_rows": table.dropped_rows,
        "ingest.cohort_kept_ratio": cohort.n / table.n,
    }


def analyze_model(tr, op, dag, fitted, partition=None):
    """The calls ``attachnet analyze`` makes on a fitted model."""
    from attachnet import analytics, influence
    from attachnet.dag import roots_and_terminals

    with tr.span("dag.roots_and_terminals", op):
        ends = roots_and_terminals(dag)
    with tr.span("analytics.degree_centrality", op):
        analytics.degree_centrality(dag)
    with tr.span("analytics.betweenness", op):
        analytics.betweenness(dag, fitted)
    with tr.span("analytics.pagerank", op):
        analytics.pagerank(dag, fitted)
    with tr.span("analytics.communities_walktrap", op):
        walked = analytics.communities_walktrap(dag, fitted, steps=4)
    with tr.span("influence.cluster_coupling", op):
        influence.cluster_coupling(dag, fitted, partition or walked)
    return ends


# -- repro: `attachnet full-repro` on a simulated corpus ----------------------


class Repro:
    """Bootstrap search dominates; the replay runs the same stages through the
    public functions, one replicate at a time on the documented
    ``SeedSequence((seed, replicate))`` streams."""

    def __init__(self, model, inputs, work: Path):
        self.raw = inputs["raw"]
        self.items = tuple(inputs["items"])
        self.replicates = inputs["replicates"]
        self.sample_size = inputs["sample_size"]
        self.bytes = inputs["bytes"]
        self.out = work / "repro"
        self.truth = {frozenset(a) for a in model[0].arcs if set(a) <= set(self.items)}

    def untraced(self, op: int, seed: int, clock: Clock):
        from attachnet import cli

        argv = [
            "full-repro", self.raw, "--out-dir", str(self.out), "-R", str(self.replicates),
            "-m", str(self.sample_size), "--skip-stability", "--seed", str(seed),
            "--threads", "2",
        ]
        with quiet(), clock.timing():
            code = cli.main(argv)
        check(code == 0, f"full-repro exited {code}")
        return clock.wall, self.check_outputs()

    def read_counts(self, path) -> np.ndarray:
        """Arc counts back from strengths.csv, checking counts[i,j]+counts[j,i] <= R."""
        index = {n: i for i, n in enumerate(self.items)}
        counts = np.zeros((len(self.items),) * 2, dtype=np.int64)
        with open(path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                u, v, strength, direction = line.strip().split(",")
                both = float(strength) * self.replicates
                check(abs(both - round(both)) < 1e-3, f"strength {strength} is not k/R")
                check(round(both) <= self.replicates, f"pair {u}-{v} in more than R replicates")
                counts[index[u], index[v]] = round(float(direction) * round(both))
        return counts

    def skeleton_f1(self, counts: np.ndarray) -> float:
        """F1 of pairs with strength >= 0.5 against the generating skeleton."""
        m = len(self.items)
        found = {
            frozenset((self.items[i], self.items[j]))
            for i in range(m)
            for j in range(i + 1, m)
            if counts[i, j] + counts[j, i] >= 0.5 * self.replicates
        }
        hits = len(found & self.truth)
        return 2 * hits / (len(found) + len(self.truth))

    def check_outputs(self) -> dict:
        from attachnet.params import read_model

        dag, _ = read_model(str(self.out / "model.json"))  # Dag() rejects cycles
        check(dag.nodes == self.items, "model.json does not hold the corpus items")
        counts = self.read_counts(self.out / "strengths.csv")
        f1 = self.skeleton_f1(counts)
        check(f1 >= MIN_SKELETON_F1, f"skeleton F1 {f1:.3f} below {MIN_SKELETON_F1}")
        check((self.out / "analysis" / "pagerank.csv").is_file(), "analysis reports missing")
        return {"counts": counts, "skeleton_f1": f1}

    def replay(self, tr, op: int, seed: int, untraced: dict):
        from attachnet import params, structure
        from attachnet.score import stats_from_matrix

        out = self.out / "replay"
        out.mkdir(parents=True, exist_ok=True)
        m = len(self.items)
        start = time.perf_counter()
        with tr.span("op", op):
            raw, table = ingest_stage(tr, op, self.raw, str(out / "cohort.csv"))
            cfg = structure.SearchConfig(seed=seed)
            counts = np.zeros((m, m), dtype=np.int64)
            arcs = []
            for r in range(self.replicates):
                with tr.span("structure.replicate", r):
                    rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
                    idx = rng.integers(0, table.n, size=self.sample_size)
                    with tr.span("score.stats_from_matrix", r):
                        stats = stats_from_matrix(table.rows[idx], table.items)
                    with tr.span("structure.tabu_search", r):
                        learned = structure.tabu_search(stats, cfg)
                counts += learned.adjacency_matrix()
                arcs.append(len(learned.arcs))

            strengths = structure.ArcStrengthTable(table.items, counts, self.replicates)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with tr.span("structure.average_network", op):
                    dag = structure.average_network(strengths)
            messages = [str(w.message) for w in caught]
            with tr.span("params.fit_mle", op):
                fitted = params.fit_mle(dag, table)
            with tr.span("params.write_model", op):
                params.write_model(dag, fitted, str(out / "model.json"))
            with tr.span("params.read_model", op):
                dag, fitted = params.read_model(str(out / "model.json"))
            analyze_model(tr, op, dag, fitted)
        wall = time.perf_counter() - start
        counters = {}
        if tr is not NULL:
            # Outside the operation and only when tracing: the same replicates
            # on two threads, for the parallel-efficiency figure.
            with tr.span("structure.bootstrap_strengths", op) as threaded_span:
                threaded = structure.bootstrap_strengths(
                    table, self.replicates, self.sample_size, cfg, threads=2
                )
            check(np.array_equal(threaded.counts, counts), "two-thread bootstrap differs from replay")
            one_worker = sum(tr.durations("structure.replicate")[-self.replicates:])
            two_threads = threaded_span["end"] - threaded_span["start"]
            counters["structure.parallel_efficiency"] = one_worker / (2 * two_threads)
        return wall, counters | ingest_counters(raw, table) | {
            "ingest.parsed_bytes": self.bytes,
            "score.cov_computed_bytes": self.sample_size * m * 8,
            "score.cov_computed_madds": self.sample_size * m * (m + 1) // 2,
            "structure.arcs_per_replicate": statistics.mean(arcs),
            "structure.cycle_repairs": sum(s.startswith("dropped arc") for s in messages),
            "structure.undirected_pairs": sum("no majority direction" in s for s in messages),
            "structure.replay_arc_mismatches": int((counts != untraced["counts"]).sum()),
            "structure.skeleton_f1": untraced["skeleton_f1"],
        }


# -- ingest: `attachnet ingest` then `attachnet fit --fixture` -----------------


class Ingest:
    """Parse, filter, summarize and serialize a raw export, then fit the
    bundled structure on the cohort; never touches the search."""

    def __init__(self, model, inputs, work: Path):
        self.raw = inputs["raw"]
        self.expected = inputs
        self.out = work / "ingest"
        self.out.mkdir(parents=True, exist_ok=True)
        self.cohort = str(self.out / "cohort.csv")
        self.model = str(self.out / "model.json")

    def untraced(self, op: int, seed: int, clock: Clock):
        from attachnet import cli

        with quiet() as (out, err), clock.timing():
            code = cli.main([
                "ingest", self.raw, "--filter-standard", "-o", self.cohort,
                "--report", str(self.out / "demo.csv"),
            ])
            fit_code = cli.main(["fit", self.cohort, "--fixture", "-o", self.model])
        check(code == 0 and fit_code == 0, f"ingest/fit exited {code}/{fit_code}")
        ragged = self.expected["ragged"]
        check(f"dropped {ragged} malformed rows" in err.getvalue() or not ragged,
              "ingest reported another dropped-row count")
        check(f"rows: {self.expected['cohort']}\n" in out.getvalue(),
              "ingest reported another cohort size")
        with open(self.cohort, encoding="utf-8") as fh:
            check(sum(1 for _ in fh) == self.expected["cohort"] + 1, "cohort.csv row count")
        self.check_model(self.model)
        return clock.wall, {}

    def check_model(self, path) -> None:
        from attachnet.params import read_model

        dag, fitted = read_model(path)
        check(len(dag.nodes) == 36 and len(dag.arcs) == 123, "fitted model shape")
        sds = np.array([fitted.residual_sd[n] for n in dag.nodes])
        check(bool(np.all(np.isfinite(sds) & (sds > 0))), "residual sd not positive")

    def replay(self, tr, op: int, seed: int, untraced: dict):
        from attachnet import fixtures, ingest, params

        start = time.perf_counter()
        with tr.span("op", op):
            raw, cohort = ingest_stage(tr, op, self.raw, self.cohort)
            with tr.span("ingest.parse_responses", op):
                table = ingest.parse_responses(self.cohort)
            with tr.span("ingest.filter_cohort", op):
                table = ingest.filter_cohort(table, ingest.CohortFilter(require_complete=True))
            with tr.span("fixtures.load_fixture_model", op):
                dag, _ = fixtures.load_fixture_model()
            with tr.span("params.fit_mle", op):
                fitted = params.fit_mle(dag, table)
            with tr.span("params.write_model", op):
                params.write_model(dag, fitted, self.model)
            with tr.span("params.read_model", op):
                params.read_model(self.model)
        wall = time.perf_counter() - start
        check(raw.n + raw.dropped_rows == self.expected["data_lines"], "parsed + dropped != data lines")
        check(cohort.n == self.expected["cohort"], "cohort differs from the independent mask")
        self.check_model(self.model)
        return wall, ingest_counters(raw, cohort) | {
            "ingest.parsed_bytes": self.expected["bytes"] + Path(self.cohort).stat().st_size,
        }


# -- analyze: one analysis battery on the bundled model ------------------------


def path_oracle(dag, fitted) -> dict:
    """Per ordered pair: path count, sum of path products, |products| sorted.

    Independent of attachnet.influence: a plain depth-first walk over arcs.
    """
    children = {n: sorted(v for u, v in dag.arcs if u == n) for n in dag.nodes}
    coeff = {(p, c): v for p, c, v in fitted.arc_items()}
    found: dict = {}

    def walk(source, node, product):
        for child in children[node]:
            value = product * coeff[(node, child)]
            found.setdefault((source, child), []).append(value)
            walk(source, child, value)

    for source in dag.nodes:
        walk(source, source, 1.0)
    return {
        pair: (len(products), math.fsum(products), sorted((abs(p) for p in products), reverse=True))
        for pair, products in found.items()
    }


class Analyze:
    """Analytics, influence and comparison on the bundled model; bypasses
    ingest and the search.  The seed sets the order of the pair queries."""

    def __init__(self, model, inputs, work: Path):
        from attachnet import fixtures

        self.dag, self.params = model
        self.partition = fixtures.load_fixture_partition()
        self.tables = {name: fixtures.load_factor_table(name) for name in FACTOR_TABLES}
        self.edges = fixtures.load_edge_weights("fixture"), fixtures.load_edge_weights("external")
        polarity = fixtures.load_polarity()
        groups = sorted(set(polarity.values()))
        self.mwu = [
            [self.params.intercept[i] for i in self.dag.nodes if polarity[i] == g] for g in groups
        ]
        pairs = [(s, t) for s in self.dag.nodes for t in self.dag.nodes if s != t]
        order = np.random.default_rng(inputs["seed"]).permutation(len(pairs))
        self.pairs = [pairs[i] for i in order]
        self.oracle = path_oracle(self.dag, self.params)

    def battery(self, tr, op: int, clock: Clock):
        from attachnet import compare, influence

        with clock.timing(), tr.span("op", op):
            ends = analyze_model(tr, op, self.dag, self.params, self.partition)
            answers = []
            for s, t in self.pairs:  # influence_result(k=2) makes these two calls
                with tr.span("influence.query", (s, t)):
                    with tr.span("influence.total_influence", (s, t)):
                        total = influence.total_influence(self.dag, self.params, s, t)
                    with tr.span("influence.top_paths", (s, t)):
                        top = influence.top_paths(self.dag, self.params, s, t, k=2)
                answers.append((s, t, total, top))
            kmeans = {}
            for name, table in self.tables.items():
                with tr.span("compare.kmeans_best_seed", name):
                    kmeans[name] = compare.kmeans_best_seed(table, k=2, seed_range=KMEANS_SEEDS)
                with tr.span("compare.pca_project", name):
                    compare.pca_project(table, dims=2)
            with tr.span("compare.edge_set_correlation", op):
                union = compare.edge_set_correlation(*self.edges, mode="union")
                both = compare.edge_set_correlation(*self.edges, mode="intersection")
            with tr.span("compare.mann_whitney_u", op):
                _, p = compare.mann_whitney_u(*self.mwu)

        check(ends == ({"Q02", "Q05"}, {"Q16", "Q34", "Q36"}), "roots/terminals")
        for s, t, total, top in answers:
            count, expected, magnitudes = self.oracle.get((s, t), (0, 0.0, []))
            check(close(total, expected), f"total_influence {s}->{t} != sum of path products")
            check(len(top) == min(2, count), f"top_paths {s}->{t} length")
            check(all(close(abs(p.product), q) for p, q in zip(top, magnitudes)),
                  f"top_paths {s}->{t} products")
        for name, result in kmeans.items():
            check(set(result.assignment) == set(self.tables[name].items), f"k-means {name}")
        check(union[0] == 26 and abs(union[1] - 0.823) < 5e-4, "union edge correlation")
        check(both[0] == 12 and abs(both[1] - 0.626) < 5e-4, "intersection edge correlation")
        check(0.0 < p <= 1.0, "Mann-Whitney p")
        return clock.wall, {
            "influence.paths_enumerated": sum(c for c, _, _ in self.oracle.values()),
            "compare.lloyd_runs": len(self.tables) * (KMEANS_SEEDS[1] - KMEANS_SEEDS[0] + 1),
        }

    def untraced(self, op: int, seed: int, clock: Clock):
        return self.battery(NULL, op, clock)

    def replay(self, tr, op: int, seed: int, untraced: dict):
        return self.battery(tr, op, Clock())


WORKLOADS = {"repro": Repro, "ingest": Ingest, "analyze": Analyze}


# -- per-layer figures from the traced pass ------------------------------------


def per_layer(names, tr: Tracer, pairs, counters, walls, slices) -> dict:
    """Every per-layer metric; a layer the workload bypasses reads 0.

    ``<span>.s`` is the span's total time per traced operation; other names
    are percentiles over single calls or the workload's own counters.
    """
    ops = len(counters)

    def mean_counter(key):
        return statistics.mean(c.get(key, 0) for c in counters)

    def pct(name, q):
        values = sorted(tr.durations(name))
        return values[max(0, math.ceil(q * len(values)) - 1)] if values else 0.0

    parse_s = sum(tr.durations("ingest.parse_responses"))
    queries = tr.durations("influence.query")
    special = {
        "trace.overhead_s": statistics.median(t - u for u, t in pairs),
        "op.wall_s": statistics.median(walls),
        "host.slice_ms": 1e3 * statistics.median(slices),
        "fixtures.load_fixture_model.s": statistics.median(tr.durations("fixtures.load_fixture_model")),
        "ingest.parse_responses.mb_per_s": (
            sum(c.get("ingest.parsed_bytes", 0) for c in counters) / 1e6 / parse_s if parse_s else 0.0
        ),
        "score.stats_from_matrix.p50_s": pct("score.stats_from_matrix", 0.5),
        "score.stats_from_matrix.max_s": pct("score.stats_from_matrix", 1.0),
        "structure.tabu_search.p50_s": pct("structure.tabu_search", 0.5),
        "structure.tabu_search.max_s": pct("structure.tabu_search", 1.0),
        "structure.replay_arc_mismatches": sum(
            c.get("structure.replay_arc_mismatches", 0) for c in counters
        ),
        "influence.queries": len(queries),
        "influence.query_p50_ms": 1e3 * pct("influence.query", 0.5),
        "influence.query_p99_ms": 1e3 * pct("influence.query", 0.99),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif name.startswith("compare.kmeans_best_seed."):
            table = name.split(".")[2]
            values[name] = sum(tr.durations("compare.kmeans_best_seed", table)) / ops
        elif name.endswith(".s"):
            values[name] = sum(tr.durations(name[:-2])) / ops
        else:
            values[name] = mean_counter(name)
    return values


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", help="JSON written by run.py")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layer-metrics", default="", help="comma-separated names")
    parser.add_argument("--result", help="write the JSON result here")
    args = parser.parse_args(argv)

    if args.probe:
        setup(NULL)
        print("ready", flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    model = setup(tracer or NULL)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    work = Path(args.result).parent
    workload = WORKLOADS[args.workload](model, inputs, work)

    clock = HostClock()
    walls, norms, slices, pairs, counters, errors = [], [], [], [], [], []
    attempted = 0
    min_ops = 1 if tracer else MIN_OPS
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start < args.seconds:
        op = attempted
        seed = inputs["seed"] * 1000 + op
        attempted += 1
        try:
            wall, info = workload.untraced(op, seed, clock)
            if tracer:  # alternate which replay runs first, so drift cancels
                replays = {}
                for tr in (NULL, tracer) if op % 2 == 0 else (tracer, NULL):
                    replays[tr is tracer] = workload.replay(tr, op, seed, info)
                pairs.append((replays[False][0], replays[True][0]))
                counters.append(replays[True][1])
            walls.append(wall)
            norms.append(clock.in_slices())
            slices.append(statistics.mean(clock.samples))
        except Exception:  # any failure of the program counts against it
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)

    result = {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "op_s": walls,
        "op_slices": norms,
        "slice_s": slices,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        tracer.write(work / "spans.json")
        if counters:
            names = [n for n in args.layer_metrics.split(",") if n]
            result["per_layer"] = per_layer(names, tracer, pairs, counters, walls, slices)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
