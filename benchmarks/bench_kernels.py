#!/usr/bin/env python3
"""Benchmark the search, the covariance, cycle repair, ingest and analysis
against their references.

The references in ``tests/reference_kernels.py`` are the ndarray Cholesky
local score, the per-candidate search (a depth-first cycle check and a fresh
local score for every candidate move) and the two-pass covariance loop; the
script fails unless ``CachedScorer``'s local scores of every parent set of a
12-node problem, and of an 8-node problem with a constant column and a scaled
duplicate, are identical to the reference's, and the searches return the
identical learned graph and score.  The 8-node problem must reach the ridge
retry and a ``-inf`` score.  On those parent sets the reference's residual
variance, the last Cholesky pivot, must factor where the back-substitution
route it replaced does and lie within (p + 1) eps c_vv of it for p parents,
with the 1e-12 floor never between them; the rows print the largest
difference as a share of that bound.
The structure search dominates bootstrap runtime, so its figure decides
whether a 3000-replicate run takes minutes or days.

The closure-upkeep row replays one seeded sequence of random admissible
moves (add, remove, reverse) on 36 nodes.  It times the search's path counts,
one outer product per arc added or taken away (``_count_move``), against
recomputing the closure ``_reachability`` after every move; the script fails
unless the nonzero path counts equal the closure after every move.

The cycle-repair row times ``average_network`` on a fixed batch of random
bootstrap tallies against the Tarjan-component repair in
``tests/reference_structure.py``; the script fails on any difference in the
averaged graph or in the warnings, in order.

The ingest rows time ``parse_responses`` and ``serialize_responses`` on a
generated 40,000-row export of 36 items (the size of the public ECR export)
against the per-cell versions in ``tests/reference_ingest.py``; the script
fails on any difference in the parsed table or the written bytes.  The export
is parsed twice: as written, which the block tokenizer reads, and with its
country cells quoted, which hands the body to the csv module's reader.  The
"parse, items only" row parses the export as written with
``ingest.ITEMS_ONLY``, the schema ``fit`` and ``learn`` read with, against the
full parse; the script fails unless both give the same items, rows (bit for
bit) and dropped rows.  The parsed table is written, and so is a 40,000-row table whose gender and country
cells need quoting (a comma, a double quote, a line feed) or are non-ASCII and
whose items include 2.5, -0.0 and 1e300, values the writer cannot look up by
digit.

The fit row times ``fit_mle`` on the complete cohort of that export with the
bundled structure against the per-node SVD fit in
``tests/reference_params.py``; the script fails if any intercept, coefficient
or residual sd differs by more than the oracle tests' bound (1e-11 relative)
or if the warnings differ.

The analysis rows time ``kmeans_best_seed(k=2)`` over seeds 1:4000 on the four
bundled factor tables, ``communities_walktrap`` on the bundled model, the
1,260 ordered item-pair queries on the bundled model (``total_influence``
plus the best-first ``top_paths(k=2)``) and the Mann-Whitney exact null
counts, against the seed-at-a-time sweep, the walktrap that rescores every
adjacent pair on every merge, the arc-scanning every-node queries that rank
every path and the recursive counts in ``tests/reference_analysis.py``; the
script fails unless every result is identical, partitions and product bits
included.  The k-means sweep is
timed on its first call in the process and again once warm; its rows count
the distinct starts, each of which begins a Lloyd run (runs that meet merge,
so fewer run to the end).  The k-means
start rows for seeds 1:4000 at 18 and 36 items are timed as one block draw
(``_draws.choice_rows``) against one ``default_rng(seed).choice`` per seed;
the script fails unless every row is identical.

The start-up rows give the median wall time of 10 fresh ``python -c "import
attachnet"`` processes and of 10 importing ``attachnet.cli`` (interpreter
start included), and whether the import loaded scipy, which only the
comparison p values and quantiles need.

    PYTHONPATH=src python benchmarks/bench_kernels.py --nodes 36 --rows 1000 --repeats 3
"""
import argparse
import itertools
import os
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from attachnet import _draws, _kernels, analytics, compare, fixtures, influence, ingest, params, structure
from attachnet._kernels import DEFAULT_RIDGE, CachedScorer
from attachnet.score import stats_from_matrix

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import reference_analysis  # noqa: E402
import reference_ingest  # noqa: E402
import reference_params  # noqa: E402
import reference_structure  # noqa: E402
import reference_kernels  # noqa: E402
from reference_kernels import covariance_kernel, tabu_search_kernel  # noqa: E402

EXPORT_ROWS, EXPORT_ITEMS = 40_000, 36
REPAIR_TABLES, REPAIR_ITEMS = 200, 12
SCORE_NODES, DEGENERATE_NODES = 12, 8
UPKEEP_NODES, UPKEEP_MOVES = 36, 400


def synthetic_problem(nodes: int, rows: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    order = rng.permutation(nodes)
    data = np.zeros((rows, nodes))
    for pos, j in enumerate(order):
        col = rng.normal(size=rows)
        for prev in range(max(0, pos - 3), pos):
            if rng.random() < 0.5:
                col += rng.uniform(-1, 1) * data[:, order[prev]]
        data[:, j] = col
    return data


def synthetic_export(rows: int, items: int, seed: int, quoted: bool = False) -> bytes:
    """A raw export: unpadded headers, Likert codes with 2% blank and 1%
    out-of-range cells, codebook genders, countries (in double quotes when
    ``quoted``), and 1% ragged rows."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(1, 6, size=(rows, items)).astype(str).astype(object)
    cells[rng.random((rows, items)) < 0.02] = ""
    cells[rng.random((rows, items)) < 0.01] = "9"
    age = rng.integers(14, 80, size=rows).astype(str)
    gender = rng.choice(["0", "1", "2", "3"], size=rows)
    country = rng.choice(["US", "GB", "CA", "AU", "IN", "DE", "XX", ""], size=rows)
    if quoted:
        country = np.char.add(np.char.add('"', country), '"')
    ragged = rng.random(rows) < 0.01
    lines = [",".join([f"Q{i + 1}" for i in range(items)] + ["age", "gender", "country"])]
    for i, row in enumerate(cells.tolist()):
        tail = [age[i], gender[i]] if ragged[i] else [age[i], gender[i], country[i]]
        lines.append(",".join(row + tail))
    return ("\n".join(lines) + "\n").encode()


def quoted_table(rows: int, items: int, seed: int) -> ingest.ResponseTable:
    """Likert rows with 1% of cells 2.5, -0.0, 1e300 or NaN, and gender and
    country labels that csv.writer quotes or that are not ASCII."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 6, size=(rows, items)).astype(np.float64)
    odd = rng.random((rows, items)) < 0.01
    values[odd] = rng.choice([2.5, -0.0, 1e300, np.nan], size=int(odd.sum()))
    gender = rng.choice(["female", "male", 'say "x"', "a,b", "x\ny", "männlich"], size=rows).tolist()
    country = rng.choice(["US", "GB", "Côte d'Ivoire", "Korea, South", "東京", ""], size=rows).tolist()
    demo = ingest.Demographics.from_labels(rng.integers(-1, 80, size=rows), gender, country)
    return ingest.ResponseTable(tuple(f"Q{k + 1:02d}" for k in range(items)), values, demo)


def time_fn(fn, *args, repeats: int):
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", type=int, default=20)
    parser.add_argument("--rows", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--skip-reference-search", action="store_true",
                        help="only time the current search (the reference one is slow)")
    args = parser.parse_args()

    data = synthetic_problem(args.nodes, args.rows, args.seed)
    items = tuple(f"v{i}" for i in range(args.nodes))

    print(f"problem: {args.nodes} nodes x {args.rows} rows, seed {args.seed}, "
          f"backend {_kernels.backend()}, best of {args.repeats}")
    print(f"{'kernel':<22} {'current':>12} {'reference':>12} {'speedup':>9}")

    t_new, stats = time_fn(stats_from_matrix, data, items, repeats=args.repeats)
    t_ref, (_, ref_cov) = time_fn(covariance_kernel, data, repeats=args.repeats)
    cov_diff = np.abs(stats.cov - ref_cov).max()
    print(f"{'covariance':<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
          f"   max |diff| {cov_diff:.1e}")

    # full BIC tabu search from the empty graph, both sides on the same
    # covariance; each current search gets a fresh scorer, so none reuses
    # another's cached scores
    def empty():
        return np.zeros((args.nodes, args.nodes), dtype=np.int8)

    def current():
        return _kernels.tabu_search_kernel(CachedScorer(stats.cov, stats.n), empty(), 10, 100, None)

    current()  # warm-up
    t_new, (adj, score) = time_fn(current, repeats=args.repeats)
    if args.skip_reference_search:
        print(f"{'tabu search':<22} {t_new * 1e3:>10.2f}ms {'skipped':>12}")
    else:
        t_ref, (ref_adj, ref_score) = time_fn(
            lambda: tabu_search_kernel(stats.cov, float(stats.n), empty(), 10, 100, -1, DEFAULT_RIDGE, 0),
            repeats=max(1, args.repeats // 3),
        )
        if not (np.array_equal(adj, ref_adj) and score == ref_score):
            sys.exit("error: the search and its reference disagree on the learned graph or score")
        print(f"{'tabu search':<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
              f"   {int(adj.sum())} arcs, score {score:.6f} (identical)")

    bench_local_score(args.rows, args.seed, args.repeats)
    bench_upkeep(args.seed, args.repeats)
    bench_repair(args.seed, args.repeats)
    cohort = bench_ingest(args.seed, args.repeats)
    bench_fit(cohort, args.repeats)
    bench_analysis(args.repeats)
    bench_startup()


def bench_local_score(rows: int, seed: int, repeats: int) -> None:
    """BIC local score of every node under every parent set of a 12-node
    problem, and of an 8-node one with a constant column, which only the
    ridge retry solves, and a scaled duplicate, which scores -inf; from one
    fresh ``CachedScorer`` per run."""
    degenerate = synthetic_problem(DEGENERATE_NODES, rows, seed)
    degenerate[:, 0] = 3.0
    degenerate[:, 1] *= 1e6
    degenerate[:, 2] = degenerate[:, 1]
    for label, data in (("local score", synthetic_problem(SCORE_NODES, rows, seed)),
                        ("local score, singular", degenerate)):
        m = data.shape[1]
        stats = stats_from_matrix(data, range(m))
        n = float(stats.n)
        cases = [
            (v, parents)
            for v in range(m)
            for size in range(m)
            for parents in itertools.combinations([u for u in range(m) if u != v], size)
        ]

        def current():
            scorer = CachedScorer(stats.cov, stats.n)
            return scorer, [scorer.score(v, parents) for v, parents in cases]

        def reference():
            return [
                reference_kernels.local_score(
                    stats.cov, n, v, np.array(parents, dtype=np.int64), DEFAULT_RIDGE, 0
                )
                for v, parents in cases
            ]

        t_new, (scorer, scores) = time_fn(current, repeats=repeats)
        t_ref, ref_scores = time_fn(reference, repeats=max(1, repeats // 3))
        if [float(x).hex() for x in scores] != [float(x).hex() for x in ref_scores]:
            sys.exit(f"error: local_score and its reference disagree ({label})")
        failed = sum(s == -np.inf for s in scores)
        if data is degenerate and not (scorer.ridged and failed):
            sys.exit("error: the singular problem reached no ridge retry or no -inf score")
        ratio = pivot_against_solve(stats.cov, cases, label)
        print(f"{label:<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
              f"   {len(cases)} parent sets of {m} nodes, {failed} -inf (identical),"
              f" pivot - solve <= {ratio:.2f} of (p + 1) eps c_vv")


def pivot_against_solve(cov, cases, label: str) -> float:
    """The largest |pivot - solve| / ((p + 1) eps c_vv) over the cases, between
    the reference's last-pivot residual variance and the back-substitution
    route it replaced, for p parents; exits unless both routes factor the same
    sets and differ by at most that bound, with the 1e-12 floor never between
    them.  The rounding gap grows with the set size: over the 12-node problem
    at --seed 1-8 and --rows 500 and 1000, its largest value in eps c_vv ran
    from 0.94 at p = 1 to 3.96 at p = 7."""
    eps = np.finfo(float).eps
    worst = 0.0
    for v, parents in cases:
        idx = np.array(parents, dtype=np.int64)
        pivot, ok = reference_kernels.residual_variance(cov, v, idx, DEFAULT_RIDGE)
        solve, solve_ok = reference_kernels.residual_variance_solve(cov, v, idx, DEFAULT_RIDGE)
        bound = (len(parents) + 1) * eps * cov[v, v]
        apart = ok and (abs(pivot - solve) > bound or (pivot < 1e-12) != (solve < 1e-12))
        if ok != solve_ok or apart:
            sys.exit(f"error: the pivot and the solve route disagree on node {v}, parents {parents} ({label})")
        if ok and cov[v, v] > 0:
            worst = max(worst, abs(pivot - solve) / bound)
    return worst


def random_moves(rng, m: int, count: int):
    """``count`` moves drawn uniformly from the admissible adds, removals and
    reversals of a DAG growing from the empty graph, found from its closure."""
    adj = np.zeros((m, m))
    moves = []
    for _ in range(count):
        present = adj != 0
        reach = _kernels._reachability(adj)
        options = {
            _kernels.ADD: ~present & ~present.T & ~reach.T & ~np.eye(m, dtype=bool),
            _kernels.REMOVE: present,
            _kernels.REVERSE: present & ~(present.astype(np.float64) @ reach > 0),
        }
        cells = [(kind, u, v) for kind, ok in options.items() for u, v in zip(*np.nonzero(ok))]
        kind, u, v = cells[rng.integers(len(cells))]
        adj[u, v] = kind == _kernels.ADD
        if kind == _kernels.REVERSE:
            adj[v, u] = 1.0
        moves.append((kind, int(u), int(v)))
    return moves


def bench_upkeep(seed: int, repeats: int) -> None:
    """The closure after every move of one random move sequence: from the
    search's path counts, and recomputed."""
    m = UPKEEP_NODES
    moves = random_moves(np.random.default_rng(seed), m, UPKEEP_MOVES)

    def counted():
        paths = _kernels._path_counts(np.zeros((m, m), dtype=bool))
        closures = []
        for move in moves:
            _kernels._count_move(paths, *move)
            closures.append(paths != 0)
        return closures

    def recomputed():
        adj = np.zeros((m, m))
        closures = []
        for kind, u, v in moves:
            adj[u, v] = kind == _kernels.ADD
            if kind == _kernels.REVERSE:
                adj[v, u] = 1.0
            closures.append(_kernels._reachability(adj))
        return closures

    t_new, closures = time_fn(counted, repeats=repeats)
    t_ref, ref_closures = time_fn(recomputed, repeats=repeats)
    if not all(np.array_equal(a, b) for a, b in zip(closures, ref_closures)):
        sys.exit("error: the path counts and the recomputed closure disagree")
    arcs = int(ref_closures[-1].sum())
    print(f"{'closure upkeep':<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
          f"   {UPKEEP_MOVES} moves on {m} nodes, {arcs} reachable pairs at the end (identical)")


def random_strengths(rng, m: int) -> structure.ArcStrengthTable:
    """Tallies of R <= 9 replicates with ``counts[i, j] + counts[j, i] <= R``."""
    replicates = int(rng.integers(1, 10))
    both = np.triu(rng.integers(0, replicates + 1, size=(m, m)), 1)
    upper = np.floor(rng.random((m, m)) * (both + 1)).astype(np.int64)
    return structure.ArcStrengthTable(
        tuple(f"Q{k + 1:02d}" for k in rng.permutation(m)), upper + (both - upper).T, replicates
    )


def bench_repair(seed: int, repeats: int) -> None:
    rng = np.random.default_rng(seed)
    tables = [random_strengths(rng, REPAIR_ITEMS) for _ in range(REPAIR_TABLES)]

    def average_all(average):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dags = [average(table, 0.2) for table in tables]
        return dags, [str(w.message) for w in caught]

    t_new, (dags, messages) = time_fn(average_all, structure.average_network, repeats=repeats)
    t_ref, expected = time_fn(average_all, reference_structure.average_network, repeats=repeats)
    if (dags, messages) != expected:
        sys.exit("error: average_network and its reference disagree on a graph or a warning")
    repairs = sum(message.startswith("dropped arc") for message in messages)
    print(f"{'cycle repair':<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
          f"   {REPAIR_TABLES} tables, {repairs} arcs dropped (identical)")


def bench_ingest(seed: int, repeats: int) -> ingest.ResponseTable:
    """Time the parse and the writer; the complete cohort of the export."""
    ref_repeats = max(1, repeats // 3)
    for label, quoted in (("parse (40k x 36)", False), ("parse, quoted (csv)", True)):
        raw = synthetic_export(EXPORT_ROWS, EXPORT_ITEMS, seed, quoted)
        t_new, table = time_fn(ingest.parse_responses, raw, repeats=repeats)
        t_ref, ref_table = time_fn(reference_ingest.parse_responses, raw, repeats=ref_repeats)
        same = (
            table == ref_table
            and reference_ingest.same_items(table, ref_table)
            and table.demographics.region == ref_table.demographics.region
        )
        if not same:
            sys.exit(f"error: parse_responses and its reference disagree on the parsed table ({label})")
        print(f"{label:<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
              f"   {len(raw) / 1e6:.1f} MB, {table.n} rows (identical)")
        if not quoted:
            t_full = t_new
            t_new, items_only = time_fn(ingest.parse_responses, raw, ingest.ITEMS_ONLY, repeats=repeats)
            if not reference_ingest.same_items(items_only, table):
                sys.exit("error: the items-only parse and the full parse disagree on the items, rows "
                         "or dropped rows")
            print(f"{'parse, items only':<22} {t_new * 1e3:>10.2f}ms {t_full * 1e3:>10.2f}ms "
                  f"{t_full / t_new:>8.1f}x   against the full parse above (same items and rows)")

    # both exports hold the same cells, so either parsed table serializes the same
    quoted = quoted_table(EXPORT_ROWS, EXPORT_ITEMS, seed)
    for label, written in (("serialize (40k x 36)", table), ("serialize, quoted", quoted)):
        t_new, text = time_fn(ingest.serialize_responses, written, repeats=repeats)
        t_ref, ref_text = time_fn(reference_ingest.serialize_responses, written, repeats=ref_repeats)
        if text != ref_text:
            sys.exit(f"error: serialize_responses and its reference write different bytes ({label})")
        print(f"{label:<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
              f"   {len(text.encode()) / 1e6:.1f} MB, {written.n} rows (byte-identical)")
    return ingest.filter_cohort(table, ingest.CohortFilter(require_complete=True))


def bench_fit(cohort: ingest.ResponseTable, repeats: int) -> None:
    dag, _ = fixtures.load_fixture_model()
    fit = reference_params.fit_with_warnings
    t_new, (fitted, messages) = time_fn(fit, params.fit_mle, dag, cohort, repeats=repeats)
    t_ref, (expected, ref_messages) = time_fn(fit, reference_params.fit_mle, dag, cohort,
                                              repeats=repeats)
    difference = reference_params.relative_difference(dag, cohort, fitted, expected, ref_messages)
    if messages != ref_messages or not difference <= reference_params.RELATIVE_BOUND:
        sys.exit(f"error: fit_mle and its reference disagree (relative difference {difference:.1e}, "
                 f"{len(messages ^ ref_messages)} warnings differ)")
    print(f"{'fit (40k cohort)':<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
          f"   {cohort.n} rows, {len(dag.arcs)} arcs, relative difference {difference:.1e}")


def bench_analysis(repeats: int) -> None:
    ref_repeats = max(1, repeats // 3)
    tables = [fixtures.load_factor_table(name) for name in fixtures.FACTOR_TABLES]

    def sweep(module):
        return [module.kmeans_best_seed(table, k=2, seed_range=(1, 4000)) for table in tables]

    def same_clusters(results, ref_results):
        return all(
            got.assignment == expected.assignment
            and got.centers.tobytes() == expected.centers.tobytes()
            and got.total_within_ss.hex() == expected.total_within_ss.hex()
            and got.best_seed == expected.best_seed
            for got, expected in zip(results, ref_results)
        )

    t_first, first = time_fn(sweep, compare, repeats=1)
    t_new, results = time_fn(sweep, compare, repeats=repeats)
    t_ref, ref_results = time_fn(sweep, reference_analysis, repeats=ref_repeats)
    if not (same_clusters(first, ref_results) and same_clusters(results, ref_results)):
        sys.exit("error: kmeans_best_seed and its reference disagree")
    # the sweep starts one Lloyd run per distinct start, and merges runs as they meet
    seeds = range(1, 4001)
    starts = sum(
        len(np.unique(_draws.choice_rows(seeds, len(table.items), 2), axis=0)) for table in tables
    )
    for label, t in (("k-means first call", t_first), ("k-means warm", t_new)):
        print(f"{label:<22} {t * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t:>8.1f}x"
              f"   4 tables x 4000 seeds, {starts} distinct starts (identical)")

    def per_seed(n):
        return np.array([np.random.default_rng(seed).choice(n, size=2, replace=False)
                         for seed in seeds])

    for n in (18, 36):
        t_new, rows = time_fn(_draws.choice_rows, seeds, n, 2, repeats=repeats)
        t_ref, ref_rows = time_fn(per_seed, n, repeats=ref_repeats)
        if not np.array_equal(rows, ref_rows):
            sys.exit(f"error: the block draw and default_rng disagree at n={n}")
        print(f"{f'k-means starts (n={n})':<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms "
              f"{t_ref / t_new:>8.1f}x   seeds 1:4000, k=2, against default_rng per seed (identical)")

    dag, params = fixtures.load_fixture_model()
    t_new, part = time_fn(analytics.communities_walktrap, dag, params, repeats=repeats)
    t_ref, ref_part = time_fn(reference_analysis.communities_walktrap, dag, params, repeats=repeats)
    if part.assignment != ref_part.assignment:
        sys.exit("error: communities_walktrap and its reference disagree")
    print(f"{'walktrap (fixture)':<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
          f"   steps 4, {len(part.clusters())} clusters; rescores only merged pairs (identical)")

    pairs = [(s, t) for s in dag.nodes for t in dag.nodes if s != t]

    def queries(module):
        return [
            (module.total_influence(dag, params, s, t), module.top_paths(dag, params, s, t, k=2))
            for s, t in pairs
        ]

    t_new, answers = time_fn(queries, influence, repeats=repeats)
    t_ref, ref_answers = time_fn(queries, reference_analysis, repeats=ref_repeats)
    def bits(x):  # the reference gives the int 0 for a target without parents
        return float(x).hex()

    same = all(
        type(total) is float
        and bits(total) == bits(ref_total)
        and top == ref_top
        and all(bits(p.product) == bits(q.product) for p, q in zip(top, ref_top))
        for (total, top), (ref_total, ref_top) in zip(answers, ref_answers)
    )
    if not same:
        sys.exit("error: the influence queries and their reference disagree")
    print(f"{'influence (1260 pairs)':<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
          f"   total_influence + best-first top_paths(k=2) (identical)")

    sizes = [(10, 26), (18, 18), (20, 20)]  # the polarity split and the largest square ones

    def u_counts(module):
        return [module._exact_u_counts(a, b) for a, b in sizes]

    t_new, counts = time_fn(u_counts, compare, repeats=repeats)
    t_ref, ref_counts = time_fn(u_counts, reference_analysis, repeats=ref_repeats)
    if counts != ref_counts:
        sys.exit("error: the Mann-Whitney exact counts and their reference disagree")
    print(f"{'Mann-Whitney counts':<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
          f"   {', '.join(f'{a}x{b}' for a, b in sizes)} (identical)")


def bench_startup(processes: int = 10) -> None:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("attachnet", "attachnet.cli"):
        code = f"import sys, {module}; print('scipy' in sys.modules)"
        times = []
        for _ in range(processes):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True)
            times.append(time.perf_counter() - start)
        scipy_loaded = "yes" if proc.stdout.strip() == "True" else "no"
        print(f"{'import ' + module:<22} {statistics.median(times) * 1e3:>10.2f}ms {'-':>12} {'-':>9}"
              f"   median of {processes} fresh processes; scipy loaded: {scipy_loaded}")


if __name__ == "__main__":
    main()
