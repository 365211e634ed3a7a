#!/usr/bin/env python3
"""Benchmark the tabu search and the covariance against their reference kernels.

The references in ``tests/reference_kernels.py`` are the per-candidate search
(a depth-first cycle check and a fresh local score for every candidate move)
and the two-pass covariance loop.  Both sides run on the active kernel backend
(``attachnet._kernels.backend()``), and the script fails unless the searches
return the identical learned graph and score.  The structure search dominates
bootstrap runtime, so its figure decides whether a 3000-replicate run takes
minutes or days.

    PYTHONPATH=src python benchmarks/bench_kernels.py --nodes 36 --rows 1000 --repeats 3
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

from attachnet import _kernels
from attachnet.score import DEFAULT_RIDGE, stats_from_matrix

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_kernels import covariance_kernel, tabu_search_kernel  # noqa: E402


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

    # full tabu search from the empty graph, both sides on the same covariance
    def run(search):
        adj = np.zeros((args.nodes, args.nodes), dtype=np.int8)
        return search(stats.cov, float(stats.n), adj, 10, 100, -1, DEFAULT_RIDGE, 0)

    run(_kernels.tabu_search_kernel)  # JIT compilation of the scoring kernels
    t_new, (adj, score) = time_fn(lambda: run(_kernels.tabu_search_kernel), repeats=args.repeats)
    if args.skip_reference_search:
        print(f"{'tabu search':<22} {t_new * 1e3:>10.2f}ms {'skipped':>12}")
        return
    t_ref, (ref_adj, ref_score) = time_fn(
        lambda: run(tabu_search_kernel), repeats=max(1, args.repeats // 3)
    )
    if not (np.array_equal(adj, ref_adj) and score == ref_score):
        sys.exit("error: the search and its reference disagree on the learned graph or score")
    print(f"{'tabu search':<22} {t_new * 1e3:>10.2f}ms {t_ref * 1e3:>10.2f}ms {t_ref / t_new:>8.1f}x"
          f"   {int(adj.sum())} arcs, score {score:.6f} (identical)")


if __name__ == "__main__":
    main()
