"""Oracle tests: the incremental search and the matmul covariance against the
reference kernels in ``reference_kernels.py``.

The search must return the identical adjacency and the identical score (``==``,
not approximately) as the per-candidate reference, on clean data and on data
whose covariance is singular, so that the ridge retry and the ``-inf`` score of
a failed factorization both take part in the search.
"""
import itertools

import numpy as np
import pytest

from attachnet import _kernels
from attachnet.score import METRICS, DEFAULT_RIDGE, stats_from_matrix
from attachnet.structure import _random_dag_adjacency
from reference_kernels import covariance_kernel, tabu_search_kernel

DEGENERACIES = ("none", "duplicated", "constant", "collinear", "scaled duplicate")


def simulated_rows(rng, m, n, degeneracy):
    """Linear-Gaussian rows over m columns, optionally made degenerate."""
    order = rng.permutation(m)
    rows = np.zeros((n, m))
    for pos, j in enumerate(order):
        col = rng.normal(size=n)
        for prev in range(max(0, pos - 3), pos):
            if rng.random() < 0.5:
                col += rng.uniform(-1, 1) * rows[:, order[prev]]
        rows[:, j] = col
    if degeneracy == "duplicated":
        rows[:, 1] = rows[:, 0]
    elif degeneracy == "constant":
        rows[:, 0] = 3.0
    elif degeneracy == "collinear":
        rows[:, 2] = rows[:, 0] - 2.0 * rows[:, 1]
    elif degeneracy == "scaled duplicate":
        rows[:, 0] *= 1e6
        rows[:, 1] = rows[:, 0]
    return rows


CASES = [
    pytest.param(seed, m, max_parents, metric, start, id=f"{seed}-m{m}-p{max_parents}-{metric}-{start}")
    for seed, (m, max_parents, metric, start) in enumerate(
        itertools.product((3, 5, 8, 12), (None, 1, 2), METRICS, ("empty", "random"))
    )
]


@pytest.mark.parametrize("seed, m, max_parents, metric, start", CASES)
def test_search_matches_reference_exactly(seed, m, max_parents, metric, start):
    rng = np.random.default_rng(seed)
    degeneracy = DEGENERACIES[seed % len(DEGENERACIES)]
    rows = simulated_rows(rng, m, int(rng.integers(30, 400)), degeneracy)
    _, cov = covariance_kernel(rows)
    n = float(rows.shape[0])
    if start == "empty":
        init = np.zeros((m, m), dtype=np.int8)
    else:
        init = _random_dag_adjacency(m, rng)
    limit = -1 if max_parents is None else max_parents
    args = (10, 100, limit, DEFAULT_RIDGE, METRICS[metric])
    ref_adj, ref_score = tabu_search_kernel(cov, n, init.copy(), *args)
    adj, score = _kernels.tabu_search_kernel(cov, n, init.copy(), *args)
    assert np.array_equal(adj, ref_adj)
    assert score == ref_score


def test_degenerate_data_reaches_ridge_and_failed_factorization():
    rng = np.random.default_rng(0)
    rows = simulated_rows(rng, 5, 100, "constant")
    _, cov = covariance_kernel(rows)
    # the constant column is a singular 1x1 parent block: only the ridge retry solves it
    assert not _kernels._chol_solve(cov[:1, :1], cov[:1, 2])[1]
    assert np.isfinite(_kernels.local_score(cov, 100.0, 2, np.array([0]), DEFAULT_RIDGE, 0))
    rows = simulated_rows(rng, 5, 100, "scaled duplicate")
    _, cov = covariance_kernel(rows)
    assert _kernels.local_score(cov, 100.0, 2, np.array([0, 1]), DEFAULT_RIDGE, 0) == -np.inf


@pytest.mark.parametrize("degeneracy", DEGENERACIES)
def test_matmul_covariance_matches_loop(degeneracy):
    rng = np.random.default_rng(7)
    for m, n in ((3, 2), (5, 40), (12, 400), (36, 1000)):
        rows = simulated_rows(rng, m, n, degeneracy) + rng.integers(1, 6, size=m)
        ref_mean, ref_cov = covariance_kernel(rows)
        stats = stats_from_matrix(rows, tuple(f"v{i}" for i in range(m)))
        scale = max(1.0, np.abs(ref_cov).max())
        assert np.abs(stats.mean - ref_mean).max() <= 1e-12 * max(1.0, np.abs(ref_mean).max())
        assert np.abs(stats.cov - ref_cov).max() <= 1e-12 * scale
        assert np.array_equal(stats.cov, stats.cov.T)
