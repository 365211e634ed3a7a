"""The search against the exact score optimum (``reference_exact.py``).

These are oracles of truth rather than of older code: the dynamic programme
must equal the best of every DAG on four nodes, and no search may ever
report a score above the optimum, which a wrong cached score that is too
high would do.  The search can stop short of the optimum; that is a property
of tabu search, not a failure.
"""
import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_kernels
from attachnet import _kernels
from attachnet._kernels import DEFAULT_RIDGE, CachedScorer
from attachnet.structure import _random_dag_adjacency
from reference_exact import exact_optimum
from reference_kernels import covariance_kernel
from test_search_oracle import DEGENERACIES, METRIC_CODES, simulated_rows


def _all_dags(m):
    """Every DAG on m nodes as a 0/1 adjacency: each pair is absent or
    oriented one way or the other, less the orientations with a cycle."""
    pairs = list(itertools.combinations(range(m), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        adj = np.zeros((m, m))
        for (u, v), state in zip(pairs, states):
            if state:
                adj[(u, v) if state == 1 else (v, u)] = 1.0
        if not _kernels._reachability(adj).diagonal().any():
            yield adj


def _graph_score(cov, n, parents, code):
    """The frozen reference's score of a DAG, given as each node's parents."""
    return sum(
        reference_kernels.local_score(cov, n, v, np.array(pa, dtype=np.int64), DEFAULT_RIDGE, code)
        for v, pa in enumerate(parents)
    )


def test_exact_optimum_is_the_best_of_every_four_node_dag():
    rng = np.random.default_rng(4)
    rows = simulated_rows(rng, 4, 120, "none")
    _, cov = covariance_kernel(rows)
    dags = list(_all_dags(4))
    assert len(dags) == 543
    for code in METRIC_CODES.values():
        scores = [
            _graph_score(cov, 120.0, [tuple(np.flatnonzero(adj[:, v]).tolist()) for v in range(4)], code)
            for adj in dags
        ]
        score, parents = exact_optimum(cov, 120.0, DEFAULT_RIDGE, code)
        # the log-likelihood ties every complete DAG up to rounding, so the
        # programme's DAG may sum its terms a last bit below the best one
        assert max(scores) - 1e-9 <= _graph_score(cov, 120.0, parents, code) <= max(scores)
        assert abs(score - max(scores)) <= 1e-9


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 8),
    degeneracy=st.sampled_from(DEGENERACIES),
    metric=st.sampled_from(list(METRIC_CODES)),
    max_parents=st.sampled_from([None, 1, 2]),
    start=st.sampled_from(["empty", "random"]),
)
def test_search_never_beats_the_exact_optimum(seed, m, degeneracy, metric, max_parents, start):
    rng = np.random.default_rng(seed)
    # "collinear" rewrites column 2, which a 2-node problem lacks
    rows = simulated_rows(rng, m, int(rng.integers(30, 400)), degeneracy if m > 2 else "none")
    _, cov = covariance_kernel(rows)
    n = float(rows.shape[0])
    if start == "empty":
        init = np.zeros((m, m), dtype=np.int8)
    else:
        init = _random_dag_adjacency(m, rng, max_parents)
    optimum, parents = exact_optimum(cov, n, DEFAULT_RIDGE, METRIC_CODES[metric], max_parents)
    assert max_parents is None or max(map(len, parents)) <= max_parents
    _, score = _kernels.tabu_search_kernel(CachedScorer(cov, n, metric), init, 10, 100, max_parents)
    assert score <= optimum + 1e-9
