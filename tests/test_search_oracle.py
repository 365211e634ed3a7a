"""Oracle tests: the list-based local score, the incremental search, its
path-count upkeep and the matmul covariance against the reference kernels
in ``reference_kernels.py`` and a depth-first path count.

The local score and the search must return identical values (``==``, not
approximately) and the identical adjacency as the ndarray references, on clean
data and on data whose covariance is singular, so that the ridge retry and the
``-inf`` score of a failed factorization both take part.  ``CachedScorer`` is
held to the reference both fresh, one parent set each, and shared across
every parent set in a shuffled order, so that its factor rows come from
prefixes factored for other sets.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels
from attachnet import _kernels
from attachnet._kernels import DEFAULT_RIDGE, PENALTIES, CachedScorer
from attachnet.score import stats_from_matrix
from attachnet.structure import _random_dag_adjacency
from reference_kernels import covariance_kernel, tabu_search_kernel

DEGENERACIES = ("none", "duplicated", "constant", "collinear", "scaled duplicate")

# The frozen reference's integer code for each metric name.
METRIC_CODES = {"bic": 0, "aic": 1, "loglik": 2}


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
        itertools.product((3, 5, 8, 12), (None, 1, 2), PENALTIES, ("empty", "random"))
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
    ref_adj, ref_score = tabu_search_kernel(
        cov, n, init.copy(), 10, 100, limit, DEFAULT_RIDGE, METRIC_CODES[metric]
    )
    scorer = CachedScorer(cov, n, metric)
    adj, score = _kernels.tabu_search_kernel(scorer, init.copy(), 10, 100, max_parents)
    assert np.array_equal(adj, ref_adj)
    assert score == ref_score


@pytest.mark.parametrize("seed", range(4))
def test_shared_scorer_matches_fresh_scorers(seed):
    """One scorer serving searches with different parent limits, from the
    empty graph and from random DAGs, gives each the graph and score a fresh
    scorer gives: its delta columns are kept per parent limit too."""
    rng = np.random.default_rng(200 + seed)
    m = 8
    rows = simulated_rows(rng, m, 200, DEGENERACIES[seed])
    _, cov = covariance_kernel(rows)
    shared = CachedScorer(cov, 200.0)
    for max_parents in (None, 1, 2, None, 1):
        init = np.zeros((m, m), dtype=np.int8)
        if rng.random() < 0.5:
            init = _random_dag_adjacency(m, rng, max_parents)
        adj, score = _kernels.tabu_search_kernel(shared, init.copy(), 10, 100, max_parents)
        fresh = _kernels.tabu_search_kernel(CachedScorer(cov, 200.0), init.copy(), 10, 100, max_parents)
        assert np.array_equal(adj, fresh[0]) and score == fresh[1]


@pytest.mark.parametrize("degeneracy", DEGENERACIES)
def test_local_score_matches_frozen_reference(degeneracy):
    """Every node, every parent set of up to 4 and every metric on 10 columns,
    each scored by a fresh ``CachedScorer``, so that nothing is shared."""
    rng = np.random.default_rng(DEGENERACIES.index(degeneracy))
    m = 10
    rows = simulated_rows(rng, m, int(rng.integers(30, 400)), degeneracy)
    _, cov = covariance_kernel(rows)
    n = float(rows.shape[0])
    ridged = failed = 0
    for v in range(m):
        others = [u for u in range(m) if u != v]
        for parents in itertools.chain.from_iterable(
            itertools.combinations(others, size) for size in range(5)
        ):
            idx = np.array(parents, dtype=np.int64)
            if parents and not reference_kernels._chol_solve(cov[np.ix_(idx, idx)], cov[idx, v])[1]:
                ridged += 1
            for metric, code in METRIC_CODES.items():
                got = CachedScorer(cov, n, metric).score(v, parents)
                want = reference_kernels.local_score(cov, n, v, idx, DEFAULT_RIDGE, code)
                assert got == want or (np.isnan(got) and np.isnan(want)), (v, parents, metric)
                failed += want == -np.inf
    if degeneracy == "constant":
        assert ridged > 0
    if degeneracy == "scaled duplicate":
        assert failed > 0


@pytest.mark.parametrize("degeneracy", DEGENERACIES)
def test_pivot_variance_matches_the_solve_route(degeneracy):
    """The last pivot, c_vv less the squared forward entries, and the old
    route, a back substitution and then c_vv less b^T beta, on every node and
    every parent set of up to 4 on 10 columns: both factor or neither does,
    their variances differ by at most 4 ulps of c_vv, and the 1e-12 floor
    never falls between them."""
    rng = np.random.default_rng(DEGENERACIES.index(degeneracy))
    m = 10
    rows = simulated_rows(rng, m, int(rng.integers(30, 400)), degeneracy)
    _, cov = covariance_kernel(rows)
    bound = 4 * np.finfo(float).eps
    for v in range(m):
        for parents in _parent_sets(m, v, 4):
            idx = np.array(parents, dtype=np.int64)
            pivot, ok = reference_kernels.residual_variance(cov, v, idx, DEFAULT_RIDGE)
            solve, solve_ok = reference_kernels.residual_variance_solve(cov, v, idx, DEFAULT_RIDGE)
            assert ok == solve_ok, (v, parents)
            if ok:
                assert abs(pivot - solve) <= bound * cov[v, v], (v, parents)
                assert (pivot < 1e-12) == (solve < 1e-12), (v, parents)


def _admissible_moves(adj, reach):
    """Every add, remove and reverse move that keeps ``adj`` acyclic."""
    m = adj.shape[0]
    present = adj != 0
    moves = []
    for u, v in itertools.permutations(range(m), 2):
        if present[u, v]:
            moves.append((_kernels.REMOVE, u, v))
            if not (present[u] & reach[:, v]).any():  # no other u -> v path
                moves.append((_kernels.REVERSE, u, v))
        elif not present[v, u] and not reach[v, u]:
            moves.append((_kernels.ADD, u, v))
    return moves


def _dfs_path_counts(adj):
    """``counts[x][y]``, the directed paths from x to y, by depth-first search:
    each is an arc x -> c followed by nothing (c is y) or by a path c -> y."""
    m = len(adj)
    children = [np.flatnonzero(adj[x]).tolist() for x in range(m)]
    memo = {}

    def paths_from(x):
        if x not in memo:
            row = [0] * m
            for c in children[x]:
                row[c] += 1
                for y, k in enumerate(paths_from(c)):
                    row[y] += k
            memo[x] = row
        return memo[x]

    return [paths_from(x) for x in range(m)]


def _apply_move(adj, paths, kind, u, v):
    """Make the move on ``adj`` and update ``paths`` as the search does."""
    adj[u, v] = kind == _kernels.ADD
    if kind == _kernels.REVERSE:
        adj[v, u] = 1
    _kernels._count_move(paths, kind, u, v)


def _check_path_counts(adj, paths):
    """The counts are the DFS counts; nonzero where the closure is true; one
    on exactly the arcs that the old closure test, ``present @ reach``, found
    reversible."""
    present = adj != 0
    reach = _kernels._reachability(adj.astype(np.float64))
    assert paths.tolist() == _dfs_path_counts(adj)
    assert np.array_equal(paths != 0, reach)
    closure_reversible = present & ~(np.matmul(present, reach, dtype=np.float64) > 0)
    assert np.array_equal(present & (paths == 1), closure_reversible)
    return reach


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data(), m=st.integers(2, 12), start=st.sampled_from(["empty", "random"]))
def test_incremental_reachability_matches_closure(data, m, start):
    """The search's path-count upkeep after every random admissible move: one
    outer product per arc added or taken away, starting from the counts of
    the start graph added arc by arc."""
    if start == "empty":
        adj = np.zeros((m, m), dtype=np.int8)
    else:
        adj = _random_dag_adjacency(m, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    paths = _kernels._path_counts(adj != 0)
    assert paths.dtype == np.int64
    reach = _check_path_counts(adj, paths)
    for _ in range(data.draw(st.integers(1, 30))):
        kind, u, v = data.draw(st.sampled_from(_admissible_moves(adj, reach)))
        _apply_move(adj, paths, kind, u, v)
        reach = _check_path_counts(adj, paths)


def test_path_counts_past_int64_use_python_ints():
    """On 70 nodes the counts are Python ints: the complete DAG has 2**68
    paths from its first node to its last, more than int64 holds."""
    m = 70
    adj = np.triu(np.ones((m, m), dtype=np.int8), 1)
    paths = _kernels._path_counts(adj != 0)
    assert paths.dtype == object
    assert paths[0, m - 1] == 2**68 and type(paths[0, m - 1]) is int
    reach = _check_path_counts(adj, paths)
    rng = np.random.default_rng(70)
    for _ in range(12):
        moves = _admissible_moves(adj, reach)
        kind, u, v = moves[rng.integers(len(moves))]
        _apply_move(adj, paths, kind, u, v)
        reach = _check_path_counts(adj, paths)
    assert paths.max() > 2**63  # still past int64 after the moves


def test_degenerate_data_reaches_ridge_and_failed_factorization():
    """The ridge retry walks its own trie of ridged factor rows, which later
    sets with the failing prefix share, and scores as the reference does."""
    rng = np.random.default_rng(0)
    rows = simulated_rows(rng, 5, 100, "constant")
    _, cov = covariance_kernel(rows)
    # the constant column is a singular 1x1 parent block: only the ridge retry solves it
    assert not reference_kernels._chol_solve(cov[:1, :1], cov[:1, 2])[1]
    scorer = CachedScorer(cov, 100.0)
    assert np.isfinite(scorer.score(2, (0,)))
    assert scorer.trie[0][0] is None  # the factor row failed; the ridge retry scored it
    row = scorer.ridged[0][0]
    assert row is not None and _trie_nodes(scorer.ridged) == 1  # the ridged row of (0,)
    # further sets that start with the failing prefix reuse its ridged row
    for v, parents in ((4, (0,)), (1, (0,)), (2, (0, 3))):
        assert np.isfinite(scorer.score(v, parents))
        assert scorer.ridged[0][0] is row
    assert _trie_nodes(scorer.ridged) == 2  # only (0, 3) added a row
    for (v, parents), got in scorer.memo.items():
        idx = np.array(parents, dtype=np.int64)
        assert got == reference_kernels.local_score(cov, 100.0, v, idx, DEFAULT_RIDGE, 0)
    rows = simulated_rows(rng, 5, 100, "scaled duplicate")
    _, cov = covariance_kernel(rows)
    assert CachedScorer(cov, 100.0).score(2, (0, 1)) == -np.inf


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


def _parent_sets(m, v, largest):
    others = [u for u in range(m) if u != v]
    return itertools.chain.from_iterable(
        itertools.combinations(others, size) for size in range(largest + 1)
    )


def _check_cached_scorer(cov, n, m, largest, order_seed):
    """Every (node, parent set) of up to ``largest`` parents, in a shuffled
    order, scored by one ``CachedScorer`` per metric and by the frozen
    reference; the two must be identical.  Returns the scorers."""
    sets = [(v, parents) for v in range(m) for parents in _parent_sets(m, v, largest)]
    np.random.default_rng(order_seed).shuffle(sets)
    scorers = []
    for metric, code in METRIC_CODES.items():
        scorer = CachedScorer(cov, n, metric)
        for v, parents in sets:
            got = scorer.score(v, parents)
            idx = np.array(parents, dtype=np.int64)
            want = reference_kernels.local_score(cov, n, v, idx, DEFAULT_RIDGE, code)
            assert got == want or (np.isnan(got) and np.isnan(want)), (v, parents, metric)
        scorers.append(scorer)
    return scorers


def _trie_nodes(level):
    return sum(1 + _trie_nodes(children) for _, _, children in level.values())


def _failed_prefixes(level, prefix=()):
    for p, (row, _, children) in level.items():
        if row is None:
            yield prefix + (p,)
        yield from _failed_prefixes(children, prefix + (p,))


@pytest.mark.parametrize("degeneracy", DEGENERACIES)
def test_cached_scorer_matches_frozen_reference(degeneracy):
    """Shared factor rows: most prefixes of a set were factored while scoring
    other sets, often of other nodes, before the set itself comes up."""
    rng = np.random.default_rng(100 + DEGENERACIES.index(degeneracy))
    m = 10
    rows = simulated_rows(rng, m, int(rng.integers(30, 400)), degeneracy)
    _, cov = covariance_kernel(rows)
    scorer = _check_cached_scorer(cov, float(rows.shape[0]), m, 4, order_seed=1)[0]
    if not any(_failed_prefixes(scorer.trie)):
        # one factor row per sorted tuple of 1 to 4 columns, shared by every node
        assert _trie_nodes(scorer.trie) == sum(math.comb(m, k) for k in range(1, 5))


def test_cached_scorer_reads_each_covariance_operand_as_the_reference():
    """c[u][v] and c[v][u] differ by one ulp, so reading the transposed
    entry anywhere (factor rows, right-hand side, variance) changes bits."""
    rng = np.random.default_rng(11)
    m = 7
    rows = simulated_rows(rng, m, 200, "none")
    _, cov = covariance_kernel(rows)
    upper = np.triu_indices(m, 1)
    cov[upper] = np.nextafter(cov[upper], np.inf)
    assert (cov != cov.T).sum() == m * (m - 1)
    _check_cached_scorer(cov, 200.0, m, 4, order_seed=2)


@pytest.mark.parametrize("degeneracy", ("constant", "scaled duplicate"))
def test_cached_scorer_failing_prefix_takes_the_ridge_path(degeneracy):
    """A prefix that does not factorize is cached as a failure; every set
    that starts with it takes the ridge retry, -inf score included, with the
    ridge on the whole parent block and its rows shared in the ridged trie."""
    rng = np.random.default_rng(5)
    m = 6
    rows = simulated_rows(rng, m, 100, degeneracy)
    _, cov = covariance_kernel(rows)
    scorer = _check_cached_scorer(cov, 100.0, m, 3, order_seed=3)[0]
    failed = list(_failed_prefixes(scorer.trie))
    if degeneracy == "constant":
        # column 0 is constant, so its 1x1 block is singular; the ridge solves
        # every set that starts with it
        assert failed == [(0,)]
        assert all(np.isfinite(s) for (v, parents), s in scorer.memo.items() if parents[:1] == (0,))
    else:
        # columns 0 and 1 are proportional, and not even the ridge solves them
        assert (0, 1) in failed
        assert scorer.score(2, (0, 1)) == -np.inf
