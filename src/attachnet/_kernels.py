"""Numeric kernels for scoring and structure search.

Everything here is plain numpy/Python.  The scoring kernels (``local_score``
and the Cholesky solve under it) are scalar loops over a parent set.  The tabu
search keeps a dict of local scores and spends its time in those kernels and
in whole-matrix numpy operations, among them ``_reachability``, which also
finds the arcs on cycles when ``structure.average_network`` repairs a
consensus graph.  ``benchmarks/bench_kernels.py`` times the search against the
reference search kept under ``tests/``.
"""
from __future__ import annotations

from collections import deque

import numpy as np


def backend() -> str:
    """Name of the kernel backend, reported by the benchmarks: always ``numpy``."""
    return "numpy"


LOG_2PI = 1.8378770664093453

# Move kinds, ordered for lexicographic (from, to, kind) tie-breaking.
ADD, REMOVE, REVERSE = 0, 1, 2


def _chol_solve(a, b):
    """Solve the SPD system a @ x = b via Cholesky.

    Returns (x, ok); ok is False when the factorization breaks down.
    """
    p = a.shape[0]
    low = np.zeros((p, p))
    for i in range(p):
        for j in range(i + 1):
            s = a[i, j]
            for k in range(j):
                s -= low[i, k] * low[j, k]
            if i == j:
                if s <= 0.0:
                    return np.zeros(p), False
                low[i, i] = np.sqrt(s)
            else:
                low[i, j] = s / low[j, j]
    y = np.zeros(p)
    for i in range(p):
        s = b[i]
        for k in range(i):
            s -= low[i, k] * y[k]
        y[i] = s / low[i, i]
    x = np.zeros(p)
    for i in range(p - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, p):
            s -= low[k, i] * x[k]
        x[i] = s / low[i, i]
    return x, True


def residual_variance(cov, v, parent_idx, ridge):
    """ML residual variance of node v regressed on the given parents.

    Falls back to a single ridge retry on a singular parent submatrix;
    returns (variance, ok).
    """
    p = parent_idx.shape[0]
    if p == 0:
        return cov[v, v], True
    sub = np.empty((p, p))
    rhs = np.empty(p)
    for i in range(p):
        rhs[i] = cov[parent_idx[i], v]
        for j in range(p):
            sub[i, j] = cov[parent_idx[i], parent_idx[j]]
    beta, ok = _chol_solve(sub, rhs)
    if not ok:
        for i in range(p):
            sub[i, i] += ridge
        beta, ok = _chol_solve(sub, rhs)
        if not ok:
            return 0.0, False
    var = cov[v, v]
    for i in range(p):
        var -= rhs[i] * beta[i]
    return var, True


def local_score(cov, n, v, parent_idx, ridge, metric):
    """Decomposable Gaussian score term for one node.

    metric: 0 = penalized by (p + 2)/2 * ln n, 1 = penalized by (p + 2),
    2 = raw maximized log-likelihood.
    """
    var, ok = residual_variance(cov, v, parent_idx, ridge)
    if not ok:
        return -np.inf
    if var < 1e-12:
        var = 1e-12
    ll = -0.5 * n * (LOG_2PI + np.log(var) + 1.0)
    k = parent_idx.shape[0] + 2
    if metric == 0:
        return ll - 0.5 * k * np.log(n)
    if metric == 1:
        return ll - k
    return ll


def _reachability(a):
    """Transitive closure of a DAG's 0/1 float adjacency: True where a path exists."""
    reach = a
    while True:
        nxt = np.minimum(reach + reach @ reach, 1.0)
        if np.array_equal(nxt, reach):
            return reach > 0
        reach = nxt


def tabu_search_kernel(cov, n, adj, tabu_len, max_iter, max_parents, ridge, metric):
    """Score-based DAG search with add/remove/reverse moves.

    Hill-climbs the decomposable score; after reaching a local optimum it keeps
    taking the best admissible move for up to ``max_iter`` consecutive
    non-improving steps, with a tabu list holding the inverses of the last
    ``tabu_len`` moves (aspiration: a tabu move is allowed when it beats the
    best score seen).  Ties between moves break on the smallest
    (from, to, kind) triple: a move replaces the best so far only when its
    delta is larger by more than 1e-12.  ``max_parents < 0`` means no limit.
    Mutates ``adj``; returns the best adjacency seen and its score.

    The search is incremental.  ``d_add[u, v]`` and ``d_rm[u, v]`` cache the
    change of ``ls[v]`` when u joins or leaves v's parents, so a move only
    re-scores the columns of the one or two nodes whose parent set changed; a
    reversal u -> v is worth ``d_rm[u, v] + d_add[v, u]``.  Cycle checks read a
    transitive closure recomputed once per iteration, and local scores are
    memoised per (node, parent set) for the duration of the call.
    """
    m = cov.shape[0]
    memo = {}

    def score(v, parents):
        key = (v, parents)
        if key not in memo:
            memo[key] = local_score(cov, n, v, np.array(parents, dtype=np.int64), ridge, metric)
        return memo[key]

    parents = [tuple(np.flatnonzero(adj[:, v]).tolist()) for v in range(m)]
    ls = np.empty(m)
    for v in range(m):
        ls[v] = score(v, parents[v])
    # -inf marks a move that is never taken: v has no room for a parent, or u
    # is already a parent (add) or is not one (remove).
    d_add = np.full((m, m), -np.inf)
    d_rm = np.full((m, m), -np.inf)

    def refresh(v):
        pa = parents[v]
        d_add[:, v] = -np.inf
        d_rm[:, v] = -np.inf
        for u in pa:
            d_rm[u, v] = score(v, tuple(w for w in pa if w != u)) - ls[v]
        if max_parents < 0 or len(pa) < max_parents:
            for u in range(m):
                if u != v and u not in pa:
                    d_add[u, v] = score(v, tuple(sorted(pa + (u,)))) - ls[v]

    for v in range(m):
        refresh(v)

    current = ls.sum()
    best = current
    best_adj = adj.copy()
    tabu = deque(maxlen=max(tabu_len, 1))
    stall = 0
    while stall <= max_iter:
        a = adj.astype(np.float64)
        reach = _reachability(a)
        present = a > 0
        # add u -> v needs no arc between them and no path v -> u; reverse
        # u -> v needs no u -> v path other than the arc itself
        addable = ~present & ~present.T & ~reach.T
        np.fill_diagonal(addable, False)
        reversible = present & ~((a @ reach) > 0)
        deltas = np.full((m, m, 2), -np.inf)
        deltas[..., 0] = np.where(present, d_rm, np.where(addable, d_add, -np.inf))
        deltas[..., 1] = np.where(reversible, d_rm + d_add.T, -np.inf)
        deltas = deltas.reshape(-1)  # (from, to, kind) scan order
        deltas[np.isnan(deltas)] = -np.inf
        for kind, u, v in tabu:
            slot = (u * m + v) * 2 + (kind == REVERSE)
            if kind != REVERSE and (kind == REMOVE) != present[u, v]:
                continue  # slot 0 holds the other kind of move
            if current + deltas[slot] <= best + 1e-9:
                deltas[slot] = -np.inf
        # A move can only replace the best so far if it beats every earlier
        # delta, so scanning the running-maximum records in order picks the
        # same move as scanning every candidate.
        before = np.concatenate(([-np.inf], np.maximum.accumulate(deltas)[:-1]))
        best_delta = -np.inf
        pick = -1
        for i in np.flatnonzero(deltas > before):
            if deltas[i] > best_delta + 1e-12:
                best_delta = deltas[i]
                pick = i
        if pick < 0:
            break  # every move tabu or inadmissible
        cell, slot = divmod(int(pick), 2)
        u, v = divmod(cell, m)
        if slot == 1:
            inverse = (REVERSE, v, u)
            adj[u, v] = 0
            adj[v, u] = 1
            changed = (v, u)
        elif present[u, v]:
            inverse = (ADD, u, v)
            adj[u, v] = 0
            changed = (v,)
        else:
            inverse = (REMOVE, u, v)
            adj[u, v] = 1
            changed = (v,)
        for w in changed:
            parents[w] = tuple(np.flatnonzero(adj[:, w]).tolist())
            ls[w] = score(w, parents[w])
            refresh(w)
        current = ls.sum()  # re-sum instead of accumulating deltas
        tabu.append(inverse)
        if current > best + 1e-9:
            best = current
            best_adj[:, :] = adj
            stall = 0
        else:
            stall += 1
    return best_adj, best
