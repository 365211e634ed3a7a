"""Numeric kernels for scoring and structure search.

The scoring kernels (``local_score`` and the Cholesky solve under it) are
scalar loops over a parent set that read the covariance as nested lists: a
Python float rounds as a float64 does, without the cost of a numpy scalar.
The tabu search spends its time in them and in whole-matrix numpy operations
on the adjacency and its closure, ``_reachability``, which also finds the arcs
on cycles for ``structure.average_network``.  ``benchmarks/bench_kernels.py``
times both against the references kept under ``tests/``.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np


def backend() -> str:
    """Name of the kernel backend, reported by the benchmarks: always ``numpy``."""
    return "numpy"


LOG_2PI = 1.8378770664093453

# Move kinds, ordered for lexicographic (from, to, kind) tie-breaking.
ADD, REMOVE, REVERSE = 0, 1, 2


def _chol_solve(a, b):
    """Solve the SPD system a @ x = b (a list of rows) via Cholesky, with the
    forward substitution done row by row.  Returns (x, ok); ok is False when
    the factorization breaks down."""
    p = len(a)
    low = []
    y = []
    for i in range(p):
        row = []
        for j in range(i):
            s = a[i][j]
            other = low[j]
            for k in range(j):
                s -= row[k] * other[k]
            row.append(s / other[j])
        s = a[i][i]
        for k in range(i):
            s -= row[k] * row[k]
        if s <= 0.0:
            return [0.0] * p, False
        row.append(math.sqrt(s))
        low.append(row)
        s = b[i]
        for k in range(i):
            s -= row[k] * y[k]
        y.append(s / row[i])
    x = [0.0] * p
    for i in range(p - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, p):
            s -= low[k][i] * x[k]
        x[i] = s / low[i][i]
    return x, True


def residual_variance(c, v, parents, ridge):
    """ML residual variance of node v regressed on the given parents, from the
    nested-list covariance ``c``, with a single ridge retry on a singular
    parent submatrix; returns (variance, ok)."""
    rhs = [c[u][v] for u in parents]
    sub = [[c[u][w] for w in parents] for u in parents]
    beta, ok = _chol_solve(sub, rhs)
    if not ok:
        for i in range(len(parents)):
            sub[i][i] += ridge
        beta, ok = _chol_solve(sub, rhs)
        if not ok:
            return 0.0, False
    var = c[v][v]
    for r, b in zip(rhs, beta):
        var -= r * b
    return var, True


def local_score(c, n, v, parents, ridge, metric):
    """Decomposable Gaussian score term for one node.

    ``c`` is the covariance as nested lists and ``parents`` a sequence of
    column indices.  metric: 0 = penalized by (p + 2)/2 * ln n, 1 = penalized
    by (p + 2), 2 = raw maximized log-likelihood.
    """
    var, ok = residual_variance(c, v, parents, ridge)
    if not ok:
        return -np.inf
    if var < 1e-12:
        var = 1e-12
    # np.log, not math.log: the two differ in the last bit on some inputs
    ll = -0.5 * n * (LOG_2PI + np.log(var) + 1.0)
    k = len(parents) + 2
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


def _add_arc_reach(reach, u, v):
    """Update the closure ``reach`` in place for a new arc u -> v that closes
    no cycle: u and its ancestors now reach v and its descendants."""
    src = reach[:, u].copy()
    src[u] = True
    dst = reach[v].copy()
    dst[v] = True
    reach |= src[:, None] & dst


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
    transitive closure that an addition extends in place and a removal or
    reversal recomputes; local scores are memoised per (node, parent set).
    """
    m = cov.shape[0]
    c = cov.tolist()
    memo = {}

    def score(v, parents):
        key = (v, parents)
        if key not in memo:
            memo[key] = local_score(c, n, v, parents, ridge, metric)
        return memo[key]

    parents = [tuple(np.flatnonzero(adj[:, v]).tolist()) for v in range(m)]
    ls = np.array([score(v, parents[v]) for v in range(m)])
    # -inf marks a move that is never taken: v has no room for a parent, or u
    # is already a parent (add) or is not one (remove).
    d_add = np.full((m, m), -np.inf)
    d_rm = np.full((m, m), -np.inf)

    def refresh(v):
        pa = parents[v]
        base = ls[v]
        col = [-np.inf] * m
        for u in pa:
            col[u] = score(v, tuple(w for w in pa if w != u)) - base
        d_rm[:, v] = col
        col = [-np.inf] * m
        if max_parents < 0 or len(pa) < max_parents:
            for u in range(m):
                if u != v and u not in pa:
                    col[u] = score(v, tuple(sorted(pa + (u,)))) - base
        d_add[:, v] = col

    for v in range(m):
        refresh(v)

    current = ls.sum()
    best = current
    best_adj = adj.copy()
    tabu = deque(maxlen=max(tabu_len, 1))
    stall = 0
    present = adj != 0
    reach = _reachability(present.astype(np.float64))
    while stall <= max_iter:
        # add u -> v needs no arc between them and no path v -> u; reverse
        # u -> v needs no u -> v path other than the arc itself
        addable = ~(present | present.T | reach.T)
        reversible = present & ~(np.matmul(present, reach, dtype=np.float64) > 0)
        deltas = np.empty((m, m, 2))
        # d_rm is -inf off the arcs and d_add on the diagonal, so cells with
        # neither an arc nor an admissible addition get -inf
        deltas[..., 0] = np.where(addable, d_add, d_rm)
        deltas[..., 1] = np.where(reversible, d_rm + d_add.T, -np.inf)
        deltas = deltas.reshape(-1)  # (from, to, kind) scan order
        deltas[np.isnan(deltas)] = -np.inf
        for kind, u, v in tabu:
            slot = (u * m + v) * 2 + (kind == REVERSE)
            if kind != REVERSE and (kind == REMOVE) != bool(present[u, v]):
                continue  # slot 0 holds the other kind of move
            if current + deltas[slot] <= best + 1e-9:
                deltas[slot] = -np.inf
        # A move can only replace the best so far if it beats every earlier
        # delta, so scanning the running-maximum records in order picks the
        # same move as scanning every candidate.
        before = np.concatenate(([-np.inf], np.maximum.accumulate(deltas)[:-1]))
        best_delta = -np.inf
        pick = -1
        records = np.flatnonzero(deltas > before)
        for i, delta in zip(records.tolist(), deltas[records].tolist()):
            if delta > best_delta + 1e-12:
                best_delta = delta
                pick = i
        if pick < 0:
            break  # every move tabu or inadmissible
        cell, slot = divmod(pick, 2)
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
        present = adj != 0
        if inverse[0] == REMOVE:
            _add_arc_reach(reach, u, v)
        else:
            reach = _reachability(present.astype(np.float64))
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
