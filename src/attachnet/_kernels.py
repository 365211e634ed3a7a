"""Numeric kernels for scoring and structure search.

The scoring kernels (``local_score`` and the Cholesky solve under it) are
scalar loops over a parent set that read the covariance as nested lists: a
Python float rounds as a float64 does, without the cost of a numpy scalar.
The tabu search spends its time in them and in ``_pick_move``, which chooses
each move from one cached matrix of score deltas with whole-matrix numpy
operations on the adjacency and its closure, ``_reachability``; the closure
also finds the arcs on cycles for ``structure.average_network``.
``benchmarks/bench_kernels.py`` times both against the references kept under
``tests/``.
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


def _pick_move(d, present, reach, tabu, current, best):
    """The search's next move as ``(kind, u, v)``, or None when every move is
    tabu or inadmissible.

    ``d[u, v]`` is the change of v's local score when u joins v's parents, or
    leaves them if it is one; a reversal of u -> v is worth
    ``d[u, v] + d[v, u]``.  A tabu move is allowed only when it would beat the
    best score seen (aspiration).  Ties break on the smallest (from, to, kind)
    triple: a move replaces the best so far only when its delta is larger by
    more than 1e-12.
    """
    m = len(d)
    deltas = np.empty((m, m, 2))
    # add u -> v needs no path v -> u, which also rules out an arc v -> u; an
    # arc u -> v never has one, so its removal passes the same test.  Reverse
    # u -> v needs no u -> v path other than the arc itself.
    deltas[..., 0] = np.where(reach.T, -np.inf, d)
    reversible = present & ~(np.matmul(present, reach, dtype=np.float64) > 0)
    deltas[..., 1] = np.where(reversible, d + d.T, -np.inf)
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
        return None
    cell, slot = divmod(pick, 2)
    u, v = divmod(cell, m)
    kind = REVERSE if slot else REMOVE if present[u, v] else ADD
    return kind, u, v


def tabu_search_kernel(cov, n, adj, tabu_len, max_iter, max_parents, ridge, metric):
    """Score-based DAG search with add/remove/reverse moves.

    Hill-climbs the decomposable score from the DAG ``adj``; after reaching a
    local optimum it keeps taking the best admissible move (``_pick_move``) for
    up to ``max_iter`` consecutive non-improving steps, with a tabu list
    holding the inverses of the last ``tabu_len`` moves.  ``max_parents < 0``
    means no limit.  Returns the best adjacency seen, with ``adj``'s dtype,
    and its score; ``adj`` itself is left as it was.

    The search is incremental.  ``d[u, v]`` caches the change of ``ls[v]``
    when u joins or leaves v's parents, so a move only re-scores the column of
    the one or two nodes whose parent set changed.  Cycle checks read a
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

    present = adj != 0
    parents = [tuple(np.flatnonzero(present[:, v]).tolist()) for v in range(m)]
    ls = np.array([score(v, parents[v]) for v in range(m)])
    # -inf marks a move that is never taken: u is v, or u is not a parent
    # and v has no room for one.
    d = np.full((m, m), -np.inf)

    def refresh(v):
        pa = parents[v]
        base = ls[v]
        room = max_parents < 0 or len(pa) < max_parents
        col = [-np.inf] * m
        for u in range(m):
            if u in pa:
                col[u] = score(v, tuple(w for w in pa if w != u)) - base
            elif room and u != v:
                col[u] = score(v, tuple(sorted(pa + (u,)))) - base
        d[:, v] = col

    for v in range(m):
        refresh(v)

    current = ls.sum()
    best = current
    best_adj = adj.copy()
    tabu = deque(maxlen=tabu_len)
    stall = 0
    reach = _reachability(present.astype(np.float64))
    while stall <= max_iter:
        move = _pick_move(d, present, reach, tabu, current, best)
        if move is None:
            break  # every move tabu or inadmissible
        kind, u, v = move
        present[u, v] = kind == ADD
        if kind == REVERSE:
            present[v, u] = True
            tabu.append((REVERSE, v, u))
        else:
            tabu.append((REMOVE if kind == ADD else ADD, u, v))
        if kind == ADD:
            _add_arc_reach(reach, u, v)
        else:
            reach = _reachability(present.astype(np.float64))
        for w in (v, u) if kind == REVERSE else (v,):
            parents[w] = tuple(np.flatnonzero(present[:, w]).tolist())
            ls[w] = score(w, parents[w])
            refresh(w)
        current = ls.sum()  # re-sum instead of accumulating deltas
        if current > best + 1e-9:
            best = current
            best_adj[:, :] = present
            stall = 0
        else:
            stall += 1
    return best_adj, best
