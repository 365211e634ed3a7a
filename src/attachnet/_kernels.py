"""Numeric kernels for scoring and structure search.

``CachedScorer`` is the one implementation of the decomposable Gaussian local
score.  Its scalar loops over a parent set read the covariance as nested
lists: a Python float rounds as a float64 does, without the cost of a numpy
scalar.  For one covariance and metric it memoises local scores and shares
the Cholesky factor rows that parent sets with a common prefix have in
common.  The residual variance of v on a parent set is the last pivot of
the Cholesky factorization of the block of the set and v, so one walk finds
it from a factor row and a forward-substitution entry per parent, with no
back substitution; a set whose block does not factorize is walked once more,
with a ridge on the parent block's diagonal, in a second trie that holds the
ridged rows.  A score does not depend on the order in which the caches
filled.
``PENALTIES`` maps each metric's name to its penalty.

The tabu search spends its time in the scorer and in ``_pick_move``, which
chooses each move from one cached matrix of score deltas with whole-matrix
numpy operations on the adjacency and the number of directed paths between
each pair of nodes: no path v -> u admits an arc u -> v, and a single path
u -> v, the arc itself, admits its reversal.  Each arc change updates the
counts by one outer product.  The scorer fills a node's column of score
deltas in one call and keeps it per parent set.  The closure,
``_reachability``, finds the arcs on cycles for ``structure.average_network``,
whose graph may have cycles and so no finite path counts.
``benchmarks/bench_kernels.py`` times the scoring, the path counts and the
search against the references kept under ``tests/``.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque

import numpy as np

from .errors import ValidationError


def backend() -> str:
    """Name of the kernel backend, reported by the benchmarks: always ``numpy``."""
    return "numpy"


LOG_2PI = 1.8378770664093453

DEFAULT_RIDGE = 1e-8

# Each metric's penalty for k free parameters on n rows: k/2 * ln n, k or none.
PENALTIES = {
    "bic": lambda n, k: 0.5 * k * np.log(n),
    "aic": lambda n, k: k,
    "loglik": lambda n, k: 0,
}

# Move kinds, ordered for lexicographic (from, to, kind) tie-breaking.
ADD, REMOVE, REVERSE = 0, 1, 2


def _factor_row(a_i, low):
    """Row i of the Cholesky factor of an SPD matrix, from the first i + 1
    entries of the matrix's row i and the factor rows 0..i-1 in ``low``;
    None when the factorization breaks down."""
    row = []
    for j, other in enumerate(low):
        s = a_i[j]
        for k in range(j):
            s -= row[k] * other[k]
        row.append(s / other[j])
    i = len(low)
    s = a_i[i]
    for k in range(i):
        s -= row[k] * row[k]
    if s <= 0.0:
        return None
    row.append(math.sqrt(s))
    return row


def _forward(row, b_i, y):
    """Entry i of the forward substitution L y = b, from factor row i, b[i]
    and the entries 0..i-1 in ``y``."""
    s = b_i
    for k in range(len(y)):
        s -= row[k] * y[k]
    return s / row[-1]


def _log_likelihood(n, var):
    """Maximized Gaussian log-likelihood of n rows with residual variance
    var, floored at 1e-12."""
    if var < 1e-12:
        var = 1e-12
    # np.log, not math.log: the two differ in the last bit on some inputs
    return -0.5 * n * (LOG_2PI + float(np.log(var)) + 1.0)


class CachedScorer:
    """Local scores of one covariance under one metric, memoised per (node,
    parent set), with the Cholesky work shared between parent sets.

    The score of node v under a sorted parent tuple p is the maximized
    Gaussian log-likelihood of v's regression on p, its residual variance
    floored at 1e-12, less the metric's penalty for ``len(p) + 2`` free
    parameters (the +2 counts the intercept and the residual variance).

    Factor row i of the parent block reads only ``c[p_i][p_j]`` for j <= i,
    so it depends on the prefix p[:i + 1] alone, and forward substitution
    entry i on that prefix and v.  A trie keyed by parent index holds one
    node per prefix: its factor row (None when the factorization breaks down
    there), its forward entries by v and its children.  With A = L L^T the
    parent block and y = L^-1 c[p][v], the residual variance
    c[v][v] - c[p][v]^T A^-1 c[p][v] is c[v][v] - y^T y, the last pivot of
    the block of p and v (the square of its factor's last diagonal entry), so
    only that sum of squared forward entries runs per parent set.  A parent
    set with a failing prefix is walked again with ``DEFAULT_RIDGE`` added to
    the diagonal of its whole block.  A ridged row, too, depends on its prefix
    alone, so a second trie, ``ridged``, shares the ridged rows between sets
    as ``trie`` shares the others.  The set scores -inf when the ridged block
    does not factorize either.
    """

    def __init__(self, cov, n, metric="bic"):
        if metric not in PENALTIES:
            raise ValidationError(f"unknown metric {metric!r}")
        if not np.isfinite(cov).all():
            raise ValidationError("covariance has non-finite entries")
        self.c = cov.tolist()
        self.n = n
        self.penalty = [PENALTIES[metric](n, p + 2) for p in range(len(self.c))]
        self.memo = {}
        self.columns = {}
        self.trie = {}  # parent index -> (factor row, forward entries by v, children)
        self.ridged = {}  # the same, for the blocks with the ridge on the diagonal

    def score(self, v, parents):
        """Local score of node v under a sorted tuple of distinct parents."""
        s = self.memo.get((v, parents))
        if s is None:
            s = self._fresh(v, parents)
        return s

    def _fresh(self, v, parents):
        """Score v under the parents and memoise it."""
        var = self._variance(v, parents, self.trie, 0.0)
        if var is None:  # a failing prefix: retry with the ridge
            var = self._variance(v, parents, self.ridged, DEFAULT_RIDGE)
        if var is None:
            s = -np.inf
        else:
            s = _log_likelihood(self.n, var) - self.penalty[len(parents)]
        self.memo[v, parents] = s
        return s

    def column(self, v, parents, room):
        """Array of the change of v's local score when u leaves the sorted
        parent tuple, for each parent u, or joins it, for every other u != v
        when ``room``; -inf for the moves that are not possible.  Columns are
        kept per (v, parents, room); the caller must not modify one."""
        key = (v, parents, room)
        col = self.columns.get(key)
        if col is not None:
            return col
        memo = self.memo
        base = self.score(v, parents)
        m = len(self.c)
        col = [-np.inf] * m
        for i, u in enumerate(parents):
            fewer = parents[:i] + parents[i + 1 :]
            s = memo.get((v, fewer))
            col[u] = (self._fresh(v, fewer) if s is None else s) - base
        if room:
            i = 0  # where u goes in the parent tuple
            for u in range(m):
                if i < len(parents) and parents[i] == u:
                    i += 1
                elif u != v:
                    more = parents[:i] + (u,) + parents[i:]
                    s = memo.get((v, more))
                    col[u] = (self._fresh(v, more) if s is None else s) - base
        col = self.columns[key] = np.array(col)
        return col

    def _variance(self, v, parents, trie, ridge):
        """Residual variance of v on the parents, with ``ridge`` added to the
        diagonal of their block: c[v][v] less the squared forward entries, in
        parent order, from the factor rows shared in ``trie``; None when a
        prefix of the parents does not factorize."""
        c = self.c
        low = []
        y = []
        level = trie
        for i, p in enumerate(parents):
            node = level.get(p)
            if node is None:
                a_i = [c[p][w] for w in parents[: i + 1]]
                a_i[i] += ridge
                node = level[p] = (_factor_row(a_i, low), {}, {})
            row, ys, level = node
            if row is None:
                return None
            y_i = ys.get(v)
            if y_i is None:
                y_i = ys[v] = _forward(row, c[p][v], y)
            low.append(row)
            y.append(y_i)
        var = c[v][v]
        for y_i in y:
            var -= y_i * y_i
        return var


def _with(parents, u):
    """The sorted parent tuple with u inserted."""
    i = bisect_left(parents, u)
    return parents[:i] + (u,) + parents[i:]


def _without(parents, u):
    """The sorted parent tuple with u removed."""
    return tuple(w for w in parents if w != u)


def _reachability(a):
    """Transitive closure of a 0/1 float adjacency, cycles allowed: True where
    a path exists, so on the diagonal for the nodes on a cycle."""
    reach = a
    while True:
        nxt = np.minimum(reach + reach @ reach, 1.0)
        if np.array_equal(nxt, reach):
            return reach > 0
        reach = nxt


def _count_arc(paths, u, v, sign):
    """Add (``sign`` 1) or take away (-1) the arc u -> v in the path counts
    ``paths`` of a DAG, in place: ``paths[x, y]`` counts the directed paths
    from x to y, and the paths through the arc are those from u's ancestors
    and u to v and its descendants.  Neither ``paths[:, u]`` nor ``paths[v]``
    runs through the arc, which would close a cycle."""
    src = sign * paths[:, u]
    src[u] = sign
    dst = paths[v].copy()
    dst[v] = 1
    paths += src[:, None] * dst


def _count_move(paths, kind, u, v):
    """Update the path counts for the move ``(kind, u, v)``: add or remove
    the arc u -> v, or reverse it."""
    _count_arc(paths, u, v, 1 if kind == ADD else -1)
    if kind == REVERSE:
        _count_arc(paths, v, u, 1)


def _path_counts(present):
    """The directed paths between each pair of nodes of the DAG ``present``,
    counted by adding its arcs one at a time: int64 up to 64 nodes, where a
    count is at most 2**62, and Python ints above."""
    m = len(present)
    paths = np.zeros((m, m), dtype=np.int64 if m <= 64 else object)
    for u, v in zip(*np.nonzero(present)):
        _count_arc(paths, u, v, 1)
    return paths


def _pick_move(d, present, paths, tabu, current, best):
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
    # ``paths`` counts the directed paths between each pair of nodes.  Add
    # u -> v needs no path v -> u, which also rules out an arc v -> u; an arc
    # u -> v never has one, so its removal passes the same test.  Reverse
    # u -> v needs no u -> v path other than the arc itself.
    deltas[..., 0] = np.where(paths.T == 0, d, -np.inf)
    deltas[..., 1] = np.where(present & (paths == 1), d + d.T, -np.inf)
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


def tabu_search_kernel(scorer, adj, tabu_len, max_iter, max_parents):
    """Score-based DAG search with add/remove/reverse moves.

    Hill-climbs the decomposable score of the ``CachedScorer`` ``scorer``
    from the DAG ``adj``; after reaching a local optimum it keeps taking the
    best admissible move (``_pick_move``) for up to ``max_iter`` consecutive
    non-improving steps, with a tabu list holding the inverses of the last
    ``tabu_len`` moves.  ``max_parents`` None means no limit.  Returns the
    best adjacency seen, with ``adj``'s dtype, and its score; ``adj`` itself
    is left as it was.

    The search is incremental.  ``d[u, v]`` caches the change of ``ls[v]``
    when u joins or leaves v's parents, so a move only re-scores the column of
    the one or two nodes whose parent set changed, with one ``scorer.column``
    call each.  The scorer keeps columns per (node, parent set) and reuses
    them when the search returns to a parent set, as its stall phase of
    reversals does; it memoises local scores and shares Cholesky factor rows
    between parent sets with a common prefix, so searches that share it reuse
    each other's work.  Cycle checks read ``paths``, the number of directed
    paths between each pair of nodes (``_path_counts``), which each arc
    added or taken away updates by one outer product (``_count_move``).
    """
    m = len(adj)
    present = adj != 0
    parents = [tuple(np.flatnonzero(present[:, v]).tolist()) for v in range(m)]
    ls = np.array([scorer.score(v, parents[v]) for v in range(m)])
    # -inf marks a move that is never taken: u is v, or u is not a parent
    # and v has no room for one.
    d = np.full((m, m), -np.inf)

    def refresh(v):
        pa = parents[v]
        d[:, v] = scorer.column(v, pa, max_parents is None or len(pa) < max_parents)

    for v in range(m):
        refresh(v)

    paths = _path_counts(present)
    current = ls.sum()
    best = current
    best_adj = adj.copy()
    tabu = deque(maxlen=tabu_len)
    stall = 0
    while stall <= max_iter:
        move = _pick_move(d, present, paths, tabu, current, best)
        if move is None:
            break  # every move tabu or inadmissible
        kind, u, v = move
        present[u, v] = kind == ADD
        _count_move(paths, kind, u, v)
        if kind == ADD:
            parents[v] = _with(parents[v], u)
            tabu.append((REMOVE, u, v))
        else:
            parents[v] = _without(parents[v], u)
            if kind == REVERSE:
                present[v, u] = True
                parents[u] = _with(parents[u], v)
                tabu.append((REVERSE, v, u))
            else:
                tabu.append((ADD, u, v))
        for w in (v, u) if kind == REVERSE else (v,):
            ls[w] = scorer.score(w, parents[w])
            refresh(w)
        current = ls.sum()  # re-sum instead of accumulating deltas
        if current > best + 1e-9:
            best = current
            best_adj[:, :] = present
            stall = 0
        else:
            stall += 1
    return best_adj, best
