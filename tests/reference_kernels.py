"""Reference kernels: the scoring, search and covariance that attachnet used to run.

These are the ndarray Cholesky local score, the per-candidate re-scoring tabu
search (a depth-first cycle check for every candidate move, every local score
recomputed on every iteration) and the two-pass covariance loop.  They are
kept as the slow oracle that ``test_search_oracle.py`` and
``benchmarks/bench_kernels.py`` compare the list-based local score, the
incremental search and the matmul covariance against.

The local score's residual variance is the variance less the squared
forward-substitution entries, the last Cholesky pivot, as the scorer computes
it.  ``residual_variance_solve`` keeps the route both used before, a back
substitution for the regression coefficients and then the variance less
their products with the right-hand side; the tests and the benchmark bound
the two routes' difference by a few ulps of the variance.
"""
import numpy as np

from attachnet._kernels import ADD, LOG_2PI, REMOVE, REVERSE


def _chol_forward(a, b):
    """Factor the SPD matrix a = L L^T via Cholesky and solve L y = b.

    Returns (low, y, ok); ok is False when the factorization breaks down.
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
                    return low, np.zeros(p), False
                low[i, i] = np.sqrt(s)
            else:
                low[i, j] = s / low[j, j]
    y = np.zeros(p)
    for i in range(p):
        s = b[i]
        for k in range(i):
            s -= low[i, k] * y[k]
        y[i] = s / low[i, i]
    return low, y, True


def _chol_solve(a, b):
    """Solve the SPD system a @ x = b via Cholesky.

    Returns (x, ok); ok is False when the factorization breaks down.
    """
    low, y, ok = _chol_forward(a, b)
    p = a.shape[0]
    if not ok:
        return np.zeros(p), False
    x = np.zeros(p)
    for i in range(p - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, p):
            s -= low[k, i] * x[k]
        x[i] = s / low[i, i]
    return x, True


def _parent_system(cov, v, parent_idx):
    """The parents' block of the covariance and their covariances with v."""
    p = parent_idx.shape[0]
    sub = np.empty((p, p))
    rhs = np.empty(p)
    for i in range(p):
        rhs[i] = cov[parent_idx[i], v]
        for j in range(p):
            sub[i, j] = cov[parent_idx[i], parent_idx[j]]
    return sub, rhs


def residual_variance(cov, v, parent_idx, ridge):
    """ML residual variance of node v regressed on the given parents.

    With the parent block A = L L^T and y = L^-1 b for b the parents'
    covariances with v, the variance c_vv - b^T A^-1 b is c_vv - y^T y, the
    last pivot of the Cholesky factorization of the block of the parents and
    v.  Falls back to a single ridge retry on a singular parent submatrix;
    returns (variance, ok).
    """
    p = parent_idx.shape[0]
    if p == 0:
        return cov[v, v], True
    sub, rhs = _parent_system(cov, v, parent_idx)
    _, y, ok = _chol_forward(sub, rhs)
    if not ok:
        for i in range(p):
            sub[i, i] += ridge
        _, y, ok = _chol_forward(sub, rhs)
        if not ok:
            return 0.0, False
    var = cov[v, v]
    for i in range(p):
        var -= y[i] * y[i]
    return var, True


def residual_variance_solve(cov, v, parent_idx, ridge):
    """``residual_variance`` by the route the scorer used to take: solve
    A beta = b by forward and back substitution, then c_vv - b^T beta."""
    p = parent_idx.shape[0]
    if p == 0:
        return cov[v, v], True
    sub, rhs = _parent_system(cov, v, parent_idx)
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


def _gather_parents(adj, v, extra, skip, out):
    """Write the parent indices of v (with one optional add/remove) into out."""
    cnt = 0
    m = adj.shape[0]
    for u in range(m):
        if u == v:
            continue
        is_parent = adj[u, v] == 1
        if u == skip:
            is_parent = False
        if u == extra:
            is_parent = True
        if is_parent:
            out[cnt] = u
            cnt += 1
    return cnt


def _has_path(adj, src, dst, skip_u, skip_v):
    """Depth-first reachability src -> dst, ignoring the arc (skip_u, skip_v)."""
    m = adj.shape[0]
    if src == dst:
        return True
    seen = np.zeros(m, dtype=np.int8)
    stack = np.empty(m, dtype=np.int64)
    top = 0
    stack[top] = src
    top += 1
    seen[src] = 1
    while top > 0:
        top -= 1
        u = stack[top]
        for v in range(m):
            if adj[u, v] == 1 and not (u == skip_u and v == skip_v):
                if v == dst:
                    return True
                if seen[v] == 0:
                    seen[v] = 1
                    stack[top] = v
                    top += 1
    return False


def _move_code(kind, u, v, m):
    return kind * m * m + u * m + v


def _inverse_code(kind, u, v, m):
    if kind == ADD:
        return _move_code(REMOVE, u, v, m)
    if kind == REMOVE:
        return _move_code(ADD, u, v, m)
    return _move_code(REVERSE, v, u, m)


def _in_tabu(tabu, code):
    for i in range(tabu.shape[0]):
        if tabu[i] == code:
            return True
    return False


def tabu_search_kernel(cov, n, adj, tabu_len, max_iter, max_parents, ridge, metric):
    """Score-based DAG search with add/remove/reverse moves.

    Hill-climbs the decomposable score; after reaching a local optimum it keeps
    taking the best admissible move for up to ``max_iter`` consecutive
    non-improving steps, with a tabu list holding the inverses of the last
    ``tabu_len`` moves (aspiration: a tabu move is allowed when it beats the
    best score seen).  Ties between moves break on the smallest
    (from, to, kind) triple.  Mutates ``adj``; returns the best adjacency seen
    and its score.
    """
    m = cov.shape[0]
    scratch = np.empty(m, dtype=np.int64)
    ls = np.empty(m)
    for v in range(m):
        cnt = _gather_parents(adj, v, -1, -1, scratch)
        ls[v] = local_score(cov, n, v, scratch[:cnt], ridge, metric)
    current = ls.sum()
    best = current
    best_adj = adj.copy()
    tabu = np.full(max(tabu_len, 1), -1, dtype=np.int64)
    tabu_head = 0
    stall = 0
    while stall <= max_iter:
        best_delta = -np.inf
        bk = -1
        bu = -1
        bv = -1
        bscore_v = 0.0
        bscore_u = 0.0
        for u in range(m):
            for v in range(m):
                if u == v:
                    continue
                if adj[u, v] == 0:
                    if adj[v, u] == 1:
                        continue  # covered by reverse of (v, u)
                    if max_parents >= 0:
                        cnt = _gather_parents(adj, v, -1, -1, scratch)
                        if cnt >= max_parents:
                            continue
                    if _has_path(adj, v, u, -1, -1):
                        continue  # would close a cycle
                    cnt = _gather_parents(adj, v, u, -1, scratch)
                    cand = local_score(cov, n, v, scratch[:cnt], ridge, metric)
                    delta = cand - ls[v]
                    if delta > best_delta + 1e-12:
                        code = _move_code(ADD, u, v, m)
                        if _in_tabu(tabu, code) and current + delta <= best + 1e-9:
                            continue
                        best_delta = delta
                        bk = ADD
                        bu = u
                        bv = v
                        bscore_v = cand
                else:
                    # remove(u, v)
                    cnt = _gather_parents(adj, v, -1, u, scratch)
                    cand_rm = local_score(cov, n, v, scratch[:cnt], ridge, metric)
                    delta = cand_rm - ls[v]
                    if delta > best_delta + 1e-12:
                        code = _move_code(REMOVE, u, v, m)
                        if not (_in_tabu(tabu, code) and current + delta <= best + 1e-9):
                            best_delta = delta
                            bk = REMOVE
                            bu = u
                            bv = v
                            bscore_v = cand_rm
                    # reverse(u, v): remove u -> v then add v -> u
                    if max_parents >= 0:
                        cnt = _gather_parents(adj, u, -1, -1, scratch)
                        if cnt >= max_parents:
                            continue
                    if _has_path(adj, u, v, u, v):
                        continue  # another u..v path exists; reversal cycles
                    cnt = _gather_parents(adj, u, v, -1, scratch)
                    cand_add = local_score(cov, n, u, scratch[:cnt], ridge, metric)
                    delta = (cand_rm - ls[v]) + (cand_add - ls[u])
                    if delta > best_delta + 1e-12:
                        code = _move_code(REVERSE, u, v, m)
                        if _in_tabu(tabu, code) and current + delta <= best + 1e-9:
                            continue
                        best_delta = delta
                        bk = REVERSE
                        bu = u
                        bv = v
                        bscore_v = cand_rm
                        bscore_u = cand_add
        if bk < 0:
            break  # every move tabu or inadmissible
        if bk == ADD:
            adj[bu, bv] = 1
            ls[bv] = bscore_v
        elif bk == REMOVE:
            adj[bu, bv] = 0
            ls[bv] = bscore_v
        else:
            adj[bu, bv] = 0
            adj[bv, bu] = 1
            ls[bv] = bscore_v
            ls[bu] = bscore_u
        current = ls.sum()  # re-sum instead of accumulating deltas
        tabu[tabu_head] = _inverse_code(bk, bu, bv, m)
        tabu_head = (tabu_head + 1) % tabu.shape[0]
        if current > best + 1e-9:
            best = current
            best_adj[:, :] = adj
            stall = 0
        else:
            stall += 1
    return best_adj, best


def covariance_kernel(x):
    """Two-pass mean and ML covariance (denominator n) of a data matrix."""
    n, m = x.shape
    mean = np.zeros(m)
    for i in range(n):
        for j in range(m):
            mean[j] += x[i, j]
    for j in range(m):
        mean[j] /= n
    cov = np.zeros((m, m))
    for i in range(n):
        for j in range(m):
            dj = x[i, j] - mean[j]
            for k in range(j, m):
                cov[j, k] += dj * (x[i, k] - mean[k])
    for j in range(m):
        for k in range(j, m):
            cov[j, k] /= n
            cov[k, j] = cov[j, k]
    return mean, cov
