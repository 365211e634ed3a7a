"""The exact score optimum over all DAGs, by Silander & Myllymaki's dynamic
programme (UAI 2006).

For every node v and every set S of other nodes it finds v's best parent set
within S; then, for every set W of nodes, the best network on W, whose last
node in some topological order (its sink) takes its best parents from the
rest of W (Koivisto & Sood, JMLR 2004).  Every local score comes from the
frozen ``reference_kernels.local_score``, so the optimum does not depend on
the scorer under test.  It is an oracle of truth for the tabu search, which can
only reach it or stop short of it: O(m 2^m) local scores, for small m.
"""
import numpy as np

from reference_kernels import local_score


def _members(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def exact_optimum(cov, n, ridge, metric, max_parents=None):
    """The best score over all DAGs on the covariance's columns and one DAG
    that reaches it, as ``(score, parents)`` with ``parents[v]`` a sorted
    tuple.  ``metric`` is the reference's integer code; ``max_parents`` None
    means no limit."""
    m = cov.shape[0]
    full = (1 << m) - 1
    # best[v][s]: (score, parent set) of v's best parents within the set s
    best = []
    for v in range(m):
        table = {}
        others = full & ~(1 << v)
        # subsets of the other nodes in increasing order, so that s minus one
        # member is always already in the table
        for s in sorted(_subsets(others)):
            parents = _members(s)
            if max_parents is None or len(parents) <= max_parents:
                idx = np.array(parents, dtype=np.int64)
                top = (local_score(cov, n, v, idx, ridge, metric), parents)
            else:
                top = (-np.inf, ())
            for u in parents:
                top = max(top, table[s & ~(1 << u)], key=lambda t: t[0])
            table[s] = top
        best.append(table)
    # net[w]: (score, sink order) of the best network on the nodes of w
    net = {0: (0.0, ())}
    for w in range(1, full + 1):
        top = None
        for v in _members(w):
            rest = w & ~(1 << v)
            score = net[rest][0] + best[v][rest][0]
            if top is None or score > top[0]:
                top = (score, net[rest][1] + (v,))
        net[w] = top
    score, order = net[full]
    parents = [()] * m
    placed = 0
    for v in order:
        parents[v] = best[v][placed][1]
        placed |= 1 << v
    return score, parents


def _subsets(mask):
    """Every subset of the bit set ``mask``, the empty set included."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask
