"""Reference analysis: the walktrap merges, k-means sweep, path queries and
Mann-Whitney counts attachnet used to run.

``_walktrap_component`` rescores every adjacent pair of communities by
``ward_delta`` on every merge; ``communities_walktrap`` runs it on each
connected component of the model's weight matrix.  ``kmeans_best_seed`` runs
one Lloyd clustering per seed (``_lloyd``), and the
path queries read a node's parents and children by scanning every arc of the
DAG and sorting the result, and sweep every node of the graph.  ``top_paths``
ranks the paths that ``enumerate_paths`` lists by their ``path_product``.
``_exact_u_counts`` enumerates the Mann-Whitney null distribution by the
memoised recursion ``_count_ways``.  These bodies are kept unchanged as the
slow oracle that ``test_analysis_oracle.py`` and
``benchmarks/bench_kernels.py`` compare the incremental merge scores, the
distinct-start sweep, the cached adjacency, the pruned path queries and the
bottom-up counts of ``attachnet.analytics``, ``attachnet.compare``,
``attachnet.dag`` and ``attachnet.influence`` against.
"""
import numpy as np

from attachnet.analytics import Partition, _components, _weight_matrix
from attachnet.compare import KMeansResult
from attachnet.dag import Dag
from attachnet.errors import PathCountError, ValidationError
from attachnet.influence import DEFAULT_PATH_CAP, InfluencePath, _check_nodes
from attachnet.params import GaussianBnParams


# -- walktrap -------------------------------------------------------------------


def _walktrap_component(w: np.ndarray, steps: int, total_weight: float) -> list[set[int]]:
    """Merge path of one connected component, cut at maximum modularity.

    Community distance follows the random-walk metric: squared difference of
    t-step visit profiles, inversely weighted by node degree; merges pick the
    adjacent pair with the smallest Ward increase.  The walk and the degrees
    of the distance include a loop on each vertex of weight
    ``sum_j w_ij / #{j : w_ij > 0}``; adjacency and modularity use ``w``
    as given, whose total weight is ``total_weight``.
    """
    n = w.shape[0]
    if n == 1:
        return [{0}]
    degree = w.sum(axis=1)
    loop = degree / np.count_nonzero(w, axis=1)
    walk_degree = degree + loop
    transition = (w + np.diag(loop)) / walk_degree[:, None]
    profile_1 = np.linalg.matrix_power(transition, steps)

    members: dict[int, set[int]] = {i: {i} for i in range(n)}
    profiles: dict[int, np.ndarray] = {i: profile_1[i].copy() for i in range(n)}
    internal: dict[int, float] = {i: 0.0 for i in range(n)}  # 2x intra weight
    deg_sum: dict[int, float] = {i: float(degree[i]) for i in range(n)}
    between: dict[int, dict[int, float]] = {
        i: {int(j): float(w[i, j]) for j in np.flatnonzero(w[i] > 0) if j != i}
        for i in range(n)
    }

    def ward_delta(a: int, b: int) -> float:
        diff = profiles[a] - profiles[b]
        r2 = float(np.sum(diff * diff / walk_degree))
        sa, sb = len(members[a]), len(members[b])
        return sa * sb / (sa + sb) / n * r2

    def modularity() -> float:
        two_m = total_weight
        q = 0.0
        for c in members:
            q += internal[c] / two_m - (deg_sum[c] / two_m) ** 2
        return q

    snapshots = [[set(s) for s in members.values()]]
    qualities = [modularity()]
    next_id = n
    while len(members) > 1:
        best = None
        best_delta = np.inf
        for a in sorted(between):
            for b in sorted(between[a]):
                if b <= a:
                    continue
                delta = ward_delta(a, b)
                if delta < best_delta - 1e-15:
                    best_delta = delta
                    best = (a, b)
        if best is None:  # disconnected inside a component cannot happen
            break
        a, b = best
        sa, sb = len(members[a]), len(members[b])
        merged = next_id
        next_id += 1
        members[merged] = members.pop(a) | members.pop(b)
        profiles[merged] = (sa * profiles.pop(a) + sb * profiles.pop(b)) / (sa + sb)
        internal[merged] = internal.pop(a) + internal.pop(b) + 2.0 * between[a].get(b, 0.0)
        deg_sum[merged] = deg_sum.pop(a) + deg_sum.pop(b)
        neighbors: dict[int, float] = {}
        for old in (a, b):
            for other, weight in between.pop(old).items():
                if other in (a, b):
                    continue
                neighbors[other] = neighbors.get(other, 0.0) + weight
                del between[other][old]
        for other, weight in neighbors.items():
            between[other][merged] = weight
        between[merged] = neighbors
        snapshots.append([set(s) for s in members.values()])
        qualities.append(modularity())
    best_step = int(np.argmax(qualities))
    return snapshots[best_step]


def communities_walktrap(dag: Dag, params: GaussianBnParams, steps: int = 4) -> Partition:
    """Random-walk communities of the |coefficient|-weighted projection.

    Each connected component is agglomerated on its own by a ``steps``-step
    walk that may stay put along a per-vertex loop (mean incident weight),
    and cut where the modularity of the loop-free graph peaks.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    w = _weight_matrix(dag, params)
    total_weight = float(w.sum())  # == 2m for the undirected graph
    clusters: list[set[str]] = []
    for comp in _components(w):
        sub = w[np.ix_(comp, comp)]
        if len(comp) == 1 or sub.sum() == 0:
            clusters.extend({dag.nodes[i]} for i in comp)
            continue
        for group in _walktrap_component(sub, steps, total_weight):
            clusters.append({dag.nodes[comp[i]] for i in group})
    clusters.sort(key=lambda c: min(c))
    assignment = {}
    for label_no, group in enumerate(clusters, start=1):
        for node in group:
            assignment[node] = f"C{label_no}"
    return Partition(assignment=assignment)


# -- k-means ------------------------------------------------------------------


def _lloyd(points: np.ndarray, k: int, seed: int, max_iter: int = 300):
    """One Lloyd run from k distinct seeded points; returns (labels, centers, ss)."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.full(n, -1)
    for _ in range(max_iter):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dists, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
    ss = float(((points - centers[labels]) ** 2).sum())
    return labels, centers, ss


def kmeans_best_seed(data, k: int, seed_range=(1, 4000)) -> KMeansResult:
    """Best-of-many Lloyd clustering: lowest within-cluster sum of squares
    across the inclusive seed range, ties to the smaller seed."""
    n = len(data.items)
    if k > n:
        raise ValidationError(f"k={k} exceeds the {n} items")
    if k < 1:
        raise ValidationError("k must be >= 1")
    lo, hi = seed_range
    best = None
    for seed in range(lo, hi + 1):
        labels, centers, ss = _lloyd(data.values, k, seed)
        if best is None or ss < best[2] - 1e-12:
            best = (labels, centers, ss, seed)
    labels, centers, ss, seed = best
    return KMeansResult(
        assignment={item: int(c) for item, c in zip(data.items, labels)},
        centers=centers,
        total_within_ss=ss,
        best_seed=seed,
    )


# -- DAG adjacency by arc scan ------------------------------------------------


def parents(dag, node: str) -> tuple[str, ...]:
    return tuple(sorted(u for u, v in dag.arcs if v == node))


def children(dag, node: str) -> tuple[str, ...]:
    return tuple(sorted(v for u, v in dag.arcs if u == node))


def in_degree(dag, node: str) -> int:
    return sum(1 for _, v in dag.arcs if v == node)


def out_degree(dag, node: str) -> int:
    return sum(1 for u, _ in dag.arcs if u == node)


# -- path queries ---------------------------------------------------------------


def count_paths(dag, source: str, target: str) -> int:
    """Number of directed paths source -> target (exact, via DP)."""
    _check_nodes(dag, source, target)
    counts = {source: 1}
    for node in dag.topological_order():
        if node == source:
            continue
        counts[node] = sum(counts.get(p, 0) for p in parents(dag, node))
    return counts.get(target, 0)


def enumerate_paths(dag, source: str, target: str, cap: int = DEFAULT_PATH_CAP):
    """All directed paths source -> target, depth-first in item order.

    Refuses (PathCountError) when the path count exceeds ``cap``; the total
    influence is still available through ``total_influence`` without
    enumeration.
    """
    _check_nodes(dag, source, target)
    if source == target:
        raise ValidationError("source and target must differ")
    total = count_paths(dag, source, target)
    if total > cap:
        raise PathCountError(
            f"{total} paths from {source} to {target} exceeds cap {cap}; "
            "use total_influence for the aggregate"
        )
    # restrict the walk to nodes that can still reach the target
    reaches = {target}
    for node in reversed(dag.topological_order()):
        if any(ch in reaches for ch in children(dag, node)):
            reaches.add(node)
    paths: list[tuple[str, ...]] = []
    stack = [source]

    def walk(node: str) -> None:
        if node == target:
            paths.append(tuple(stack))
            return
        for child in children(dag, node):  # children() is sorted
            if child in reaches:
                stack.append(child)
                walk(child)
                stack.pop()

    if source in reaches:
        walk(source)
    return paths


def path_product(path, params) -> float:
    """Product of arc coefficients along consecutive nodes of ``path``."""
    product = 1.0
    for u, v in zip(path, path[1:]):
        product *= params.coefficient(u, v)
    return product


def total_influence(dag, params, source: str, target: str) -> float:
    """Derivative of the target with respect to the source.

    Computed in one topological sweep: influence(source) = 1 and every other
    node accumulates coefficient-weighted influence from its parents.  Equal
    to the sum of path products over all directed paths; zero when the target
    is not a descendant.
    """
    _check_nodes(dag, source, target)
    if source == target:
        return 1.0
    influence = {source: 1.0}
    for node in dag.topological_order():
        if node == source:
            continue
        influence[node] = sum(
            params.coefficient(p, node) * influence.get(p, 0.0)
            for p in parents(dag, node)
        )
    return influence.get(target, 0.0)


def top_paths(dag, params, source: str, target: str, k: int, cap: int = DEFAULT_PATH_CAP):
    """The k paths with the largest absolute coefficient product.

    Ties break lexicographically on the node sequence; fewer than k paths
    simply returns them all.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    paths = enumerate_paths(dag, source, target, cap=cap)
    scored = [InfluencePath(nodes=p, product=path_product(p, params)) for p in paths]
    scored.sort(key=lambda ip: (-abs(ip.product), ip.nodes))
    return scored[:k]


# -- Mann-Whitney exact null distribution ----------------------------------------


def _exact_u_counts(n_a: int, n_b: int) -> list[int]:
    """Number of rank arrangements per U value (tie-free case).

    Classic recursion: ways(a, b, u) = ways(a-1, b, u-b) + ways(a, b-1, u).
    """
    ways: dict[tuple[int, int, int], int] = {}
    return [_count_ways(n_a, n_b, u, ways) for u in range(n_a * n_b + 1)]


def _count_ways(a: int, b: int, u: int, ways: dict) -> int:
    # a module-level function, not a closure over ``ways``: a recursive
    # closure is a reference cycle that kept the memo (megabytes at
    # 18 x 18) in memory until the next full garbage collection
    if u < 0 or u > a * b:
        return 0
    if a == 0 or b == 0:
        return 1 if u == 0 else 0
    key = (a, b, u)
    if key not in ways:
        ways[key] = _count_ways(a - 1, b, u - b, ways) + _count_ways(a, b - 1, u, ways)
    return ways[key]
