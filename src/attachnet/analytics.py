"""Community structure and centralities of the fitted network.

Communities come from the random-walk agglomeration of Pons & Latapy
(walktrap) on the undirected projection weighted by |coefficient|, cut at
maximum modularity.  As in their method (and igraph's ``cluster_walktrap``),
the walk runs on the graph with a loop on every vertex whose weight is the
mean weight of that vertex's edges; the loops shape the visit profiles and
the degrees of the distance only, while merge adjacency and the modularity
of the cut are taken on the graph without loops.  Betweenness is Brandes'
algorithm on the directed graph with arc distances 1/|coefficient| (strong
arcs are short).  PageRank is the damped power iteration with out-weight
normalization and uniform teleport for dangling nodes.
"""
from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np

from ._csv import csv_text, read_rows
from .dag import Dag
from .errors import ConvergenceError, ValidationError
from .params import GaussianBnParams


@dataclass(frozen=True)
class Partition:
    assignment: dict[str, str]

    def clusters(self) -> dict[str, frozenset]:
        groups: dict[str, set] = {}
        for node, cluster in self.assignment.items():
            groups.setdefault(cluster, set()).add(node)
        return {k: frozenset(v) for k, v in groups.items()}

    def as_sets(self) -> frozenset:
        """Label-free view for comparing partitions."""
        return frozenset(self.clusters().values())

    def to_csv(self) -> str:
        return csv_text(["node", "cluster"], sorted(self.assignment.items()))

    @classmethod
    def from_csv(cls, buf) -> "Partition":
        rows = read_rows(buf, ("node", "cluster"), key="node")
        return cls(assignment={r["node"]: r["cluster"] for r in rows})


@dataclass(frozen=True)
class CentralityVector:
    kind: str
    values: dict[str, float]

    def top(self, k: int) -> list[str]:
        """k highest-valued nodes, value ties broken by node name."""
        return [
            node
            for node, _ in sorted(
                self.values.items(), key=lambda kv: (-kv[1], kv[0])
            )[:k]
        ]

    def argmax(self) -> str:
        return self.top(1)[0]

    def to_csv(self) -> str:
        rows = ([node, f"{value:.10g}"] for node, value in sorted(self.values.items()))
        return csv_text(["node", "value"], rows)


def _weight_matrix(dag: Dag, params: GaussianBnParams) -> np.ndarray:
    """Symmetric |coefficient| weights of the undirected projection."""
    idx = {n: i for i, n in enumerate(dag.nodes)}
    w = np.zeros((len(dag.nodes), len(dag.nodes)))
    for parent, child, coeff in params.arc_items():
        w[idx[parent], idx[child]] += abs(coeff)
        w[idx[child], idx[parent]] += abs(coeff)
    return w


def _components(w: np.ndarray) -> list[list[int]]:
    n = w.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in np.flatnonzero(w[u] > 0):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        comps.append(sorted(comp))
    return comps


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

    def ward_deltas(a: int, others: list[int]) -> dict[int, float]:
        """Ward increase of merging ``a`` with each of ``others``, in one
        array pass over their stacked profiles."""
        if not others:
            return {}
        diff = np.stack([profiles[b] for b in others]) - profiles[a]
        r2 = (diff * diff / walk_degree).sum(axis=1)
        sa = len(members[a])
        deltas = {}
        for b, r in zip(others, r2.tolist()):
            sb = len(members[b])
            deltas[b] = sa * sb / (sa + sb) / n * r
        return deltas

    def modularity() -> float:
        two_m = total_weight
        q = 0.0
        for c in members:
            q += internal[c] / two_m - (deg_sum[c] / two_m) ** 2
        return q

    # pair_delta[a][b] for adjacent a < b.  Ids only grow and a merged
    # community enters its neighbours' rows after every entry there, so the
    # dicts iterate in sorted (a, b) order without sorting.
    pair_delta = {a: ward_deltas(a, sorted(b for b in between[a] if b > a)) for a in range(n)}
    snapshots = [[set(s) for s in members.values()]]
    qualities = [modularity()]
    next_id = n
    while len(members) > 1:
        best = None
        best_delta = np.inf
        for a, row in pair_delta.items():
            for b, delta in row.items():
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
            del pair_delta[old]
            for other, weight in between.pop(old).items():
                if other in (a, b):
                    continue
                neighbors[other] = neighbors.get(other, 0.0) + weight
                del between[other][old]
                pair_delta[other].pop(old, None)
        for other, weight in neighbors.items():
            between[other][merged] = weight
        between[merged] = neighbors
        # only the merged community's pairs are new (Pons & Latapy, section 4)
        for other, delta in ward_deltas(merged, list(neighbors)).items():
            pair_delta[other][merged] = delta
        pair_delta[merged] = {}
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


def degree_centrality(dag: Dag) -> tuple[CentralityVector, CentralityVector]:
    """Unweighted (in, out) arc counts per node."""
    into = {n: 0 for n in dag.nodes}
    out_of = {n: 0 for n in dag.nodes}
    for u, v in dag.arcs:
        out_of[u] += 1
        into[v] += 1
    return (
        CentralityVector(kind="degree_in", values={n: float(c) for n, c in into.items()}),
        CentralityVector(kind="degree_out", values={n: float(c) for n, c in out_of.items()}),
    )


def betweenness(dag: Dag, params: GaussianBnParams) -> CentralityVector:
    """Directed shortest-path betweenness with arc distance 1/|coefficient|.

    Endpoints are excluded from their own paths and ties split fractionally
    across equally short paths (Brandes' accumulation).
    """
    lengths: dict[tuple[str, str], float] = {}
    for parent, child, coeff in params.arc_items():
        if coeff == 0.0:
            warnings.warn(f"arc {parent}->{child} has zero coefficient; excluded")
            continue
        lengths[(parent, child)] = 1.0 / abs(coeff)
    children: dict[str, list[str]] = {n: [] for n in dag.nodes}
    for (u, v) in lengths:
        children[u].append(v)
    for u in children:
        children[u].sort()

    score = {n: 0.0 for n in dag.nodes}
    for source in dag.nodes:
        dist = {n: np.inf for n in dag.nodes}
        sigma = {n: 0.0 for n in dag.nodes}
        preds: dict[str, list[str]] = {n: [] for n in dag.nodes}
        dist[source] = 0.0
        sigma[source] = 1.0
        finished: list[str] = []
        done = set()
        heap: list[tuple[float, str]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            finished.append(u)
            for v in children[u]:
                nd = d + lengths[(u, v)]
                tol = 1e-12 * max(1.0, nd)
                if nd < dist[v] - tol:
                    dist[v] = nd
                    sigma[v] = sigma[u]
                    preds[v] = [u]
                    heapq.heappush(heap, (nd, v))
                elif abs(nd - dist[v]) <= tol:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = {n: 0.0 for n in dag.nodes}
        for w in reversed(finished):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != source:
                score[w] += delta[w]
    return CentralityVector(kind="betweenness", values=score)


_PAGERANK_TOL = 1e-12  # the L-infinity residual at which the power iteration stops
_PAGERANK_MAX_ITER = 100_000  # iterations before a ConvergenceError


def pagerank(dag: Dag, params: GaussianBnParams, damping: float = 0.85) -> CentralityVector:
    """Weighted PageRank: scores flow along arcs proportionally to
    |coefficient| / weighted out-degree; zero-out-degree nodes teleport
    uniformly.  Power iteration to an L-infinity residual below ``_PAGERANK_TOL``."""
    if not (0.0 < damping < 1.0):
        raise ValidationError("damping must be in (0, 1)")
    nodes = dag.nodes
    n = len(nodes)
    idx = {node: i for i, node in enumerate(nodes)}
    w = np.zeros((n, n))
    for parent, child, coeff in params.arc_items():
        w[idx[parent], idx[child]] = abs(coeff)
    out_weight = w.sum(axis=1)
    has_out = out_weight > 0
    transition = np.zeros_like(w)
    transition[has_out] = w[has_out] / out_weight[has_out, None]

    rank = np.full(n, 1.0 / n)
    for _ in range(_PAGERANK_MAX_ITER):
        dangling = rank[~has_out].sum()
        new = damping * (rank @ transition) + damping * dangling / n + (1.0 - damping) / n
        if np.max(np.abs(new - rank)) < _PAGERANK_TOL:
            rank = new
            break
        rank = new
    else:
        raise ConvergenceError(f"pagerank did not converge in {_PAGERANK_MAX_ITER} iterations")
    rank = rank / rank.sum()
    return CentralityVector(kind="pagerank", values={node: float(rank[idx[node]]) for node in nodes})
