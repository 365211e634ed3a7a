"""Path-product influence calculus on a fitted linear-Gaussian network.

In the linear system each node is a weighted sum of its parents, so the total
derivative of a target with respect to a source equals the sum over all
directed paths of the product of arc coefficients along the path.  In a DAG
every directed path is simple, which makes the dynamic program over a
topological order (``total_influence``) exactly equal to explicit enumeration
(``enumerate_paths`` + ``path_product``); tests hold the two routes against
each other.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ._csv import csv_text
from .dag import Dag
from .errors import PathCountError, ValidationError
from .params import GaussianBnParams

DEFAULT_PATH_CAP = 10**6


@dataclass(frozen=True)
class InfluencePath:
    nodes: tuple[str, ...]
    product: float


@dataclass(frozen=True)
class InfluenceResult:
    source: str
    target: str
    total: float
    paths: tuple[InfluencePath, ...] | None = None

    def to_csv(self) -> str:
        lead = [self.source, self.target, f"{self.total:.6g}"]
        if self.paths:
            rows = (
                lead + [rank, "->".join(path.nodes), f"{path.product:.6g}"]
                for rank, path in enumerate(self.paths, start=1)
            )
        else:
            rows = [lead + ["", "", ""]]
        return csv_text(["source", "target", "total", "path_rank", "path", "product"], rows)


def _check_nodes(dag: Dag, *nodes: str) -> None:
    for node in nodes:
        if node not in dag.nodes:
            raise ValidationError(f"unknown node {node!r}")


def _path_nodes(dag: Dag, source: str, target: str) -> list[str]:
    """The nodes on directed paths source -> target in topological order,
    source first and target last; empty when the target is not a descendant.

    Every path query sweeps only these: any other node contributes nothing to
    a node on a path.
    """
    below = dag.descendants(source)
    if target not in below:
        return []
    return [
        node
        for node in dag.topological_order()
        if node == source or node == target or (node in below and target in dag.descendants(node))
    ]


def count_paths(dag: Dag, source: str, target: str) -> int:
    """Number of directed paths source -> target (exact, via DP)."""
    _check_nodes(dag, source, target)
    if source == target:
        return 1  # the path of no arcs
    return _count_between(dag, _path_nodes(dag, source, target))


def _count_between(dag: Dag, between: list[str]) -> int:
    """The path count over ``_path_nodes``' list ``between``."""
    if not between:
        return 0
    counts = {between[0]: 1}
    for node in between[1:]:
        counts[node] = sum(counts.get(p, 0) for p in dag.parents(node))
    return counts[between[-1]]


def _onward(dag: Dag, source: str, target: str, cap: int) -> dict[str, tuple[str, ...]]:
    """The sorted children on directed paths source -> target of each node on
    them, keyed in topological order (source first, target last); empty when
    the target is not a descendant.

    The prologue of every path walk: refuses an unknown node, source ==
    target (ValidationError) and a path count above ``cap``
    (PathCountError).
    """
    _check_nodes(dag, source, target)
    if source == target:
        raise ValidationError("source and target must differ")
    between = _path_nodes(dag, source, target)
    if not between:
        return {}
    total = _count_between(dag, between)
    if total > cap:
        raise PathCountError(
            f"{total} paths from {source} to {target} exceeds cap {cap}; "
            "use total_influence for the aggregate"
        )
    on_path = set(between)
    return {node: tuple(ch for ch in dag.children(node) if ch in on_path) for node in between}


def enumerate_paths(dag: Dag, source: str, target: str, cap: int = DEFAULT_PATH_CAP):
    """All directed paths source -> target, depth-first in item order.

    Refuses (PathCountError) when the path count exceeds ``cap``; the total
    influence is still available through ``total_influence`` without
    enumeration.
    """
    onward = _onward(dag, source, target, cap)
    if not onward:
        return []
    # an explicit stack: a recursive closure is a reference cycle, which kept
    # each query's paths in memory until the next full garbage collection
    found: list[tuple[str, ...]] = []
    path: list[str] = []
    todo = [(0, source)]  # (depth, node)
    while todo:
        depth, node = todo.pop()
        del path[depth:]
        path.append(node)
        if node == target:
            found.append(tuple(path))
            continue
        for child in reversed(onward[node]):  # the smallest child is walked first
            todo.append((depth + 1, child))
    return found


def path_product(path, params: GaussianBnParams) -> float:
    """Product of arc coefficients along consecutive nodes of ``path``."""
    product = 1.0
    for u, v in zip(path, path[1:]):
        product *= params.coefficient(u, v)
    return product


def total_influence(dag: Dag, params: GaussianBnParams, source: str, target: str) -> float:
    """Derivative of the target with respect to the source.

    Computed in one topological sweep over the nodes on source -> target
    paths: influence(source) = 1 and every other node accumulates
    coefficient-weighted influence from its parents.  Equal to the sum of
    path products over all directed paths; zero when the target is not a
    descendant.

    A sweep over every node gives the same bits: a parent of a node on those
    paths is on them too, or is no descendant of the source and so, with
    finite coefficients, holds +0.0 there, which is what a parent missing
    from ``influence`` reads as here.
    """
    _check_nodes(dag, source, target)
    if source == target:
        return 1.0
    influence = {source: 1.0}
    for node in _path_nodes(dag, source, target)[1:]:
        influence[node] = sum(
            (params.coefficient(p, node) * influence.get(p, 0.0) for p in dag.parents(node)),
            0.0,
        )
    return influence.get(target, 0.0)


def top_paths(
    dag: Dag,
    params: GaussianBnParams,
    source: str,
    target: str,
    k: int,
    cap: int = DEFAULT_PATH_CAP,
):
    """The k paths with the largest absolute coefficient product.

    Ties break lexicographically on the node sequence; fewer than k paths
    simply returns them all.

    A best-first search, not a walk of every path.  One reverse sweep gives
    ``best[v]``, the largest |product| of any v -> target path.  Partial
    paths leave a heap in order of ``|product so far| * best[node]``, an
    upper bound on every completion, and each product is carried from the
    source left to right, as ``path_product`` multiplies.  The search stops
    once k paths are found and the k-th largest found |product| exceeds the
    popped bound times (1 + 1e-9): then no unexplored path can reach the top
    k, even by tying.  Sorting the found paths by node sequence gives the
    depth-first order of ``enumerate_paths``, and the stable sort by
    ``(-|product|, path)`` then ranks them exactly as sorting every path
    would, NaN products included.

    Exactness guard.  A path has at most L = len(nodes on paths) - 1 arcs.
    When every |coefficient| on the paths is 0 or lies in [2**-s, 2**s] with
    s = 900 / L, every prefix product, bound and product is a product of at
    most L such factors: within [2**-900, 2**900], so normal, or exactly
    zero.  Each rounding is then relative and at most 2**-53, and at most
    2L + 1 of them lie between a path's computed |product| and the bound of
    any of its prefixes, so the product exceeds that bound by a relative
    (2L + 1) * 2**-53 at most: under 1e-14 on 36 items, far inside the 1e-9
    slack.  Otherwise (subnormals, overflow, inf * 0 = NaN) the same search
    runs without stopping early and so finds every path.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    onward = _onward(dag, source, target, cap)
    if not onward:
        return []
    # every arc on the paths, with its coefficient read once
    arcs = {node: [(child, params.coefficient(node, child)) for child in children]
            for node, children in onward.items()}
    best = {target: 1.0}
    for node in reversed(onward):
        if node != target:
            best[node] = max(abs(c) * best[child] for child, c in arcs[node])
    s = 900 / (len(onward) - 1)
    lo, hi = 2.0**-s, 2.0**s
    prune = all(c == 0 or lo <= abs(c) <= hi for out in arcs.values() for _, c in out)

    found: list[tuple[tuple[str, ...], float]] = []
    kth: list[float] = []  # min-heap of the k largest |product| found
    tick = itertools.count()  # breaks ties between equal bounds
    todo = [(-best[source], next(tick), (source,), 1.0)]  # (-bound, tick, path, product)
    while todo:
        key, _, path, product = heapq.heappop(todo)
        if prune and len(kth) == k and kth[0] > -key * (1 + 1e-9):
            break
        for child, c in arcs[path[-1]]:
            extended = product * c
            if child == target:
                found.append((path + (child,), extended))
                if len(kth) < k:
                    heapq.heappush(kth, abs(extended))
                elif abs(extended) > kth[0]:
                    heapq.heapreplace(kth, abs(extended))
            else:
                heapq.heappush(todo, (-abs(extended) * best[child], next(tick),
                                      path + (child,), extended))
    found.sort()  # by path alone, as paths differ: the depth-first order
    found.sort(key=lambda pp: (-abs(pp[1]), pp[0]))
    return [InfluencePath(nodes=path, product=product) for path, product in found[:k]]


def influence_result(
    dag: Dag,
    params: GaussianBnParams,
    source: str,
    target: str,
    k: int | None = None,
    cap: int = DEFAULT_PATH_CAP,
) -> InfluenceResult:
    """Total influence plus, when requested, the top-k path breakdown."""
    total = total_influence(dag, params, source, target)
    if k is not None and k < 1:
        raise ValidationError("k must be >= 1")
    paths = None
    if k is not None and source != target:
        paths = tuple(top_paths(dag, params, source, target, k, cap=cap))
    return InfluenceResult(source=source, target=target, total=total, paths=paths)


def cluster_coupling(dag: Dag, params: GaussianBnParams, partition) -> dict:
    """Sum of |coefficient| over arcs crossing each ordered cluster pair."""
    assignment = getattr(partition, "assignment", partition)
    missing = [n for n in dag.nodes if n not in assignment]
    if missing:
        raise ValidationError(f"partition missing nodes: {', '.join(missing)}")
    coupling: dict[tuple[str, str], float] = {}
    for parent, child, coeff in params.arc_items():
        cu, cv = assignment[parent], assignment[child]
        if cu == cv:
            continue
        coupling[(cu, cv)] = coupling.get((cu, cv), 0.0) + abs(coeff)
    return coupling


def median_abs_coefficient(params: GaussianBnParams) -> float:
    """Median |coefficient| over all arcs; mean of the middle two when even."""
    values = [abs(c) for _, _, c in params.arc_items()]
    if not values:
        raise ValidationError("model has no arcs")
    return float(np.median(values))
