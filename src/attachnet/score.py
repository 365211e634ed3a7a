"""Decomposable Gaussian network score over sufficient statistics.

The default metric is the Gaussian BIC: per node, the maximized log-likelihood
of the node given its parents minus ``(|parents| + 2) / 2 * ln n`` (the +2
counts the intercept and residual variance); ``aic`` subtracts
``|parents| + 2`` and ``loglik`` nothing.  The score decomposes over nodes,
so a full-graph score is the sum of local terms and search moves only re-score
the affected nodes.  Every local score, here and in the search, comes from
``_kernels.CachedScorer``; this module names nodes by item and checks them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import CachedScorer
from .dag import Dag
from .errors import ValidationError


@dataclass(frozen=True)
class SufficientStats:
    """Sample count, mean vector and ML covariance (denominator n)."""

    n: int
    mean: np.ndarray
    cov: np.ndarray
    items: tuple[str, ...]

    def index(self, item: str) -> int:
        try:
            return self.items.index(item)
        except ValueError:
            raise ValidationError(f"unknown item {item!r}") from None


def sufficient_stats(table) -> SufficientStats:
    """Mean/covariance of a complete response table."""
    rows = np.asarray(table.rows, dtype=np.float64)
    if not np.isfinite(rows).all():
        raise ValidationError("response table contains missing values")
    return stats_from_matrix(rows, table.items)


def stats_from_matrix(rows: np.ndarray, items) -> SufficientStats:
    """Mean and ML covariance (denominator n) of the centred rows, ``d.T @ d / n``."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] < 2:
        raise ValidationError("need at least 2 rows for sufficient statistics")
    n = rows.shape[0]
    mean = rows.mean(axis=0)
    centred = rows - mean
    return SufficientStats(n=n, mean=mean, cov=centred.T @ centred / n, items=tuple(items))


def _score(scorer: CachedScorer, node, parents, stats: SufficientStats) -> float:
    """``scorer``'s local score of ``node`` under the named parents."""
    if node in parents:
        raise ValidationError(f"{node} cannot be its own parent")
    seen = set()
    for p in parents:
        if p in seen:
            raise ValidationError(f"repeated parent {p!r}")
        seen.add(p)
    v = stats.index(node)
    return float(scorer.score(v, tuple(sorted(stats.index(p) for p in parents))))


def local_score(node, parents, stats: SufficientStats, metric="bic") -> float:
    """Score contribution of one node given a parent set (larger is better)."""
    return _score(CachedScorer(stats.cov, stats.n, metric), node, parents, stats)


def graph_score(dag: Dag, stats: SufficientStats, metric="bic") -> float:
    """Sum of local scores over all nodes (decomposability)."""
    scorer = CachedScorer(stats.cov, stats.n, metric)
    return sum(_score(scorer, node, dag.parents(node), stats) for node in dag.nodes)
