"""Decomposable Gaussian network score over sufficient statistics.

The default metric is the Gaussian BIC: per node, the maximized log-likelihood
of the node given its parents minus ``(|parents| + 2) / 2 * ln n`` (the +2
counts the intercept and residual variance).  The score decomposes over nodes,
so a full-graph score is the sum of local terms and search moves only re-score
the affected nodes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dag import Dag
from .errors import ValidationError

METRICS = {"bic": 0, "aic": 1, "loglik": 2}

DEFAULT_RIDGE = 1e-8


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


def local_score(node, parents, stats: SufficientStats, metric="bic", ridge=DEFAULT_RIDGE) -> float:
    """Score contribution of one node given a parent set (larger is better)."""
    if node in parents:
        raise ValidationError(f"{node} cannot be its own parent")
    v = stats.index(node)
    parent_idx = sorted(stats.index(p) for p in parents)
    return float(
        _kernels.local_score(stats.cov.tolist(), stats.n, v, parent_idx, ridge, METRICS[metric])
    )


def graph_score(dag: Dag, stats: SufficientStats, metric="bic", ridge=DEFAULT_RIDGE) -> float:
    """Sum of local scores over all nodes (decomposability)."""
    return sum(
        local_score(node, dag.parents(node), stats, metric=metric, ridge=ridge)
        for node in dag.nodes
    )
