"""Statistical comparison suite against published factor and network studies.

Covers seed-swept k-means over factor loadings, PCA projection, concentration
ellipses, the Pearson-r significance transform, the Mann-Whitney U test and
edge-set correlation between two weighted networks.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._csv import csv_text, number, read_rows
from .errors import ValidationError


@dataclass(frozen=True)
class FactorTable:
    """Items with a uniform-dimension factor-loading vector each."""

    items: tuple[str, ...]
    values: np.ndarray  # (n_items, n_factors)
    variance_explained: tuple[float, ...] | None = None

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_csv(cls, buf) -> "FactorTable":
        rows = read_rows(buf, ("item",))
        if not rows:
            raise ValidationError("empty factor table")
        factor_cols = [k for k in rows[0] if k.lower().startswith("f")]
        items = tuple(r["item"] for r in rows)
        values = [[number(r[c], row) for c in factor_cols] for row, r in enumerate(rows, start=1)]
        return cls(items=items, values=np.array(values, dtype=np.float64))

    def to_csv(self) -> str:
        return csv_text(
            ["item"] + [f"f{i + 1}" for i in range(self.dims)],
            ([item] + [f"{v:.10g}" for v in row] for item, row in zip(self.items, self.values)),
        )


@dataclass(frozen=True)
class KMeansResult:
    assignment: dict[str, int]
    centers: np.ndarray
    total_within_ss: float
    best_seed: int

    def clusters(self) -> dict[int, frozenset]:
        groups: dict[int, set] = {}
        for item, c in self.assignment.items():
            groups.setdefault(c, set()).add(item)
        return {k: frozenset(v) for k, v in groups.items()}

    def as_sets(self) -> frozenset:
        return frozenset(self.clusters().values())


# Seeds per batched Lloyd block, chosen by measuring the analysis battery's
# peak RSS: 512 added about 0.8 MB for a few percent less time, and 128 was
# slower for no less memory.
_SEED_BLOCK = 256


def _lloyd_sweep(points: np.ndarray, k: int, seeds: range, max_iter: int = 300):
    """One Lloyd clustering per seed; yields ``(seed, labels, centers, ss)``
    in seed order.

    The seeds run ``_SEED_BLOCK`` at a time as ``(seeds, k, d)`` centre
    arrays.  Each starts from ``default_rng(seed).choice(n, k,
    replace=False)`` and stops at the first iteration whose assignment
    repeats the previous one, or after ``max_iter`` updates.  Every float
    operation is the one a seed-at-a-time run makes: distances per centre as
    ``(x - c) ** 2`` summed over the last axis, first-minimum assignment,
    centres as the row-order sum of their points divided by the count (an
    empty cluster's centre stays put), and ``ss`` as a sum over the
    flattened residuals.
    """
    n, d = points.shape
    block = min(_SEED_BLOCK, len(seeds))
    diff = np.empty((block, n, d))  # work buffers shared by every block
    dists = np.empty((block, k, n))
    for first in range(0, len(seeds), block):
        chunk = seeds[first : first + block]
        size = len(chunk)
        centers = np.empty((size, k, d))
        for s, seed in enumerate(chunk):
            centers[s] = points[np.random.default_rng(seed).choice(n, size=k, replace=False)]
        labels = np.full((size, n), -1, dtype=np.intp)
        active = np.arange(size)
        for _ in range(max_iter):
            m = len(active)
            for c in range(k):
                np.subtract(points, centers[active, c, None, :], out=diff[:m])
                np.square(diff[:m], out=diff[:m])
                diff[:m].sum(axis=2, out=dists[:m, c])
            new_labels = dists[:m].argmin(axis=1)
            moved = (new_labels != labels[active]).any(axis=1)
            active, new_labels = active[moved], new_labels[moved]
            if not len(active):
                break
            labels[active] = new_labels
            centers[active] = _cluster_means(points, new_labels, centers[active])
        residuals = diff[:size]  # points - centers[labels], one cluster at a time
        for c in range(k):
            np.subtract(points, centers[:, c, None, :], out=residuals,
                        where=(labels == c)[:, :, None])
        np.square(residuals, out=residuals)
        ss = residuals.reshape(size, n * d).sum(axis=1)
        yield from zip(chunk, labels, centers, ss.tolist())


def _cluster_means(points: np.ndarray, labels: np.ndarray, centers: np.ndarray):
    """Per seed (row of ``labels``), each non-empty cluster's mean point.

    ``points[mask].mean(axis=0)`` adds a cluster's rows in order when there
    are two or more columns, starting from +0.0 (so an all -0.0 column sums
    to +0.0), and the sums here add them the same way.  With one column numpy
    sums pairwise, so that case takes numpy's own mean per cluster.
    """
    if points.shape[1] == 1:
        for s, row in enumerate(labels):
            for c in np.unique(row):
                centers[s, c] = points[row == c].mean(axis=0)
        return centers
    size, k, d = centers.shape
    bins = (labels + k * np.arange(size)[:, None]).ravel()  # one bin per (seed, cluster)
    counts = np.bincount(bins, minlength=size * k).reshape(size, k)
    sums = np.empty_like(centers)
    for j in range(d):  # bincount adds the weights in order, from +0.0
        weights = np.broadcast_to(points[:, j], labels.shape).ravel()
        sums[:, :, j] = np.bincount(bins, weights, size * k).reshape(size, k)
    filled = counts > 0
    centers[filled] = sums[filled] / counts[filled][:, None]
    return centers


def kmeans_best_seed(data: FactorTable, k: int, seed_range=(1, 4000)) -> KMeansResult:
    """Best-of-many Lloyd clustering: lowest within-cluster sum of squares
    across the inclusive seed range, ties to the smaller seed."""
    n = len(data.items)
    if k > n:
        raise ValidationError(f"k={k} exceeds the {n} items")
    if k < 1:
        raise ValidationError("k must be >= 1")
    lo, hi = seed_range
    if not 0 <= lo <= hi:
        raise ValidationError(f"seed range must satisfy 0 <= lo <= hi, got {lo}:{hi}")
    points = np.asarray(data.values, dtype=np.float64)
    best = None
    for seed, labels, centers, ss in _lloyd_sweep(points, k, range(lo, hi + 1)):
        if best is None or ss < best[2] - 1e-12:
            best = (labels.copy(), centers.copy(), ss, seed)
    labels, centers, ss, seed = best
    return KMeansResult(
        assignment={item: int(c) for item, c in zip(data.items, labels)},
        centers=centers,
        total_within_ss=ss,
        best_seed=seed,
    )


def pca_project(data: FactorTable, dims: int) -> FactorTable:
    """Projection onto the top principal components of the centered loadings.

    Components are sign-fixed so the largest-|loading| entry is positive;
    variance explained per retained component rides along on the result.
    """
    if dims > data.dims:
        raise ValidationError(f"cannot project {data.dims}-D data onto {dims} dims")
    centered = data.values - data.values.mean(axis=0, keepdims=True)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:dims]
    for i in range(dims):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    projected = centered @ components.T
    total_var = float((singular**2).sum())
    explained = tuple(
        float(s * s / total_var) if total_var > 0 else 0.0 for s in singular[:dims]
    )
    return FactorTable(items=data.items, values=projected, variance_explained=explained)


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]
    axes: tuple[float, float]  # half-axis lengths, major first
    angle: float  # degrees, major axis vs x-axis, in [0, 180)


def confidence_ellipse(points, level: float) -> Ellipse:
    """Concentration ellipse of 2-D points at the given probability level.

    Center is the mean; orientation and shape come from the sample covariance
    eigendecomposition, scaled by the bivariate t-quantile
    sqrt(2 F^-1(level; 2, n-1)).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError("points must be n x 2")
    if pts.shape[0] < 3:
        raise ValidationError("need at least 3 points")
    if not (0.0 < level < 1.0):
        raise ValidationError("level must be in (0, 1)")
    center = pts.mean(axis=0)
    cov = np.cov(pts, rowvar=False, ddof=1)
    eigval, eigvec = np.linalg.eigh(cov)
    eigval = np.maximum(eigval, 0.0)
    if eigval.min() <= 1e-15 * max(eigval.max(), 1.0):
        warnings.warn("degenerate covariance; returning a zero-axis ellipse")
        eigval[eigval <= 1e-15 * max(eigval.max(), 1.0)] = 0.0
    order = np.argsort(eigval)[::-1]
    eigval = eigval[order]
    eigvec = eigvec[:, order]
    n = pts.shape[0]
    # F quantile via the inverse regularized incomplete beta
    scale2 = 2.0 * _f_quantile(level, 2, n - 1)
    axes = tuple(float(math.sqrt(v * scale2)) for v in eigval)
    angle = math.degrees(math.atan2(eigvec[1, 0], eigvec[0, 0])) % 180.0
    return Ellipse(center=(float(center[0]), float(center[1])), axes=axes, angle=angle)


def _f_quantile(level: float, dfn: int, dfd: int) -> float:
    x = special.betaincinv(dfn / 2.0, dfd / 2.0, level)
    return dfd * x / (dfn * (1.0 - x))


def pearson_significance(r: float, df: int) -> tuple[float, float]:
    """Student-t transform of a Pearson correlation: t = r sqrt(df/(1-r^2))
    and the two-tailed p at ``df`` degrees of freedom."""
    if df < 1:
        raise ValidationError("df must be >= 1")
    if abs(r) > 1.0:
        raise ValidationError("|r| cannot exceed 1")
    if abs(r) == 1.0:
        return math.copysign(math.inf, r), 0.0
    t = r * math.sqrt(df / (1.0 - r * r))
    p = float(2.0 * _t_sf(abs(t), df))
    return t, p


def _t_sf(t: float, df: int) -> float:
    return 0.5 * special.betainc(df / 2.0, 0.5, df / (df + t * t))


def _midranks(pooled: np.ndarray) -> np.ndarray:
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    sorted_vals = pooled[order]
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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


_EXACT_LIMIT = 400  # largest len(a) * len(b) with an enumerated null distribution


def mann_whitney_u(a, b) -> tuple[float, float]:
    """Rank-sum U of the first sample and a two-tailed p value.

    The exact null distribution is enumerated when ``len(a) * len(b)`` is at
    most ``_EXACT_LIMIT`` and the pooled values are tie-free; otherwise a
    normal approximation with tie and continuity corrections applies.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValidationError("both samples must be nonempty")
    n_a, n_b = a.size, b.size
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    rank_a = ranks[:n_a].sum()
    u_a = rank_a - n_a * (n_a + 1) / 2.0

    _, tie_counts = np.unique(pooled, return_counts=True)
    has_ties = bool((tie_counts > 1).any())

    if not has_ties and n_a * n_b <= _EXACT_LIMIT:
        counts = _exact_u_counts(n_a, n_b)
        total = sum(counts)
        u_low = min(u_a, n_a * n_b - u_a)
        cdf = sum(counts[u] for u in range(int(u_low) + 1))
        p = min(1.0, 2.0 * cdf / total)
        return float(u_a), float(p)

    n = n_a + n_b
    mu = n_a * n_b / 2.0
    tie_term = float(((tie_counts**3) - tie_counts).sum())
    sigma2 = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma2 <= 0:
        return float(u_a), 1.0
    z = (abs(u_a - mu) - 0.5) / math.sqrt(sigma2)
    z = max(z, 0.0)
    p = float(special.erfc(z / math.sqrt(2.0)))
    return float(u_a), min(1.0, p)


def fold_model_edges(params, absolute: bool = True) -> dict:
    """Collapse a model's directed coefficients onto unordered item pairs.

    At most one direction exists per pair in a DAG; magnitudes are reported by
    default, matching how the reference comparison tables are published.
    """
    folded: dict[frozenset, float] = {}
    for parent, child, coeff in params.arc_items():
        pair = frozenset((parent, child))
        folded[pair] = folded.get(pair, 0.0) + coeff
    if absolute:
        folded = {k: abs(v) for k, v in folded.items()}
    return folded


def edge_set_correlation(ours: dict, theirs: dict, mode: str = "union"):
    """Pearson correlation between two edge-weight maps.

    ``union`` pairs weighted in either map (zero-imputed on the missing side);
    ``intersection`` pairs weighted in both.  Returns (n_pairs, r, t, p) with
    df = n_pairs - 2.
    """
    if mode == "union":
        pairs = sorted(set(ours) | set(theirs), key=sorted)
    elif mode == "intersection":
        pairs = sorted(set(ours) & set(theirs), key=sorted)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    if len(pairs) < 3:
        raise ValidationError(f"{mode} set has {len(pairs)} pairs; need at least 3")
    x = np.array([ours.get(p, 0.0) for p in pairs])
    y = np.array([theirs.get(p, 0.0) for p in pairs])
    r = float(np.corrcoef(x, y)[0, 1])
    t, p = pearson_significance(r, len(pairs) - 2)
    return len(pairs), r, t, p
