"""Statistical comparison suite against published factor and network studies.

Covers seed-swept k-means over factor loadings, PCA projection, concentration
ellipses, the Pearson-r significance transform, the Mann-Whitney U test and
edge-set correlation between two weighted networks.

scipy is imported where a p value or quantile is computed (the ellipse's F
quantile, the Pearson t-test p and the Mann-Whitney normal approximation),
not with the module: it costs more start-up than the rest of the package, and
every other command runs on numpy alone.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._csv import csv_text, number, read_rows
from ._draws import choice_rows
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


# Start rows per batched Lloyd block, chosen by measuring the analysis
# battery's peak RSS: 512 added about 0.8 MB for a few percent less time, and
# 128 was slower for no less memory.
_SEED_BLOCK = 256
# Seeds whose starts ``kmeans_best_seed`` draws and runs as one block: the
# default 1:4000 is one block, and a wider range runs again in each block the
# starts an earlier block ran, so a call's memory does not grow with it.
_DRAW_BLOCK = 4096


def _lloyd_sweep(points: np.ndarray, starts: np.ndarray, max_iter: int = 300):
    """One Lloyd clustering per row of the ``(S, k)`` index array ``starts``;
    yields ``(labels, centers, ss)`` in row order.

    The rows run ``_SEED_BLOCK`` at a time as ``(rows, k, d)`` centre
    arrays.  Each starts from the points its row names and stops at the first
    iteration whose assignment repeats the previous one, or after
    ``max_iter`` updates.  Every float operation is the one a start-at-a-time
    run makes: distances per centre as ``(x - c) ** 2`` summed over the last
    axis, first-minimum assignment, centres as the row-order sum of their
    points divided by the count (an empty cluster's centre stays put), and
    ``ss`` as a sum over the flattened residuals.
    """
    n, d = points.shape
    k = starts.shape[1]
    block = min(_SEED_BLOCK, len(starts))
    diff = np.empty((block, n, d))  # work buffers shared by every block
    dists = np.empty((block, k, n))
    for first in range(0, len(starts), block):
        centers = points[starts[first : first + block]]
        size = len(centers)
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
        yield from zip(labels, centers, ss.tolist())


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
    across the inclusive seed range, ties to the smaller seed.

    A seed's start, ``default_rng(seed).choice(n, k, replace=False)``,
    depends on ``(n, k, seed)`` only, so seeds that draw the same start share
    one Lloyd run: seeds 1:4000 draw 306 distinct ordered pairs of 18 items
    and 1,205 of 36.  The seeds are drawn ``_DRAW_BLOCK`` at a time by
    ``_draws.choice_rows``, which computes numpy's seeding and choice for the
    whole block in array arithmetic; a seed takes the per-seed
    ``default_rng`` draw only if numpy would reject one of its bounded draws,
    if it is 2**64 or more, or if the table has over 10,000 items, and a
    whole block does if its first row disagrees with ``default_rng``.  Each
    distinct start of a block is swept once, and the block's seeds are
    replayed in order on their start's ``ss``, a seed taking over only when
    it beats the best so far by more than 1e-12.  The winning start is run
    once more for its labels and centres.
    """
    n = len(data.items)
    if k > n:
        raise ValidationError(f"k={k} exceeds the {n} items")
    if k < 1:
        raise ValidationError("k must be >= 1")
    lo, hi = seed_range
    if not 0 <= lo <= hi:
        raise ValidationError(f"seed range must satisfy 0 <= lo <= hi, got {lo}:{hi}")
    points = np.asarray(data.values, dtype=np.float64)
    best_seed = best_start = best_ss = None
    for first in range(lo, hi + 1, _DRAW_BLOCK):
        seeds = range(first, min(first + _DRAW_BLOCK, hi + 1))
        draws = list(map(tuple, choice_rows(seeds, n, k).tolist()))
        distinct = list(dict.fromkeys(draws))
        block_ss = {
            start: ss for start, (_, _, ss) in zip(distinct, _lloyd_sweep(points, np.array(distinct)))
        }
        for seed, start in zip(seeds, draws):
            ss = block_ss[start]
            if best_seed is None or ss < best_ss - 1e-12:
                best_seed, best_start, best_ss = seed, start, ss
    labels, centers, ss = next(_lloyd_sweep(points, np.array([best_start])))
    return KMeansResult(
        assignment={item: int(c) for item, c in zip(data.items, labels)},
        centers=centers,
        total_within_ss=ss,
        best_seed=best_seed,
    )


def pca_project(data: FactorTable, dims: int) -> FactorTable:
    """Projection onto the top principal components of the centered loadings.

    Components are sign-fixed so the largest-|loading| entry is positive;
    variance explained per retained component rides along on the result.
    ``dims`` must lie between 1 and the table's number of columns.
    """
    if dims < 1:
        raise ValidationError(f"dims must be >= 1, got {dims}")
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
    from scipy import special  # imported on first use: see the module docstring

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
    from scipy import special

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

    The classic recursion ways(a, b, u) = ways(a-1, b, u-b) + ways(a, b-1, u),
    bottom up: after step b, ``rows[a]`` lists ways(a, b, u) for u = 0..a*b.
    """
    rows = [[1] for _ in range(n_a + 1)]  # b = 0: one arrangement, U = 0
    for b in range(1, n_b + 1):
        for a in range(1, n_a + 1):
            row = rows[a] + [0] * a  # ways(a, b-1, u), zero for u > a*(b-1)
            row[b:] = [x + y for x, y in zip(row[b:], rows[a - 1])]  # + ways(a-1, b, u-b)
            rows[a] = row
    return rows[n_a]


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
    from scipy import special

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
    df = n_pairs - 2.  A side whose weights on the set are all equal has no
    correlation and raises ``ValidationError``.
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
    for side, w in (("ours", x), ("theirs", y)):
        if w.min() == w.max():
            raise ValidationError(
                f"{side}: all {len(pairs)} weights on the {mode} set are equal; "
                "the correlation is undefined"
            )
    r = float(np.corrcoef(x, y)[0, 1])
    t, p = pearson_significance(r, len(pairs) - 2)
    return len(pairs), r, t, p
