import gc
import io
import itertools
import math

import numpy as np
import pytest
from scipy import stats as sps

from attachnet import fixtures
from attachnet.compare import (
    FactorTable,
    confidence_ellipse,
    edge_set_correlation,
    fold_model_edges,
    kmeans_best_seed,
    mann_whitney_u,
    pca_project,
    pearson_significance,
)
from attachnet.errors import ValidationError


def table_from(items, values):
    return FactorTable(items=tuple(items), values=np.asarray(values, dtype=float))


# -- k-means -------------------------------------------------------------


def test_kmeans_single_cluster_ss_is_total_scatter(rng):
    values = rng.normal(size=(12, 3))
    data = table_from([f"i{k}" for k in range(12)], values)
    result = kmeans_best_seed(data, k=1, seed_range=(1, 5))
    scatter = ((values - values.mean(axis=0)) ** 2).sum()
    assert result.total_within_ss == pytest.approx(scatter)
    assert set(result.assignment.values()) == {0}


def test_kmeans_k_equals_n_gives_zero_ss(rng):
    values = rng.normal(size=(6, 2))
    data = table_from([f"i{k}" for k in range(6)], values)
    result = kmeans_best_seed(data, k=6, seed_range=(1, 50))
    assert result.total_within_ss == pytest.approx(0.0, abs=1e-12)


def test_kmeans_k_cannot_exceed_n(rng):
    data = table_from(["a", "b"], rng.normal(size=(2, 2)))
    with pytest.raises(ValidationError):
        kmeans_best_seed(data, k=3, seed_range=(1, 10))


@pytest.mark.parametrize("seed_range", [(5, 1), (-1, 3), (-3, -2)])
def test_kmeans_rejects_bad_seed_range(rng, seed_range):
    data = table_from(["a", "b", "c"], rng.normal(size=(3, 2)))
    with pytest.raises(ValidationError, match="0 <= lo <= hi"):
        kmeans_best_seed(data, k=2, seed_range=seed_range)


def test_kmeans_assignment_is_fixed_point(rng):
    values = rng.normal(size=(15, 2))
    data = table_from([f"i{k}" for k in range(15)], values)
    result = kmeans_best_seed(data, k=3, seed_range=(1, 30))
    for i, item in enumerate(data.items):
        dists = ((values[i] - result.centers) ** 2).sum(axis=1)
        assert result.assignment[item] == int(np.argmin(dists))


def test_kmeans_translation_invariant(rng):
    values = rng.normal(size=(10, 2))
    data = table_from([f"i{k}" for k in range(10)], values)
    shifted = table_from(data.items, values + 47.3)
    a = kmeans_best_seed(data, k=2, seed_range=(1, 100))
    b = kmeans_best_seed(shifted, k=2, seed_range=(1, 100))
    assert a.as_sets() == b.as_sets()
    assert a.total_within_ss == pytest.approx(b.total_within_ss, rel=1e-9)


def test_kmeans_reproduces_reference_avoidance_clusters(fixture_partition):
    data = fixtures.load_factor_table("wei2007_avoidance")
    result = kmeans_best_seed(data, k=2, seed_range=(1, 4000))
    reference = fixture_partition.clusters()
    assert result.as_sets() == frozenset(
        {frozenset(reference["C1"]), frozenset(reference["C5"])}
    )


def test_kmeans_reproduces_reference_anxiety_clusters(fixture_partition):
    data = fixtures.load_factor_table("wei2007_anxiety")
    result = kmeans_best_seed(data, k=3, seed_range=(1, 4000))
    reference = fixture_partition.clusters()
    assert result.as_sets() == frozenset(
        {frozenset(reference["C2"]), frozenset(reference["C3"]), frozenset(reference["C4"])}
    )


# -- PCA -----------------------------------------------------------------


def test_pca_2d_projection_preserves_distances(rng):
    values = rng.normal(size=(9, 2))
    data = table_from([f"i{k}" for k in range(9)], values)
    projected = pca_project(data, dims=2)
    for i in range(9):
        for j in range(i + 1, 9):
            original = np.linalg.norm(values[i] - values[j])
            mapped = np.linalg.norm(projected.values[i] - projected.values[j])
            assert mapped == pytest.approx(original, abs=1e-9)


def test_pca_rank_one_explains_everything(rng):
    direction = np.array([1.0, 2.0, -1.0])
    weights = rng.normal(size=10)
    data = table_from([f"i{k}" for k in range(10)], np.outer(weights, direction))
    projected = pca_project(data, dims=1)
    assert projected.variance_explained[0] == pytest.approx(1.0)


def test_pca_reconstruction_error_matches_discarded_spectrum(rng):
    values = rng.normal(size=(12, 4))
    data = table_from([f"i{k}" for k in range(12)], values)
    centered = values - values.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    projected = pca_project(data, dims=2)
    # error energy = sum of squared discarded singular values
    kept = centered @ vt[:2].T @ vt[:2]
    err = ((centered - kept) ** 2).sum()
    assert err == pytest.approx((singular[2:] ** 2).sum(), rel=1e-9)
    # and the projection's variance matches the kept spectrum
    assert (projected.values ** 2).sum() == pytest.approx((singular[:2] ** 2).sum(), rel=1e-9)


def test_pca_output_columns_uncorrelated(rng):
    values = rng.normal(size=(20, 4))
    data = table_from([f"i{k}" for k in range(20)], values)
    projected = pca_project(data, dims=3)
    cov = np.cov(projected.values, rowvar=False)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 1e-9


def test_pca_rejects_too_many_dims(rng):
    data = table_from(["a", "b", "c"], rng.normal(size=(3, 2)))
    for dims in (3, 0, -1):
        with pytest.raises(ValidationError):
            pca_project(data, dims=dims)


def test_factor_table_csv_round_trip(rng):
    data = table_from(["a", "b", "c"], rng.normal(size=(3, 3)))
    again = FactorTable.from_csv(io.StringIO(data.to_csv()))
    assert again.items == data.items
    assert np.allclose(again.values, data.values)


# -- confidence ellipse ----------------------------------------------------


def test_ellipse_axis_aligned_symmetric_points():
    pts = [(3, 0), (-3, 0), (0, 1), (0, -1)]
    e = confidence_ellipse(pts, level=0.95)
    assert e.center == pytest.approx((0.0, 0.0))
    assert e.angle == pytest.approx(0.0, abs=1e-9)
    assert e.axes[0] > e.axes[1]


def test_ellipse_isotropic_cloud_has_equal_axes(rng):
    pts = rng.normal(size=(10_000, 2))
    e = confidence_ellipse(pts, level=0.95)
    assert e.axes[0] / e.axes[1] == pytest.approx(1.0, abs=0.05)


def test_ellipse_level_monotone(rng):
    pts = rng.normal(size=(40, 2)) @ np.array([[2.0, 0.3], [0.0, 0.5]])
    lo = confidence_ellipse(pts, level=0.5)
    hi = confidence_ellipse(pts, level=0.95)
    assert hi.axes[0] > lo.axes[0]
    assert hi.axes[1] > lo.axes[1]


def test_ellipse_needs_three_points():
    with pytest.raises(ValidationError):
        confidence_ellipse([(0, 0), (1, 1)], level=0.9)


def test_ellipse_degenerate_covariance_warns():
    pts = [(0, 0), (1, 0), (2, 0), (3, 0)]
    with pytest.warns(UserWarning, match="degenerate"):
        e = confidence_ellipse(pts, level=0.9)
    assert e.axes[1] == 0.0


# -- Pearson significance ----------------------------------------------------


def test_pearson_zero_r():
    t, p = pearson_significance(0.0, 15)
    assert t == 0.0
    assert p == pytest.approx(1.0)


def test_pearson_formula_against_scipy(rng):
    for _ in range(20):
        r = float(rng.uniform(-0.95, 0.95))
        df = int(rng.integers(3, 60))
        t, p = pearson_significance(r, df)
        assert t == pytest.approx(r * math.sqrt(df / (1 - r * r)), rel=1e-12)
        assert p == pytest.approx(2 * sps.t.sf(abs(t), df), rel=1e-9)


def test_pearson_symmetry():
    t_pos, p_pos = pearson_significance(0.4, 20)
    t_neg, p_neg = pearson_significance(-0.4, 20)
    assert t_neg == -t_pos
    assert p_neg == p_pos


def test_pearson_perfect_correlation():
    t, p = pearson_significance(1.0, 10)
    assert math.isinf(t) and t > 0
    assert p == 0.0
    t, p = pearson_significance(-1.0, 10)
    assert math.isinf(t) and t < 0


def test_pearson_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        pearson_significance(1.5, 10)
    with pytest.raises(ValidationError):
        pearson_significance(0.5, 0)


def test_pearson_published_values():
    t, p = pearson_significance(0.626, 10)
    assert t == pytest.approx(2.54, abs=5e-3)
    assert p == pytest.approx(0.0294, rel=0.05)
    # the published t=7.094 pairs with the unrounded r (~0.8228); at r=0.823
    # exactly, the transform gives 7.0978
    t, p = pearson_significance(0.823, 24)
    assert t == pytest.approx(7.0978, abs=1e-3)
    assert p == pytest.approx(2.48e-7, rel=0.05)


# -- Mann-Whitney ------------------------------------------------------------


def test_mwu_identical_samples():
    u, p = mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert u == pytest.approx(4.5)
    assert p >= 0.99


def test_mwu_complete_separation_exact():
    u, p = mann_whitney_u([4, 5, 6], [1, 2, 3])
    assert u == 9.0
    assert p == pytest.approx(0.1)


def test_mwu_exact_p_matches_enumeration_oracle():
    a = [0.9, 2.1, 3.7]
    b = [1.4, 2.6, 0.2]
    u_obs, p = mann_whitney_u(a, b)
    # two-tailed: count arrangements at least as extreme in either tail
    count_extreme = 0
    total = 0
    u_min = min(u_obs, 9 - u_obs)
    for combo in itertools.combinations(range(6), 3):
        ranks_a = [i + 1 for i in combo]
        u = sum(ranks_a) - 6
        total += 1
        if min(u, 9 - u) <= u_min:
            count_extreme += 1
    assert p == pytest.approx(min(1.0, count_extreme / total))


def test_mwu_matches_scipy_exact(rng):
    for _ in range(10):
        a = rng.normal(size=int(rng.integers(3, 9)))
        b = rng.normal(loc=0.5, size=int(rng.integers(3, 9)))
        u, p = mann_whitney_u(a, b)
        ref = sps.mannwhitneyu(a, b, alternative="two-sided", method="exact")
        assert u == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)


def test_mwu_exact_path_leaves_no_reference_cycle():
    """The exact null distribution's memo is freed on return, not left in a
    cycle for the garbage collector (it held megabytes at 18 x 18)."""
    gc.collect()
    u, _ = mann_whitney_u(np.arange(18.0), np.arange(18.0) + 0.5)
    assert u == 153.0
    assert gc.collect() == 0


@pytest.mark.parametrize("a,b", [
    pytest.param([1.0, np.nan, 3.0], [2.0, 4.0, 5.0], id="first"),
    pytest.param([1.0, 3.0], [2.0, np.nan], id="second"),
])
def test_mwu_rejects_nan(a, b):
    with pytest.raises(ValidationError, match="^samples must not contain NaN$"):
        mann_whitney_u(a, b)


def test_mwu_ranks_infinities():
    assert mann_whitney_u([1.0, np.inf, 3.0], [2.0, 4.0, 5.0]) == (4.0, 1.0)
    assert mann_whitney_u([-np.inf, 1.0], [2.0, np.inf]) == (0.0, pytest.approx(1 / 3))


def test_mwu_matches_scipy_asymptotic_with_ties(rng):
    a = list(rng.integers(1, 6, size=30).astype(float))
    b = list(rng.integers(2, 7, size=25).astype(float))
    u, p = mann_whitney_u(a, b)
    ref = sps.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
    assert u == pytest.approx(ref.statistic)
    assert p == pytest.approx(ref.pvalue, rel=1e-6)


def test_mwu_invariant_under_monotone_transform(rng):
    a = rng.normal(size=12)
    b = rng.normal(loc=1.0, size=15)
    u1, p1 = mann_whitney_u(a, b)
    u2, p2 = mann_whitney_u(np.exp(a), np.exp(b))
    assert u1 == u2
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_mwu_rejects_empty():
    with pytest.raises(ValidationError):
        mann_whitney_u([], [1.0])


def test_mwu_fixture_intercepts(fixture_model, polarity):
    _, params = fixture_model
    positive = [params.intercept[i] for i in params.nodes if polarity[i] == "positive"]
    negative = [params.intercept[i] for i in params.nodes if polarity[i] == "negative"]
    assert len(positive) == 10 and len(negative) == 26
    _, p = mann_whitney_u(positive, negative)
    assert 1e-4 <= p <= 1e-3


# -- edge-set correlation ------------------------------------------------------


def test_edge_sets_identical_gives_unit_correlation():
    edges = {frozenset((f"a{i}", f"b{i}")): float(i + 1) for i in range(5)}
    n, r, t, p = edge_set_correlation(edges, dict(edges), mode="union")
    assert n == 5
    assert r == pytest.approx(1.0)
    assert p == pytest.approx(0.0, abs=1e-12)


def test_edge_sets_need_three_pairs():
    edges = {frozenset(("a", "b")): 1.0}
    with pytest.raises(ValidationError):
        edge_set_correlation(edges, edges, mode="union")


@pytest.mark.parametrize("ours, side", [((0.5, 0.5, 0.5), "ours"), ((0.1, 0.2, 0.4), "theirs")],
                         ids=["both-constant", "theirs-constant"])
def test_edge_sets_reject_constant_weights(ours, side):
    pairs = [frozenset(p) for p in (("a", "b"), ("c", "d"), ("e", "f"))]
    with pytest.raises(ValidationError, match=f"^{side}: all 3 weights on the union set are equal"):
        edge_set_correlation(dict(zip(pairs, ours)), dict.fromkeys(pairs, 0.5), mode="union")


def test_edge_set_union_imputes_zero():
    ours = {frozenset(("a", "b")): 1.0, frozenset(("c", "d")): 2.0}
    theirs = {
        frozenset(("a", "b")): 1.0,
        frozenset(("e", "f")): 3.0,
        frozenset(("g", "h")): 1.0,
    }
    n, r, _, _ = edge_set_correlation(ours, theirs, mode="union")
    assert n == 4
    x = [1.0, 2.0, 0.0, 0.0]
    y = [1.0, 0.0, 3.0, 1.0]
    assert r == pytest.approx(np.corrcoef(x, y)[0, 1])


def test_edge_set_fixture_union_and_intersection():
    ours = fixtures.load_edge_weights("fixture")
    theirs = fixtures.load_edge_weights("external")
    n, r, t, p = edge_set_correlation(ours, theirs, mode="union")
    assert (n, round(r, 3)) == (26, 0.823)
    assert t == pytest.approx(7.094, abs=1e-3)
    assert p == pytest.approx(2.48e-7, rel=0.05)
    n, r, t, p = edge_set_correlation(ours, theirs, mode="intersection")
    assert (n, round(r, 3)) == (12, 0.626)
    assert t == pytest.approx(2.54, abs=5e-3)
    assert p == pytest.approx(0.0294, rel=0.05)


def test_folded_model_edges_match_fixture_table(fixture_model):
    _, params = fixture_model
    folded = fold_model_edges(params, absolute=True)
    published = fixtures.load_edge_weights("fixture")
    for pair, weight in published.items():
        assert folded[pair] == pytest.approx(weight, abs=5e-4)


def test_unknown_mode_rejected():
    edges = {frozenset((str(i), str(i + 100))): 1.0 for i in range(4)}
    with pytest.raises(ValidationError):
        edge_set_correlation(edges, edges, mode="both")
