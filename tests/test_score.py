import math

import numpy as np
import pytest

from attachnet.dag import Dag
from attachnet.errors import ValidationError
from attachnet.params import fit_mle, simulate
from attachnet.score import graph_score, local_score, stats_from_matrix, sufficient_stats
from conftest import make_table


def test_identical_rows_zero_covariance():
    stats = sufficient_stats(make_table([[2, 5, 1], [2, 5, 1]]))
    assert np.allclose(stats.cov, 0.0)
    assert np.allclose(stats.mean, [2, 5, 1])


def test_hand_computed_covariance():
    stats = sufficient_stats(make_table([[0, 0], [1, 1]]))
    assert np.allclose(stats.cov, [[0.25, 0.25], [0.25, 0.25]])


def test_covariance_matches_double_loop_oracle(rng):
    rows = rng.normal(size=(5, 3))
    stats = stats_from_matrix(rows, ("a", "b", "c"))
    n = rows.shape[0]
    mean = rows.sum(axis=0) / n
    oracle = np.zeros((3, 3))
    for j in range(3):
        for k in range(3):
            for i in range(n):
                oracle[j, k] += (rows[i, j] - mean[j]) * (rows[i, k] - mean[k])
    oracle /= n
    assert np.allclose(stats.cov, oracle, atol=1e-12)


def test_covariance_symmetric_and_psd(rng):
    rows = rng.normal(size=(30, 5)) @ rng.normal(size=(5, 5))
    stats = stats_from_matrix(rows, tuple("abcde"))
    assert np.array_equal(stats.cov, stats.cov.T)
    assert np.linalg.eigvalsh(stats.cov).min() >= -1e-9


def test_metric_variants_ordered_by_penalty(rng):
    rows = rng.normal(size=(200, 2))
    stats = stats_from_matrix(rows, ("a", "b"))
    ll = local_score("b", ("a",), stats, metric="loglik")
    aic = local_score("b", ("a",), stats, metric="aic")
    bic = local_score("b", ("a",), stats, metric="bic")
    assert aic == pytest.approx(ll - 3)  # one parent + intercept + variance
    assert bic == pytest.approx(ll - 1.5 * math.log(200))
    assert bic < aic < ll


def test_requires_two_rows():
    with pytest.raises(ValidationError):
        sufficient_stats(make_table([[1, 2]]))


def test_rejects_missing_values():
    with pytest.raises(ValidationError):
        sufficient_stats(make_table([[1, np.nan], [2, 3]]))


def test_empty_parent_closed_form(rng):
    rows = rng.normal(loc=3.0, scale=2.0, size=(50, 2))
    stats = stats_from_matrix(rows, ("a", "b"))
    n = stats.n
    var = stats.cov[0, 0]
    expected = n / 2 * (-math.log(2 * math.pi * var) - 1) - math.log(n)
    assert local_score("a", (), stats) == pytest.approx(expected, rel=1e-12)


def test_independent_parent_lowers_bic(rng):
    # exactly orthogonal columns: adding the parent pays penalty, gains nothing
    x = np.array([1.0, 1.0, -1.0, -1.0] * 4)
    y = np.array([1.0, -1.0, 1.0, -1.0] * 4)
    stats = stats_from_matrix(np.column_stack([x, y]), ("x", "y"))
    assert local_score("y", ("x",), stats) < local_score("y", (), stats)


def test_informative_parent_raises_bic(rng):
    x = rng.normal(size=1000)
    y = 2 * x + rng.normal(scale=0.1, size=1000)
    stats = stats_from_matrix(np.column_stack([x, y]), ("x", "y"))
    assert local_score("y", ("x",), stats) > local_score("y", (), stats)


def test_graph_score_decomposes(rng):
    rows = rng.normal(size=(100, 3))
    stats = stats_from_matrix(rows, ("a", "b", "c"))
    dag = Dag(("a", "b", "c"), set())
    total = sum(local_score(v, (), stats) for v in "abc")
    assert graph_score(dag, stats) == pytest.approx(total, rel=1e-12)


def test_score_equivalence_of_markov_equivalent_dags(rng):
    x = rng.normal(size=500)
    y = 0.8 * x + rng.normal(scale=0.5, size=500)
    stats = stats_from_matrix(np.column_stack([x, y]), ("x", "y"))
    forward = graph_score(Dag(("x", "y"), {("x", "y")}), stats)
    backward = graph_score(Dag(("x", "y"), {("y", "x")}), stats)
    assert forward == pytest.approx(backward, abs=1e-8)


def test_graph_score_matches_ols_refit_oracle(rng):
    rows = rng.normal(size=(200, 4))
    rows[:, 3] += 0.5 * rows[:, 0] - 0.7 * rows[:, 2]
    items = ("a", "b", "c", "d")
    stats = stats_from_matrix(rows, items)
    dag = Dag(items, {("a", "d"), ("c", "d"), ("a", "b")})
    n = stats.n
    expected = 0.0
    col = {v: i for i, v in enumerate(items)}
    for node in items:
        parents = dag.parents(node)
        design = np.column_stack([np.ones(n)] + [rows[:, col[p]] for p in parents])
        beta, _, _, _ = np.linalg.lstsq(design, rows[:, col[node]], rcond=None)
        resid = rows[:, col[node]] - design @ beta
        var = resid @ resid / n
        ll = -n / 2 * (math.log(2 * math.pi * var) + 1)
        expected += ll - (len(parents) + 2) / 2 * math.log(n)
    assert graph_score(dag, stats) == pytest.approx(expected, rel=1e-9)


def test_loglik_equals_joint_gaussian_logpdf_under_fitted_params(fixture_model, rng):
    """The summed local log-likelihoods are the log density of the rows under
    the joint Gaussian that ``fit_mle``'s parameters define: x = c + B x + e
    gives mean (I - B)^-1 c and covariance (I - B)^-1 D (I - B)^-T."""
    from scipy.stats import multivariate_normal

    dag, model = fixture_model
    rows = simulate(dag, model, 2000, rng)
    table = make_table(rows, items=dag.nodes)
    params = fit_mle(dag, table)
    col = {v: i for i, v in enumerate(dag.nodes)}
    m = len(dag.nodes)
    coef = np.zeros((m, m))
    for parent, child, value in params.arc_items():
        coef[col[child], col[parent]] = value
    inv = np.linalg.inv(np.eye(m) - coef)
    mean = inv @ np.array([params.intercept[v] for v in dag.nodes])
    noise = np.diag([params.residual_sd[v] ** 2 for v in dag.nodes])
    want = multivariate_normal.logpdf(rows, mean=mean, cov=inv @ noise @ inv.T).sum()
    got = graph_score(dag, sufficient_stats(table), metric="loglik")
    assert got == pytest.approx(want, rel=1e-12)


def test_likelihood_term_monotone_in_parents(rng):
    rows = rng.normal(size=(300, 4))
    items = ("a", "b", "c", "d")
    stats = stats_from_matrix(rows, items)
    previous = local_score("d", (), stats, metric="loglik")
    for parents in [("a",), ("a", "b"), ("a", "b", "c")]:
        current = local_score("d", parents, stats, metric="loglik")
        assert current >= previous - 1e-9
        previous = current


def test_singular_parents_fall_back_to_ridge(rng):
    x = rng.normal(size=100)
    rows = np.column_stack([x, x, rng.normal(size=100)])  # duplicated column
    stats = stats_from_matrix(rows, ("a", "b", "c"))
    value = local_score("c", ("a", "b"), stats)
    assert math.isfinite(value)


def test_node_in_own_parents_rejected(rng):
    stats = stats_from_matrix(rng.normal(size=(10, 2)), ("a", "b"))
    with pytest.raises(ValidationError):
        local_score("a", ("a",), stats)



def test_repeated_parent_rejected(rng):
    """A repeated parent names a singular block that the ridge retry would
    score; it is an error instead."""
    stats = stats_from_matrix(rng.normal(size=(50, 3)), ("a", "b", "c"))
    with pytest.raises(ValidationError, match="^repeated parent 'b'$"):
        local_score("a", ("b", "b"), stats)
    with pytest.raises(ValidationError, match="^repeated parent 'c'$"):
        local_score("a", ("c", "b", "c"), stats)


@pytest.mark.parametrize("metric", ["BIC", "bdeu", ""])
def test_unknown_metric_rejected(rng, metric):
    stats = stats_from_matrix(rng.normal(size=(50, 2)), ("a", "b"))
    message = f"^unknown metric {metric!r}$"
    with pytest.raises(ValidationError, match=message):
        local_score("a", ("b",), stats, metric=metric)
    with pytest.raises(ValidationError, match=message):
        graph_score(Dag(("a", "b"), {("b", "a")}), stats, metric=metric)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_covariance_rejected(rng, bad):
    rows = rng.normal(size=(50, 3))
    rows[7, 1] = bad
    stats = stats_from_matrix(rows, ("a", "b", "c"))
    with pytest.raises(ValidationError, match="^covariance has non-finite entries$"):
        graph_score(Dag(("a", "b", "c"), {("a", "c")}), stats)
    with pytest.raises(ValidationError, match="^covariance has non-finite entries$"):
        local_score("c", ("a",), stats)
