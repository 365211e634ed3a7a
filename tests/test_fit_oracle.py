"""The blocked-QR fit against the per-node SVD fit it replaced and against
exact rational least squares.

``reference_params.fit_mle`` solves every node on its own n-row design.
``attachnet.params.fit_mle`` solves it on the R factor of the table, which
moves the coefficients in the last bits only: where the reference raises no
warning, every intercept, coefficient and residual sd must agree to
``reference_params.RELATIVE_BOUND`` (1e-11) relative, and the rank-deficient
warnings must be the same set everywhere.
"""
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from attachnet import fixtures
from attachnet.dag import Dag
from attachnet.ingest import CohortFilter, filter_cohort, parse_responses
from attachnet.params import _FIT_BLOCK, fit_mle, simulate
import reference_params
from reference_params import fit_with_warnings
from conftest import make_table

GOLDEN = Path(__file__).parent / "golden"


def beta(params, dag, node):
    """Intercept then coefficients in ``dag.parents`` order."""
    return np.array([params.intercept[node]]
                    + [params.coefficients[node][p] for p in dag.parents(node)])


def assert_matches_reference(dag, table, **kwargs):
    """Same warnings as the reference fit and, on every node it does not
    warn about, the same parameters to ``RELATIVE_BOUND``; the warnings."""
    new, new_warnings = fit_with_warnings(fit_mle, dag, table, **kwargs)
    ref, ref_warnings = fit_with_warnings(reference_params.fit_mle, dag, table, **kwargs)
    assert new_warnings == ref_warnings
    difference = reference_params.relative_difference(dag, table, new, ref, ref_warnings)
    assert difference <= reference_params.RELATIVE_BOUND
    return ref_warnings


def seeded_rows(kind, n, m, seed):
    rng = np.random.default_rng(seed)
    if kind == "likert":
        return rng.integers(1, 6, size=(n, m)).astype(np.float64)
    return rng.normal(loc=3.0, scale=1.5, size=(n, m))


def random_dag(rng, m, max_parents):
    nodes = tuple(f"Q{i + 1:02d}" for i in range(m))
    order = rng.permutation(m)
    arcs = set()
    for pos in range(1, m):
        for j in rng.choice(pos, size=int(rng.integers(0, min(pos, max_parents) + 1)), replace=False):
            arcs.add((nodes[order[j]], nodes[order[pos]]))
    return Dag(nodes, arcs)


@pytest.mark.parametrize("unbiased", [False, True])
def test_golden_cohort_matches_reference(unbiased):
    table = filter_cohort(parse_responses(str(GOLDEN / "cohort.csv")),
                          CohortFilter(require_complete=True))
    dag, _ = fixtures.load_fixture_model()
    assert assert_matches_reference(dag, table, unbiased=unbiased) == set()


@pytest.mark.parametrize("kind", ["likert", "gaussian"])
@pytest.mark.parametrize("n", [9, _FIT_BLOCK // 2, _FIT_BLOCK + 1, 20 * _FIT_BLOCK + 77],
                         ids=["p+2", "under-one-block", "one-past-a-block", "several-blocks"])
def test_seeded_tables_match_reference(fixture_model, kind, n):
    dag, _ = fixture_model
    assert max(dag.in_degree(v) for v in dag.nodes) + 2 == 9
    assert_matches_reference(dag, make_table(seeded_rows(kind, n, 36, seed=n)))


def _shared_parents(dag):
    return next(dag.parents(v) for v in dag.nodes if dag.in_degree(v) >= 2)


@pytest.mark.parametrize("kind", ["likert", "gaussian"])
@pytest.mark.parametrize("n", [9, _FIT_BLOCK // 2, _FIT_BLOCK + 1])
@pytest.mark.parametrize("defect", ["duplicated", "constant"])
def test_degenerate_columns_warn_as_the_reference_does(fixture_model, kind, n, defect):
    dag, _ = fixture_model
    rows = seeded_rows(kind, n, 36, seed=n + 1)
    col = {item: i for i, item in enumerate(dag.nodes)}
    first, second = (col[p] for p in _shared_parents(dag)[:2])
    if defect == "duplicated":
        rows[:, second] = rows[:, first]
    else:
        rows[:, first] = 3.0
    assert assert_matches_reference(dag, make_table(rows, items=dag.nodes))


@pytest.mark.parametrize("noise,warns", [(3.4e-13, True), (3.4e-11, False)])
def test_rank_cutoff_scales_with_the_table_rows(fixture_model, noise, warns):
    """Two parents, one the other plus ``noise``, give designs whose smallest
    singular value is 4.3e-14 or 4.3e-12 of the largest: under and over the
    cutoff eps * n = 7.0e-13 at n = 3149.  A cutoff scaled with R's 37 rows
    (8.2e-15) would miss the first; a 100 times larger one would flag the
    second."""
    dag, _ = fixture_model
    n = 3149
    rows = seeded_rows("gaussian", n, 36, seed=5)
    col = {item: i for i, item in enumerate(dag.nodes)}
    first, second = (col[p] for p in _shared_parents(dag)[:2])
    rows[:, second] = rows[:, first] + noise * np.random.default_rng(6).normal(size=n)
    table = make_table(rows, items=dag.nodes)
    _, messages = fit_with_warnings(fit_mle, dag, table)
    _, ref_messages = fit_with_warnings(reference_params.fit_mle, dag, table)
    assert messages == ref_messages
    assert bool(messages) == warns


def test_random_tables_warn_as_the_reference_does():
    """Random DAGs on 2-11 Likert or Gaussian columns, some with a duplicated
    or a constant column, at sizes around the block boundary."""
    rng = np.random.default_rng(22)
    warned = 0
    for _ in range(60):
        m = int(rng.integers(2, 12))
        dag = random_dag(rng, m, int(rng.integers(1, m)))
        p = max(dag.in_degree(v) for v in dag.nodes)
        n = int(rng.choice([p + 2, p + 3, 50, _FIT_BLOCK - 1, _FIT_BLOCK + 1]))
        rows = seeded_rows(rng.choice(["likert", "gaussian"]), n, m, seed=int(rng.integers(1 << 30)))
        if rng.random() < 0.3:
            a, b = rng.choice(m, size=2, replace=False)
            rows[:, b] = rows[:, a]
        if rng.random() < 0.3:
            rows[:, rng.integers(m)] = float(rng.integers(1, 6))
        warned += bool(assert_matches_reference(dag, make_table(rows)))
    assert warned >= 5  # the sweep reaches the ridge fallback


def exact_least_squares(rows, target, predictors):
    """The intercept and coefficients of the least-squares fit of integer
    column ``target`` of ``rows`` on columns ``predictors``, solved in
    fractions from the normal equations (whose integer sums int64 holds
    exactly here); None when the design is singular."""
    design = np.column_stack([np.ones(len(rows), dtype=np.int64)] + [rows[:, k] for k in predictors])
    gram, rhs = design.T @ design, design.T @ rows[:, target]
    p = len(rhs)
    a = [[Fraction(int(g)) for g in gram[i]] + [Fraction(int(rhs[i]))] for i in range(p)]
    for c in range(p):
        pivot = next((r for r in range(c, p) if a[r][c] != 0), None)
        if pivot is None:
            return None
        a[c], a[pivot] = a[pivot], a[c]
        for r in range(p):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * z for x, z in zip(a[r], a[c])]
    return np.array([float(a[i][p] / a[i][i]) for i in range(p)])


def test_error_against_exact_least_squares_is_no_worse_than_the_reference():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(40):
        m = int(rng.integers(3, 8))
        dag = random_dag(rng, m, 4)
        n = int(rng.integers(max(dag.in_degree(v) for v in dag.nodes) + 2, 40))
        rows = rng.integers(1, 6, size=(n, m))
        table = make_table(rows.astype(np.float64))
        new, new_warnings = fit_with_warnings(fit_mle, dag, table)
        ref, ref_warnings = fit_with_warnings(reference_params.fit_mle, dag, table)
        assert new_warnings == ref_warnings
        for j, node in enumerate(dag.nodes):
            exact = exact_least_squares(rows, j, [dag.nodes.index(p) for p in dag.parents(node)])
            if exact is None:
                continue
            ours = np.max(np.abs(beta(new, dag, node) - exact))
            theirs = np.max(np.abs(beta(ref, dag, node) - exact))
            assert ours <= 4 * theirs + 1e-13, node
            checked += 1
    assert checked > 150


def test_simulated_cohort_is_within_1e_12_of_exact_least_squares(fixture_model):
    """36,000 Likert rows simulated from the bundled model, so each design's
    columns are correlated as the survey's are: every node's intercept and
    coefficients lie within 1e-12, relative to their largest, of exact least
    squares.  Five perfbench cohorts read at most 1.7e-13 (the reference
    8e-14)."""
    dag, params = fixture_model
    simulated = simulate(dag, params, 36_000, np.random.default_rng(81))
    rows = np.clip(np.round(simulated), 1, 5).astype(np.int64)
    fitted = fit_mle(dag, make_table(rows.astype(np.float64), items=dag.nodes))
    col = {item: i for i, item in enumerate(dag.nodes)}
    for node in dag.nodes:
        exact = exact_least_squares(rows, col[node], [col[p] for p in dag.parents(node)])
        error = np.max(np.abs(beta(fitted, dag, node) - exact))
        assert error <= 1e-12 * np.max(np.abs(exact)), node


def test_fit_peak_allocation_stays_under_a_quarter_of_the_table(fixture_model):
    """The fit reads the table a block of rows at a time: no transposed
    copy, no n-row design or residual, and no table-sized mask for the
    finiteness check.  Reads 0.14 MB against the table's 10.4 MB."""
    dag, _ = fixture_model
    table = make_table(seeded_rows("likert", 36_000, 36, seed=36))
    fit_mle(dag, table)  # first-call allocations (LAPACK workspace queries) are not the fit's
    tracemalloc.start()
    try:
        fit_mle(dag, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.rows.nbytes / 50
