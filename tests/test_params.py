import io
import math
import shutil

import numpy as np
import pytest

from attachnet import fixtures
from attachnet.dag import Dag
from attachnet.errors import FixtureError, ValidationError
from attachnet.fixtures import load_fixture_model, load_polarity
from attachnet.params import (
    fit_mle,
    intercept_report,
    read_model,
    simulate,
    write_model,
)
from attachnet.score import graph_score, stats_from_matrix
from conftest import make_table


def test_orphan_node_gets_sample_moments(rng):
    rows = rng.normal(loc=2.5, scale=1.5, size=(500, 1))
    table = make_table(rows, items=("a",))
    params = fit_mle(Dag(("a",), set()), table)
    assert params.intercept["a"] == pytest.approx(rows.mean(), rel=1e-9)
    assert params.residual_sd["a"] == pytest.approx(rows.std(), rel=1e-9)  # ML denominator


def test_linear_relation_recovered(rng):
    x = rng.normal(size=10_000)
    y = 2 * x + 1 + rng.normal(scale=0.01, size=10_000)
    table = make_table(np.column_stack([x, y]), items=("x", "y"))
    params = fit_mle(Dag(("x", "y"), {("x", "y")}), table)
    assert params.coefficient("x", "y") == pytest.approx(2.0, abs=0.01)
    assert params.intercept["y"] == pytest.approx(1.0, abs=0.01)


def test_residuals_orthogonal_to_parents(rng):
    n = 400
    rows = rng.normal(size=(n, 3))
    rows[:, 2] += 0.6 * rows[:, 0] - 0.3 * rows[:, 1]
    table = make_table(rows, items=("a", "b", "c"))
    dag = Dag(("a", "b", "c"), {("a", "c"), ("b", "c")})
    params = fit_mle(dag, table)
    resid = (
        rows[:, 2]
        - params.intercept["c"]
        - params.coefficient("a", "c") * rows[:, 0]
        - params.coefficient("b", "c") * rows[:, 1]
    )
    for j in range(2):
        centered = rows[:, j] - rows[:, j].mean()
        assert abs(resid @ centered) < 1e-6 * n


def test_fit_matches_graph_score(rng):
    n = 600
    rows = rng.normal(size=(n, 3))
    rows[:, 1] += 0.8 * rows[:, 0]
    table = make_table(rows, items=("a", "b", "c"))
    dag = Dag(("a", "b", "c"), {("a", "b")})
    params = fit_mle(dag, table)
    loglik = sum(
        -n / 2 * (math.log(2 * math.pi * params.residual_sd[v] ** 2) + 1)
        for v in dag.nodes
    )
    penalty = sum((dag.in_degree(v) + 2) / 2 * math.log(n) for v in dag.nodes)
    stats = stats_from_matrix(rows, table.items)
    assert graph_score(dag, stats) == pytest.approx(loglik - penalty, rel=1e-6)


def test_simulated_refit_recovers_coefficients(rng, fixture_model):
    dag, params = fixture_model
    rows = simulate(dag, params, n=100_000, rng=rng)
    table = make_table(rows, items=dag.nodes)
    refit = fit_mle(dag, table)
    n = rows.shape[0]
    col = {v: i for i, v in enumerate(dag.nodes)}
    for child in dag.nodes:
        parents = dag.parents(child)
        if not parents:
            continue
        design = np.column_stack([np.ones(n)] + [rows[:, col[p]] for p in parents])
        gram_inv = np.linalg.inv(design.T @ design)
        # 4 SE: 123 simultaneous 3-SE checks would fail ~1 run in 3 by chance
        for j, parent in enumerate(parents, start=1):
            se = params.residual_sd[child] * math.sqrt(gram_inv[j, j])
            assert refit.coefficient(parent, child) == pytest.approx(
                params.coefficient(parent, child), abs=4 * se + 1e-6
            )


def test_unbiased_flag_changes_denominator(rng):
    rows = rng.normal(size=(50, 2))
    table = make_table(rows, items=("a", "b"))
    dag = Dag(("a", "b"), {("a", "b")})
    ml = fit_mle(dag, table)
    unbiased = fit_mle(dag, table, unbiased=True)
    ratio = (unbiased.residual_sd["b"] / ml.residual_sd["b"]) ** 2
    assert ratio == pytest.approx(50 / 48, rel=1e-9)


def test_needs_enough_rows():
    table = make_table([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    dag = Dag(table.items, {("Q01", "Q03"), ("Q02", "Q03")})
    with pytest.raises(ValidationError):
        fit_mle(dag, table)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fit_needs_more_rows_than_parents_plus_one(n):
    table = make_table([[1, 2, 3], [2, 3, 5], [3, 1, 2], [4, 4, 1]][:n])
    dag = Dag(table.items, {("Q01", "Q03"), ("Q02", "Q03")})
    if n <= 3:
        with pytest.raises(ValidationError, match="need more than 3 rows to fit 2 parents"):
            fit_mle(dag, table)
    else:
        assert np.isfinite(fit_mle(dag, table).residual_sd["Q03"])


def test_rank_deficient_design_warns(rng):
    x = rng.normal(size=100)
    rows = np.column_stack([x, x, rng.normal(size=100)])
    table = make_table(rows, items=("a", "b", "c"))
    dag = Dag(("a", "b", "c"), {("a", "c"), ("b", "c")})
    with pytest.warns(UserWarning, match="rank-deficient"):
        fit_mle(dag, table)


def test_intercept_report_sorted_and_flagged(fixture_model, polarity):
    _, params = fixture_model
    report = intercept_report(params, polarity)
    intercepts = [r["intercept"] for r in report.rows]
    assert intercepts == sorted(intercepts, reverse=True)
    assert report.rows[0]["item"] == "Q22"
    assert report.rows[0]["intercept"] == pytest.approx(5.36482)
    by_item = {r["item"]: r for r in report.rows}
    assert by_item["Q23"]["intercept"] == pytest.approx(-0.06296)
    assert by_item["Q16"]["intercept"] == pytest.approx(0.22395)
    assert by_item["Q22"]["polarity"] == "positive"
    assert len(report.values("positive")) == 10
    assert len(report.values("negative")) == 26


def test_intercept_report_requires_full_polarity(fixture_model):
    _, params = fixture_model
    with pytest.raises(ValidationError):
        intercept_report(params, {"Q01": "negative"})


def test_model_json_round_trip(fixture_model):
    dag, params = fixture_model
    text = write_model(dag, params)
    dag2, params2 = read_model(io.StringIO(text))
    assert dag2 == dag
    assert params2.intercept == params.intercept
    assert params2.residual_sd == params.residual_sd
    assert params2.coefficients == params.coefficients


def test_write_model_accepts_a_path(fixture_model, tmp_path):
    dag, params = fixture_model
    path = tmp_path / "m.json"
    text = write_model(dag, params, path)
    assert path.read_text(encoding="utf-8") == text
    assert read_model(path)[0] == dag


def test_model_json_schema_shape(fixture_model):
    import json

    dag, params = fixture_model
    payload = json.loads(write_model(dag, params))
    assert set(payload) == {"nodes"}
    first = payload["nodes"][0]
    assert set(first) == {"name", "intercept", "residual_sd", "parents"}
    parented = next(e for e in payload["nodes"] if e["parents"])
    assert set(parented["parents"][0]) == {"name", "coeff"}


def test_malformed_model_json_rejected():
    with pytest.raises(ValidationError):
        read_model(io.StringIO('{"nodes": [{"name": "a"}]}'))


def test_fixture_model_counts_and_spot_values(fixture_model):
    dag, params = fixture_model
    assert len(dag.nodes) == 36
    assert len(dag.arcs) == 123
    assert params.coefficient("Q05", "Q07") == pytest.approx(0.62769)
    assert params.coefficient("Q02", "Q22") == pytest.approx(-0.41080)
    mean_sd = np.mean([params.residual_sd[n] for n in dag.nodes])
    assert mean_sd == pytest.approx(1.0, abs=0.05)


def test_fixture_loader_rejects_bad_row_counts(tmp_path):
    src_dag, src_params = load_fixture_model()
    nodes_csv = ["item,intercept,stddev"] + [
        f"{n},{src_params.intercept[n]},{src_params.residual_sd[n]}" for n in src_dag.nodes
    ]
    arcs_csv = ["from,to,coefficient"] + [
        f"{u},{v},{c}" for u, v, c in src_params.arc_items()
    ][:-1]  # drop one arc
    (tmp_path / "fixture_nodes.csv").write_text("\n".join(nodes_csv) + "\n")
    (tmp_path / "fixture_arcs.csv").write_text("\n".join(arcs_csv) + "\n")
    with pytest.raises(FixtureError):
        load_fixture_model(str(tmp_path))


@pytest.mark.parametrize("table,column,cell,message", [
    pytest.param("fixture_nodes.csv", "intercept", "oops", "row 4: 'oops' is not a number",
                 id="non-numeric-intercept"),
    pytest.param("fixture_nodes.csv", "stddev", "inf", "row 4: 'inf' is not a finite number",
                 id="infinite-stddev"),
    pytest.param("fixture_arcs.csv", "coefficient", "nan", "row 4: 'nan' is not a finite number",
                 id="nan-coefficient"),
])
def test_fixture_loader_rejects_bad_numbers(tmp_path, table, column, cell, message):
    for name in ("fixture_nodes.csv", "fixture_arcs.csv"):
        shutil.copy(fixtures.data_path(name), tmp_path / name)
    path = tmp_path / table
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[4].split(",")
    cells[header.index(column)] = cell
    lines[4] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as caught:
        load_fixture_model(str(tmp_path))
    assert str(caught.value) == f"{path}: {message}"


def test_polarity_table_matches_reference_split():
    polarity = load_polarity()
    positives = {i for i, p in polarity.items() if p == "positive"}
    assert positives == {"Q03", "Q15", "Q19", "Q22", "Q25", "Q27", "Q29", "Q31", "Q33", "Q35"}
