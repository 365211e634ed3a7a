"""Golden outputs of ``attachnet export``, ``analyze --dot``, ``compare
pca|ellipse|edges|mwu`` and the arc-strength and stability CSV writers.

The files under ``golden/reports/`` were written by the code that kept a
separate CSV writer in every report class, from inside ``golden/reports/``:

    attachnet export --out-dir export --dot > export_stdout.txt
    attachnet analyze --fixture --dot analyze_network.dot > analyze_dot_stdout.txt
    attachnet compare pca <table> -o pca_<table>.csv > pca_<table>_o.txt
    attachnet compare pca <table> > pca_<table>.txt
    attachnet compare ellipse pca_<table>.csv > ellipse_<table>.txt
    attachnet compare edges fixture external --mode <mode> > edges_<mode>.txt
    attachnet compare mwu ../analysis/analyze/intercepts.csv > mwu_intercepts.txt

for the four bundled factor tables and both edge modes, and by ``to_csv`` of
the hand-built tables below, so that those two do not depend on a search or
on the BLAS build.  Every output must stay byte-identical.
"""
from pathlib import Path

import numpy as np
import pytest

from attachnet.cli import main
from attachnet.fixtures import FACTOR_TABLES
from attachnet.structure import ArcStrengthTable, StabilityReport

GOLDEN = Path(__file__).parent / "golden" / "reports"


def _check_run(argv, stdout_name, outputs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / stdout_name).read_text(encoding="utf-8")
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_export_dot_byte_identical(tmp_path, monkeypatch, capsys):
    outputs = [f"export/{name}" for name in
               ("model.json", "arcs.csv", "clusters.csv", "intercepts.csv", "network.dot")]
    _check_run(["export", "--out-dir", "export", "--dot"], "export_stdout.txt", outputs,
               tmp_path, monkeypatch, capsys)
    assert sorted(p.name for p in (tmp_path / "export").iterdir()) == sorted(
        Path(name).name for name in outputs)


def test_analyze_dot_byte_identical(tmp_path, monkeypatch, capsys):
    _check_run(["analyze", "--fixture", "--dot", "analyze_network.dot"],
               "analyze_dot_stdout.txt", ["analyze_network.dot"], tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("table", sorted(FACTOR_TABLES))
def test_compare_pca_byte_identical(table, tmp_path, monkeypatch, capsys):
    _check_run(["compare", "pca", table, "-o", f"pca_{table}.csv"], f"pca_{table}_o.txt",
               [f"pca_{table}.csv"], tmp_path, monkeypatch, capsys)
    _check_run(["compare", "pca", table], f"pca_{table}.txt", [], tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("table", sorted(FACTOR_TABLES))
def test_compare_ellipse_byte_identical(table, tmp_path, monkeypatch, capsys):
    _check_run(["compare", "ellipse", str(GOLDEN / f"pca_{table}.csv")], f"ellipse_{table}.txt",
               [], tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("mode", ["union", "intersection"])
def test_compare_edges_byte_identical(mode, tmp_path, monkeypatch, capsys):
    _check_run(["compare", "edges", "fixture", "external", "--mode", mode], f"edges_{mode}.txt",
               [], tmp_path, monkeypatch, capsys)


def test_compare_mwu_byte_identical(tmp_path, monkeypatch, capsys):
    intercepts = GOLDEN.parent / "analysis" / "analyze" / "intercepts.csv"
    _check_run(["compare", "mwu", str(intercepts)], "mwu_intercepts.txt", [],
               tmp_path, monkeypatch, capsys)


def hand_built_strengths() -> ArcStrengthTable:
    """Seven replicates over five items: one-way, split, 50/50 and absent pairs."""
    counts = np.array([
        [0, 7, 2, 0, 1],
        [0, 0, 3, 0, 0],
        [1, 1, 0, 2, 0],
        [0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0],
    ], dtype=np.int64)
    return ArcStrengthTable(items=("Q01", "Q02", "Q10", "Q03", "Q36"), counts=counts,
                            replicates=7)


def hand_built_stability() -> StabilityReport:
    return StabilityReport(entries=(
        {"replicates": 50, "directed_mean": 118.4, "directed_sd": 2.0591260281974,
         "undirected_mean": 1.0 / 3.0, "undirected_sd": 0.0},
        {"replicates": 3000, "directed_mean": 123.0, "directed_sd": 1e-7,
         "undirected_mean": 0.2, "undirected_sd": 123456789.0},
    ))


def test_arc_strength_csv_byte_identical():
    text = hand_built_strengths().to_csv()
    assert text.encode() == (GOLDEN / "arc_strengths.csv").read_bytes()


def test_stability_csv_byte_identical():
    text = hand_built_stability().to_csv()
    assert text.encode() == (GOLDEN / "stability.csv").read_bytes()
