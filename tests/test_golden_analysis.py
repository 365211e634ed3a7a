"""Golden outputs of ``attachnet compare kmeans``, ``influence`` and ``analyze``.

The files under ``golden/analysis/`` were written by the seed-at-a-time Lloyd
sweep and the arc-scanning path enumeration that ``reference_analysis.py``
keeps, from inside ``golden/analysis/``:

    attachnet compare kmeans <table> -k <k> -o kmeans_<table>_k<k>.csv > kmeans_<table>_k<k>.txt
    attachnet influence --fixture --from <s> --to <t> -k 2 -o influence_<s>_<t>.csv > influence_<s>_<t>.txt
    attachnet analyze --fixture --out-dir analyze > analyze_stdout.txt

for the four bundled factor tables at k = 2 and 3 with the default seeds
1:4000, and for the pairs below (Q03 -> Q05 has no path).  Every output must
stay byte-identical.
"""
from pathlib import Path

import pytest

from attachnet.cli import main
from attachnet.fixtures import FACTOR_TABLES

GOLDEN = Path(__file__).parent / "golden" / "analysis"
PAIRS = [("Q05", "Q03"), ("Q02", "Q03"), ("Q05", "Q23"), ("Q02", "Q23"), ("Q02", "Q36"),
         ("Q03", "Q05")]


def _check_run(argv, stdout_name, outputs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / stdout_name).read_text(encoding="utf-8")
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("table", sorted(FACTOR_TABLES))
def test_compare_kmeans_byte_identical(table, k, tmp_path, monkeypatch, capsys):
    stem = f"kmeans_{table}_k{k}"
    _check_run(["compare", "kmeans", table, "-k", str(k), "-o", f"{stem}.csv"],
               f"{stem}.txt", [f"{stem}.csv"], tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("source,target", PAIRS)
def test_influence_byte_identical(source, target, tmp_path, monkeypatch, capsys):
    stem = f"influence_{source}_{target}"
    _check_run(["influence", "--fixture", "--from", source, "--to", target, "-k", "2",
                "-o", f"{stem}.csv"], f"{stem}.txt", [f"{stem}.csv"],
               tmp_path, monkeypatch, capsys)


def test_analyze_fixture_byte_identical(tmp_path, monkeypatch, capsys):
    reports = sorted(p.relative_to(GOLDEN).as_posix() for p in (GOLDEN / "analyze").iterdir())
    assert len(reports) == 8
    _check_run(["analyze", "--fixture", "--out-dir", "analyze"], "analyze_stdout.txt",
               reports, tmp_path, monkeypatch, capsys)
    assert sorted(p.name for p in (tmp_path / "analyze").iterdir()) == [
        Path(r).name for r in reports]
