"""Golden outputs of ``attachnet ingest`` and ``attachnet fit --fixture``.

``golden/raw_export.csv`` is a 400-row export from the benchmark's generator
(``perfbench/gen.py``, seed 4: unpadded headers, codebook genders, ragged rows,
blank cells, out-of-range codes) with hand-written edge rows spliced in after
row 200: padded and non-integer item cells, ``nan``/``inf``/``-0``/``1e400``/
subnormal cells, quoted countries with commas, quotes, a newline and non-ASCII
text, unparseable and negative ages, a blank line and two ragged rows.  The
other files were written from it by the per-cell implementation that
``reference_ingest.py`` keeps:

    attachnet ingest raw_export.csv --filter-standard -o cohort.csv --report demo.csv > ingest_stdout.txt
    attachnet ingest raw_export.csv -o all.csv --report all_demo.csv > all_stdout.txt

Every output must stay byte-identical.
"""
from pathlib import Path

import pytest

from attachnet import fixtures
from attachnet.cli import main
from attachnet.ingest import CohortFilter, filter_cohort
from attachnet.params import fit_mle, write_model
import reference_ingest

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "standard": (["--filter-standard", "-o", "cohort.csv", "--report", "demo.csv"],
                 "ingest_stdout.txt", ("cohort.csv", "demo.csv")),
    "unfiltered": (["-o", "all.csv", "--report", "all_demo.csv"],
                   "all_stdout.txt", ("all.csv", "all_demo.csv")),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_ingest_outputs_byte_identical(run, tmp_path, monkeypatch, capsys):
    flags, stdout_name, outputs = RUNS[run]
    monkeypatch.chdir(tmp_path)
    assert main(["ingest", str(GOLDEN / "raw_export.csv"), *flags]) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / stdout_name).read_text(encoding="utf-8")
    assert captured.err == "dropped 5 malformed rows\n"
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_fit_fixture_model_byte_identical(tmp_path, capsys):
    """``fit --fixture`` on the golden cohort writes the model that the
    reference parser's table gives (the fit itself is unchanged, so this pins
    the parse of a canonical CSV without depending on the BLAS build)."""
    model = tmp_path / "model.json"
    assert main(["fit", str(GOLDEN / "cohort.csv"), "--fixture", "-o", str(model)]) == 0
    with open(GOLDEN / "cohort.csv", encoding="utf-8", newline="") as fh:
        table = reference_ingest.parse_responses(fh)
    table = filter_cohort(table, CohortFilter(require_complete=True))
    dag, _ = fixtures.load_fixture_model()
    assert model.read_text(encoding="utf-8") == write_model(dag, fit_mle(dag, table))
