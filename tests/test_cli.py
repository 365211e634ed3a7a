import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from attachnet.cli import build_parser, main

SRC = str(Path(__file__).resolve().parents[1] / "src")
HEADER = ",".join([f"Q{i}" for i in range(1, 7)] + ["age", "gender", "country"])


def survey_csv(tmp_path, n=80, seed=0):
    rng = np.random.default_rng(seed)
    lines = [HEADER]
    base = rng.normal(loc=3, scale=0.8, size=n)
    for i in range(n):
        answers = np.clip(np.round(base[i] + rng.normal(scale=0.7, size=6)), 1, 5)
        age = rng.integers(16, 70)
        gender = rng.choice(["1", "2"])
        country = rng.choice(["US", "GB", "BR"])
        lines.append(",".join([f"{a:g}" for a in answers] + [str(age), gender, country]))
    path = tmp_path / "survey.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_missing_file_exits_1(capsys):
    assert main(["ingest", "/nonexistent/file.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["ingest", "--definitely-not-a-flag"])
    assert err.value.code == 2


def test_every_subcommand_has_help():
    for cmd in ("ingest", "learn", "fit", "analyze", "influence", "compare", "export", "full-repro"):
        with pytest.raises(SystemExit) as err:
            main([cmd, "--help"])
        assert err.value.code == 0


def test_ingest_with_age_filter(tmp_path, capsys):
    src = survey_csv(tmp_path)
    out = tmp_path / "cohort.csv"
    code = main(["ingest", str(src), "--age", "18:60", "-o", str(out), "--report", str(tmp_path / "demo.csv")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "rows:" in printed and "region:" in printed
    assert out.exists()
    assert (tmp_path / "demo.csv").read_text().startswith("dimension,group,count")


def test_ingest_bad_age_range_exits_2(tmp_path):
    src = survey_csv(tmp_path)
    assert main(["ingest", str(src), "--age", "60:18"]) == 2


@pytest.mark.parametrize("age,message", [
    pytest.param("60:18", "age range [60, 18] has lo > hi", id="lo-above-hi"),
    pytest.param("18-60", "age range must look like 18:60, got '18-60'", id="not-lo-colon-hi"),
])
def test_ingest_bad_age_range_exits_2_before_parsing(tmp_path, capsys, age, message):
    src = tmp_path / "ragged.csv"
    src.write_text("Q1,Q2,age\n3,4,30\n2,5\n")  # the parser would drop the ragged row
    assert main(["ingest", str(src), "--age", age]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_ingest_duplicate_item_header_exits_2(tmp_path, capsys):
    src = tmp_path / "dup.csv"
    src.write_text("Q1,Q2,Q01,age\n3,4,5,30\n")
    out = tmp_path / "cohort.csv"
    assert main(["ingest", str(src), "-o", str(out)]) == 2
    assert "Q01" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_over_long_cell_exits_2(tmp_path, capsys):
    src = tmp_path / "long.csv"
    src.write_text("Q1,Q2,country\n3,4,US\n2,5," + "x" * 200_000 + "\n")
    out = tmp_path / "cohort.csv"
    assert main(["ingest", str(src), "-o", str(out)]) == 2
    assert "error: line 3: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_bare_carriage_return_ends_a_line(tmp_path, capsys):
    """A file is read in universal-newline mode, so a bare "\r" ends the row
    (here leaving a ragged one) instead of reaching the csv module."""
    src = tmp_path / "cr.csv"
    src.write_bytes(b"Q1,Q2\n3,4\n2,5\r1\n")
    out = tmp_path / "cohort.csv"
    assert main(["ingest", str(src), "-o", str(out)]) == 0
    assert capsys.readouterr().err == "dropped 1 malformed rows\n"
    assert out.read_text().splitlines()[1:] == ["3,4,,unknown,", "2,5,,unknown,"]


@pytest.mark.parametrize("age", ["inf", "1e400", "40000"])
def test_ingest_unrepresentable_age_is_unknown(tmp_path, capsys, age):
    src = tmp_path / "ages.csv"
    src.write_text(f"Q1,Q2,age,gender\n3,4,{age},2\n2,5,30,1\n")
    out = tmp_path / "cohort.csv"
    assert main(["ingest", str(src), "-o", str(out)]) == 0
    assert "other          1" in capsys.readouterr().out  # the unknown age is banded "other"
    assert out.read_text().splitlines()[1:] == ["3,4,,female,", "2,5,30,male,"]


def test_threads_default_to_one():
    parser = build_parser()
    assert parser.parse_args(["learn", "data.csv"]).threads == 1
    assert parser.parse_args(["full-repro", "data.csv"]).threads == 1


def test_metric_names_are_the_scorers_penalty_table(capsys):
    """The CLI's ``--metric`` choices, the names ``SearchConfig`` accepts and
    the scorer's penalty table are one set of names."""
    from attachnet._kernels import PENALTIES, CachedScorer
    from attachnet.errors import ValidationError
    from attachnet.structure import SearchConfig

    def accepts(make, name):
        try:
            make(name)
        except (SystemExit, ValidationError):
            return False
        return True

    parser = build_parser()
    makers = {
        "cli": lambda name: parser.parse_args(["learn", "data.csv", "--metric", name]),
        "config": lambda name: SearchConfig(metric=name),
        "scorer": lambda name: CachedScorer(np.eye(2), 10, name),
    }
    candidates = (*PENALTIES, "BIC", "bdeu", "")
    assert list(PENALTIES) == ["bic", "aic", "loglik"]
    for what, make in makers.items():
        assert [name for name in candidates if accepts(make, name)] == list(PENALTIES), what
    capsys.readouterr()  # argparse's usage errors


def test_learn_zero_replicates_exits_2(tmp_path):
    src = survey_csv(tmp_path)
    assert main(["learn", str(src), "-R", "0"]) == 2


@pytest.mark.parametrize(
    "flags", [["--threads", "0"], ["--threads", "-3"], ["--max-parents", "-2"]]
)
def test_learn_bad_search_settings_exit_2(tmp_path, capsys, flags):
    src = survey_csv(tmp_path)
    assert main(["learn", str(src), "-R", "1", "-m", "20", *flags]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["learn", "full-repro"])
@pytest.mark.parametrize("flags,message", [
    pytest.param(["-R", "0"], "replicates must be >= 1, got 0", id="zero-replicates"),
    pytest.param(["-m", "1"], "sample_size must be >= 2, got 1", id="one-row-samples"),
    pytest.param(["--threshold", "0"], "threshold must be in (0, 1], got 0", id="threshold-0"),
    pytest.param(["--threshold", "1.5"], "threshold must be in (0, 1], got 1.5",
                 id="threshold-above-1"),
    pytest.param(["--repeats", "0"], "repeats must be >= 1, got 0", id="zero-repeats"),
    pytest.param(["--stability", "5,0"], "replicates must be >= 1, got 0", id="zero-epoch"),
])
def test_bad_bootstrap_flag_exits_2_before_reading_input(tmp_path, capsys, command, flags, message):
    src = survey_csv(tmp_path)
    out = tmp_path / "out"
    settings = ["-R", "1", "-m", "20", "--repeats", "1", "--seed", "1"]
    if command == "learn":
        argv = ["learn", str(src), *settings, "-o", str(out / "model.json"), *flags]
    else:
        argv = ["full-repro", str(src), "--out-dir", str(out), *settings, "--stability", "1", *flags]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()  # not even full-repro's cohort.csv


def test_learn_prints_library_warnings_as_one_line_each(tmp_path, capsys):
    """Averaging warnings reach stderr as ``warning: <message>``, without
    Python's source path, line number, category or source line."""
    src = survey_csv(tmp_path)
    assert main(["learn", str(src), "-R", "2", "-m", "40", "--seed", "1",
                 "-o", str(tmp_path / "model.json")]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: pair Q01-Q03 has no majority direction; left undirected",
        "warning: pair Q02-Q05 has no majority direction; left undirected",
        "warning: pair Q04-Q05 has no majority direction; left undirected",
        "warning: dropped arc Q02->Q04 (strength*direction 0.5) to break a cycle",
    ]
    assert "UserWarning" not in err and ".py:" not in err


def test_cli_keeps_the_callers_warning_filters(tmp_path, capsys):
    """A caller that ignores warnings sees none, and gets its own
    ``showwarning`` back."""
    src = survey_csv(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shown = warnings.showwarning
        assert main(["learn", str(src), "-R", "2", "-m", "40", "--seed", "1",
                     "-o", str(tmp_path / "model.json")]) == 0
        assert warnings.showwarning is shown
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    pytest.param(["learn", "--stability", ""], id="learn-empty"),
    pytest.param(["learn", "--stability", ",,"], id="learn-commas"),
    pytest.param(["full-repro", "--stability", ""], id="full-repro-empty"),
    pytest.param(["full-repro", "--stability", ","], id="full-repro-comma"),
])
def test_empty_stability_list_exits_2_before_reading_input(tmp_path, capsys, monkeypatch, argv):
    """An empty ``--stability`` list is an error, not a header-only table
    and, for ``learn``, not a silent switch to the bootstrap."""
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], str(tmp_path / "absent.csv"), *argv[1:]]) == 2
    assert capsys.readouterr() == ("", "error: need at least one stability replicate count\n")
    assert list(tmp_path.iterdir()) == []  # no model.json, no full-repro directory


def test_learn_strengths_with_stability_exits_2_before_reading_input(tmp_path, capsys):
    strengths = tmp_path / "strengths.csv"
    argv = ["learn", str(tmp_path / "absent.csv"), "--stability", "3", "--strengths", str(strengths)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: --strengths cannot be combined with --stability\n")
    assert not strengths.exists()


def test_full_repro_threshold_reaches_the_stability_sweep(tmp_path):
    """The stability sweep averages at ``--threshold``: a low and a high one
    keep different arcs, so the curves differ."""
    src = survey_csv(tmp_path, n=200)
    curves = {}
    for threshold in ("0.3", "0.99"):
        out = tmp_path / threshold
        assert main(["full-repro", str(src), "--out-dir", str(out), "-R", "1", "-m", "100",
                     "--stability", "4", "--repeats", "2", "--seed", "5",
                     "--threshold", threshold]) == 0
        curves[threshold] = (out / "stability.csv").read_text()
    assert curves["0.3"] != curves["0.99"]


def test_full_repro_zero_threads_exits_2(tmp_path):
    src = survey_csv(tmp_path)
    out = str(tmp_path / "out")
    args = ["full-repro", str(src), "--out-dir", out, "-R", "1", "-m", "20", "--skip-stability"]
    assert main([*args, "--threads", "0"]) == 2


def test_no_thread_is_started(tmp_path, monkeypatch):
    """Bootstrap replicates run one at a time whatever ``threads`` or
    ``--threads`` asks for, and tally what the default call tallies."""
    import threading

    from attachnet.ingest import parse_responses
    from attachnet.structure import SearchConfig, bootstrap_strengths, stability_curve

    src = survey_csv(tmp_path, n=120)
    table = parse_responses(src)
    cfg = SearchConfig(seed=4)
    counts = bootstrap_strengths(table, 6, sample_size=80, cfg=cfg).counts
    curve = stability_curve(table, [2, 3], repeats=2, sample_size=80, cfg=cfg)
    learn = ["learn", str(src), "-R", "6", "-m", "80", "--seed", "4"]
    assert main([*learn, "--strengths", str(tmp_path / "one.csv"), "-o", str(tmp_path / "one.json")]) == 0

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    threaded = bootstrap_strengths(table, 6, sample_size=80, cfg=cfg, threads=4)
    assert np.array_equal(threaded.counts, counts)
    assert stability_curve(table, [2, 3], repeats=2, sample_size=80, cfg=cfg) == curve
    assert main([*learn, "--threads", "2", "--strengths", str(tmp_path / "two.csv"),
                 "-o", str(tmp_path / "two.json")]) == 0
    for name in ("csv", "json"):
        assert (tmp_path / f"two.{name}").read_bytes() == (tmp_path / f"one.{name}").read_bytes()


def test_seed_defaults_to_one(tmp_path):
    src = survey_csv(tmp_path, n=120)
    a = tmp_path / "default.json"
    assert main(["learn", str(src), "-R", "4", "-m", "80", "-o", str(a)]) == 0
    b = tmp_path / "flag.json"
    assert main(["learn", str(src), "-R", "4", "-m", "80", "--seed", "1", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_learn_fit_analyze_pipeline(tmp_path, capsys):
    src = survey_csv(tmp_path, n=150)
    model = tmp_path / "model.json"
    strengths = tmp_path / "strengths.csv"
    code = main([
        "learn", str(src), "-R", "8", "-m", "120", "--seed", "5",
        "-o", str(model), "--strengths", str(strengths),
    ])
    assert code == 0
    payload = json.loads(model.read_text())
    assert {e["name"] for e in payload["nodes"]} == {f"Q{i:02d}" for i in range(1, 7)}
    assert strengths.read_text().startswith("from,to,strength,direction")

    outdir = tmp_path / "reports"
    code = main(["analyze", str(model), "--out-dir", str(outdir), "--dot", str(tmp_path / "g.dot")])
    if code == 0:
        for name in ("degree_in.csv", "degree_out.csv", "betweenness.csv",
                     "pagerank.csv", "partition.csv", "arcs.csv"):
            assert (outdir / name).exists()
        assert (tmp_path / "g.dot").read_text().startswith("digraph")


def test_learn_reproducible_byte_identical(tmp_path):
    src = survey_csv(tmp_path, n=120)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["learn", str(src), "-R", "6", "-m", "100", "--seed", "42", "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_learn_stability_mode(tmp_path):
    src = survey_csv(tmp_path, n=120)
    out = tmp_path / "stab.csv"
    code = main([
        "learn", str(src), "--stability", "3,5", "--repeats", "2",
        "-m", "80", "--seed", "1", "-o", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "replicates,directed_mean,directed_sd,undirected_mean,undirected_sd"
    assert len(lines) == 3


def test_fit_on_fixed_structure(tmp_path, capsys):
    src = survey_csv(tmp_path, n=100)
    arcs = tmp_path / "arcs.csv"
    arcs.write_text("from,to\nQ01,Q02\nQ03,Q02\n")
    model = tmp_path / "fitted.json"
    assert main(["fit", str(src), "--dag", str(arcs), "-o", str(model)]) == 0
    payload = json.loads(model.read_text())
    q02 = next(e for e in payload["nodes"] if e["name"] == "Q02")
    assert {p["name"] for p in q02["parents"]} == {"Q01", "Q03"}


GARBLED = ["", "x", "nan", "-1e400", "é?", "\\N", '"a,b"', " 9 ", "FRANCE", "0x1F"]


def garbled_survey(src, path):
    """``src`` with each age, gender and country cell replaced by text that
    names no age, gender or country, some of it quoted."""
    lines = src.read_text().splitlines()
    out = [lines[0]]
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")[:-3]
        out.append(",".join(cells + [GARBLED[(i + k) % len(GARBLED)] for k in (0, 3, 7)]))
    path.write_text("\n".join(out) + "\n")
    return path


LEARN_AND_FIT = [
    pytest.param(["learn", "-R", "3", "-m", "80", "--seed", "3"], id="learn"),
    pytest.param(["learn", "--stability", "2,3", "--repeats", "1", "-m", "80"], id="learn-stability"),
    pytest.param(["fit", "--dag", "arcs.csv"], id="fit"),
]


@pytest.fixture
def in_tmp_path(tmp_path, monkeypatch):
    """Run in ``tmp_path``, which holds ``arcs.csv``: three arcs over the survey's items."""
    (tmp_path / "arcs.csv").write_text("from,to\nQ01,Q02\nQ03,Q02\nQ02,Q06\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv", LEARN_AND_FIT)
def test_learn_and_fit_convert_no_demographic_cell(in_tmp_path, monkeypatch, argv):
    import attachnet.ingest as ingest

    def refuse(*args):
        raise AssertionError(f"a demographic cell was converted: {args!r}")

    for name in ("_age_value", "_gender_label", "_country_label", "map_region"):
        monkeypatch.setattr(ingest, name, refuse)
    src = survey_csv(in_tmp_path, n=120)
    assert main([argv[0], str(src), *argv[1:], "-o", "out"]) == 0
    with pytest.raises(AssertionError, match="demographic cell was converted"):
        main(["ingest", str(src)])  # the patches do bite where demographics are read


@pytest.mark.parametrize("argv", LEARN_AND_FIT)
def test_learn_and_fit_outputs_do_not_depend_on_demographic_cells(in_tmp_path, capsys, argv):
    clean = survey_csv(in_tmp_path, n=120)
    garbled = garbled_survey(clean, in_tmp_path / "garbled.csv")
    assert '"' in garbled.read_text()  # so the csv module's reader parses it, not the block tokenizer
    results = []
    for src in (clean, garbled):
        assert main([argv[0], str(src), *argv[1:], "-o", "out"]) == 0
        results.append(((in_tmp_path / "out").read_bytes(), capsys.readouterr().out))
    assert results[0] == results[1]


def test_analyze_fixture_summary(capsys):
    assert main(["analyze", "--fixture"]) == 0
    out = capsys.readouterr().out
    assert "roots: Q02, Q05" in out
    assert "terminals: Q16, Q34, Q36" in out
    assert "median |coefficient|: 0.17217" in out


@pytest.mark.parametrize("flags,message", [
    pytest.param(["--damping", "1.5"], "damping must be in (0, 1)", id="damping-above-1"),
    pytest.param(["--steps", "0"], "steps must be >= 1", id="zero-steps"),
])
def test_analyze_bad_flag_exits_2_before_any_output(tmp_path, capsys, flags, message):
    out = tmp_path / "reports"
    assert main(["analyze", "--fixture", *flags, "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_analyze_clusters_naming_an_unknown_node_exits_2_before_any_output(tmp_path, capsys):
    clusters = tmp_path / "cl.csv"
    rows = [f"Q{i:02d},C{i % 5 + 1}" for i in range(1, 37)] + ["Q99,C1"]
    clusters.write_text("node,cluster\n" + "\n".join(rows) + "\n")
    out = tmp_path / "reports"
    assert main(["analyze", "--fixture", "--clusters", str(clusters), "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: partition names nodes not in the model: Q99\n")
    assert not out.exists()


def test_analyze_requires_model():
    assert main(["analyze"]) == 2


@pytest.mark.parametrize("argv,message", [
    pytest.param(["fit", "{survey}", "--fixture", "--model", "/nonexistent.json", "-o", "{out}"],
                 "give a model JSON path or --fixture, not both", id="fit-model-and-fixture"),
    pytest.param(["fit", "{survey}", "--dag", "{arcs}", "--fixture", "-o", "{out}"],
                 "--dag cannot be combined with --model or --fixture", id="fit-dag-and-fixture"),
    pytest.param(["fit", "{survey}", "--dag", "{arcs}", "--model", "/nonexistent.json",
                  "-o", "{out}"],
                 "--dag cannot be combined with --model or --fixture", id="fit-dag-and-model"),
    pytest.param(["analyze", "/nonexistent.json", "--fixture", "--out-dir", "{out}"],
                 "give a model JSON path or --fixture, not both", id="analyze"),
    pytest.param(["influence", "/nonexistent.json", "--fixture", "--from", "Q05", "--to", "Q03",
                  "-o", "{out}"],
                 "give a model JSON path or --fixture, not both", id="influence"),
    pytest.param(["fit", "/nonexistent.csv", "-o", "{out}"],
                 "fit needs a structure: --dag, --model or --fixture", id="fit-no-structure"),
])
def test_contradictory_or_missing_structure_exits_2(tmp_path, capsys, argv, message):
    arcs = tmp_path / "arcs.csv"
    arcs.write_text("from,to\nQ01,Q02\n")
    out = tmp_path / "out"
    names = {"survey": survey_csv(tmp_path), "arcs": arcs, "out": out}
    assert main([arg.format(**names) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_fit_reads_the_model_before_the_corpus(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text('{"nodes": [')
    assert main(["fit", "/nonexistent.csv", "--model", str(model)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed model JSON")


MODEL_JSON = (
    '{"nodes": [{"name": "a", "intercept": 0.5, "residual_sd": 1.0, "parents": []},'
    ' {"name": "b", "intercept": 0.0, "residual_sd": 1.0,'
    ' "parents": [{"name": "a", "coeff": 0.5}]}]}'
)


@pytest.mark.parametrize("text,message", [
    pytest.param('{"nodes": [', "Expecting value: line 1 column 12 (char 11)", id="truncated"),
    pytest.param(MODEL_JSON.replace("0.5,", '"abc",'),
                 "could not convert string to float: 'abc'", id="non-numeric-intercept"),
    pytest.param(MODEL_JSON.replace("0.5,", "NaN,"), "nan is not a finite number",
                 id="nan-intercept"),
    pytest.param(MODEL_JSON.replace('"residual_sd": 1.0, "parents": [{', '"residual_sd": Infinity,'
                                    ' "parents": [{'),
                 "inf is not a finite number", id="infinite-residual-sd"),
    pytest.param(MODEL_JSON.replace('"coeff": 0.5', '"coeff": -Infinity'),
                 "-inf is not a finite number", id="infinite-coeff"),
    pytest.param(MODEL_JSON.replace('"coeff": 0.5', '"coeff": NaN'), "nan is not a finite number",
                 id="nan-coeff"),
])
def test_analyze_bad_model_json_exits_2(tmp_path, capsys, text, message):
    model = tmp_path / "model.json"
    model.write_text(MODEL_JSON)
    assert main(["analyze", str(model), "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    model.write_text(text)
    assert main(["analyze", str(model)]) == 2
    assert capsys.readouterr().err == f"error: malformed model JSON: {message}\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["analyze", "{model}", "--out-dir", "{out}"], id="analyze"),
    pytest.param(["influence", "{model}", "--from", "A", "--to", "B"], id="influence"),
])
def test_model_json_with_a_repeated_parent_exits_2(tmp_path, capsys, argv):
    """Read as it was, the model would report B's coefficient on A as 0.9."""
    model = tmp_path / "model.json"
    model.write_text(
        '{"nodes": [{"name": "A", "intercept": 0.0, "residual_sd": 1.0, "parents": []},'
        ' {"name": "B", "intercept": 0.0, "residual_sd": 1.0, "parents":'
        ' [{"name": "A", "coeff": 0.1}, {"name": "A", "coeff": 0.9}]}]}'
    )
    out = tmp_path / "out"
    assert main([arg.format(model=model, out=out) for arg in argv]) == 2
    assert capsys.readouterr() == ("", "error: model node 'B' lists parent 'A' twice\n")
    assert not out.exists()


def test_model_json_with_a_repeated_node_exits_2(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(
        '{"nodes": [{"name": "A", "intercept": 0.0, "residual_sd": 1.0, "parents": []},'
        ' {"name": "A", "intercept": 1.0, "residual_sd": 1.0, "parents": []}]}'
    )
    assert main(["analyze", str(model), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", "error: duplicate node name 'A'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,name", [
    pytest.param(["ingest", "{bad}"], "bad", id="survey-export"),
    pytest.param(["ingest", "{survey}", "--codebook", "{bad}"], "bad", id="codebook"),
    pytest.param(["compare", "kmeans", "{bad}", "-k", "2"], "bad", id="factor-csv"),
    pytest.param(["analyze", "{bad}"], "bad", id="model-json"),
])
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, argv, name):
    # Latin-1 text: "é" is the byte 0xe9, which UTF-8 never ends a line with
    bad = tmp_path / name
    bad.write_bytes("Q1,Q2,country\n1,2,Réunion\n".encode("latin-1"))
    names = {"bad": bad, "survey": survey_csv(tmp_path)}
    assert main([arg.format(**names) for arg in argv]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text (byte 0xe9: invalid continuation byte)\n"
    )


def test_codebook_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    survey = tmp_path / "survey.csv"
    survey.write_text("Q1,Q2,gender,country\n1,2,2,Réunion\n", encoding="utf-8")
    codebook = tmp_path / "codes.cfg"
    codebook.write_text("# gender.2 is féminin in the French export\n"
                        "gender.2 = female\ncountry.Réunion = RE\n", encoding="utf-8")
    out = tmp_path / "cohort.csv"
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "attachnet.cli", "ingest", str(survey), "--codebook", str(codebook),
         "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_text(encoding="utf-8").splitlines()[1] == "1,2,,female,RE"


def test_unknown_codebook_gender_label_exits_2(tmp_path, capsys):
    codebook = tmp_path / "codes.cfg"
    codebook.write_text("gender.1 = male\ngender.2 = féminin\n", encoding="utf-8")
    out = tmp_path / "cohort.csv"
    assert main(["ingest", str(survey_csv(tmp_path)), "--codebook", str(codebook),
                 "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: line 2: codebook gender label 'féminin' is not "
                                       "one of female, male, other, unknown (in any case)\n")
    assert not out.exists()


def test_spaced_codebook_key_is_checked_and_exits_2(tmp_path, capsys):
    codebook = tmp_path / "codes.cfg"
    codebook.write_text("gender .1 = bogus\ncountry. UK1 = GB\n")
    out = tmp_path / "cohort.csv"
    assert main(["ingest", str(survey_csv(tmp_path)), "--codebook", str(codebook),
                 "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: line 1: codebook gender label 'bogus' is not "
                                       "one of female, male, other, unknown (in any case)\n")
    assert not out.exists()


def test_repeated_codebook_key_exits_2_before_reading_the_export(tmp_path, capsys):
    codebook = tmp_path / "codes.cfg"
    codebook.write_text("gender.1 = male\ncountry.UK1 = GB\ngender.1 = female\n")
    out = tmp_path / "cohort.csv"
    assert main(["ingest", "/nonexistent.csv", "--codebook", str(codebook), "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: line 3: codebook key 'gender.1' repeats line 1\n")
    assert not out.exists()


def test_influence_identity(capsys):
    assert main(["influence", "--fixture", "--from", "Q05", "--to", "Q05"]) == 0
    assert "1.0000" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["Q05", "Q03"])
def test_influence_k_below_1_exits_2(target, capsys):
    """The same as for any other pair, even when source and target are one item."""
    assert main(["influence", "--fixture", "--from", "Q05", "--to", target, "-k", "0"]) == 2
    assert capsys.readouterr() == ("", "error: k must be >= 1\n")


def test_influence_unknown_node_exits_2(capsys):
    assert main(["influence", "--fixture", "--from", "QXX", "--to", "Q03"]) == 2


def test_influence_reports_paths(tmp_path, capsys):
    out = tmp_path / "influence.csv"
    assert main(["influence", "--fixture", "--from", "Q05", "--to", "Q03", "-k", "2", "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "Q05->Q07->Q03" in printed
    assert out.read_text().startswith("source,target,total")


def test_compare_edges_fixture(capsys):
    assert main(["compare", "edges", "fixture", "external", "--mode", "union"]) == 0
    assert "n=26 r=0.823" in capsys.readouterr().out
    assert main(["compare", "edges", "fixture", "external", "--mode", "intersection"]) == 0
    assert "n=12 r=0.626" in capsys.readouterr().out


def test_compare_kmeans_bundled_table(capsys):
    assert main(["compare", "kmeans", "wei2007_avoidance", "-k", "2", "--seeds", "1:200"]) == 0
    out = capsys.readouterr().out
    assert "within-cluster ss" in out


@pytest.mark.parametrize("seeds,message", [
    ("5:1", "0 <= lo <= hi, got 5:1"),
    ("-2:3", "0 <= lo <= hi, got -2:3"),
    ("1-5", "seed range must look like 1:4000, got '1-5'"),
    ("1:2:3", "seed range must look like 1:4000, got '1:2:3'"),
])
def test_compare_kmeans_bad_seed_range_exits_2(capsys, seeds, message):
    assert main(["compare", "kmeans", "lo2009", "-k", "2", f"--seeds={seeds}"]) == 2
    assert message in capsys.readouterr().err


def test_compare_mwu_polarity(tmp_path, capsys):
    from attachnet import fixtures
    from attachnet.params import intercept_report

    _, params = fixtures.load_fixture_model()
    report = intercept_report(params, fixtures.load_polarity())
    values = tmp_path / "intercepts.csv"
    values.write_text(
        "item,value\n" + "\n".join(f"{r['item']},{r['intercept']}" for r in report.rows) + "\n"
    )
    assert main(["compare", "mwu", str(values), "--groups", "polarity"]) == 0
    out = capsys.readouterr().out
    assert "p=0.000334" in out


@pytest.mark.parametrize("command,text,message", [
    pytest.param(["compare", "mwu"], "item,value\n", "{path}: no data rows",
                 id="mwu-header-only"),
    pytest.param(["compare", "mwu"], "item,value\nQ01,1.5\nZZ,2.5\n",
                 "{path}: row 2: item 'ZZ' has no group", id="mwu-item-without-group"),
    pytest.param(["compare", "mwu"], "item,value\nQ01,1.5\nQ02,abc\n",
                 "{path}: row 2: 'abc' is not a number", id="mwu-non-numeric"),
    pytest.param(["compare", "mwu"], "name,value\nQ01,1.5\n", "{path}: no item column",
                 id="mwu-no-item-column"),
    pytest.param(["compare", "mwu"], "item,value\nQ01,1.5\nQ02\n",
                 "{path}: row 2: expected 2 fields, got 1", id="mwu-short-row"),
    pytest.param(["compare", "mwu"], "item,value\nQ01,1.5,7\n",
                 "{path}: row 1: expected 2 fields, got 3", id="mwu-long-row"),
    pytest.param(["compare", "mwu"], "item,value\nQ01,1.5\nQ02,nan\n",
                 "{path}: row 2: 'nan' is not a finite number", id="mwu-nan"),
    pytest.param(["compare", "mwu"], "item,value\nQ01,1.5\nQ02,2.5\nQ01,3.5\n",
                 "{path}: row 3: item 'Q01' repeats row 1", id="mwu-repeated-item"),
    pytest.param(["compare", "ellipse"], "x,y\n", "{path}: no data rows",
                 id="ellipse-header-only"),
    pytest.param(["compare", "ellipse"], "x,y\n1,2\n3,oops\n4,5\n",
                 "{path}: row 2: 'oops' is not a number", id="ellipse-non-numeric"),
    pytest.param(["compare", "ellipse"], "x\n1\n2\n3\n", "{path}: expected at least 2 columns",
                 id="ellipse-one-column"),
    pytest.param(["compare", "ellipse"], "x,y\n1,2\n3,4\n5\n",
                 "{path}: row 3: expected 2 fields, got 1", id="ellipse-short-row"),
    pytest.param(["compare", "ellipse"], "x,y\n1,2\n3,-inf\n4,5\n",
                 "{path}: row 2: '-inf' is not a finite number", id="ellipse-infinite"),
    pytest.param(["compare", "pca"], "item,f1,f2\nQ01,0.5,0.1\nQ02,bad,0.2\n",
                 "{path}: row 2: 'bad' is not a number", id="pca-non-numeric"),
    pytest.param(["compare", "pca"], "item,f1,f2\nQ01,0.5,0.1\nQ02,0.2\n",
                 "{path}: row 2: expected 3 fields, got 2", id="pca-short-row"),
    pytest.param(["compare", "pca", "--dims", "-1"], "item,f1,f2\nQ01,0.5,0.1\nQ02,0.2,0.3\n",
                 "dims must be >= 1, got -1", id="pca-negative-dims"),
    pytest.param(["compare", "kmeans", "-k", "2"],
                 "item,f1,f2\nQ01,0.5,0.1\nQ02,0.4,x\nQ03,0.1,0.2\n",
                 "{path}: row 2: 'x' is not a number", id="kmeans-non-numeric"),
    pytest.param(["compare", "kmeans", "-k", "2"],
                 "item,f1,f2\nQ01,0.5,0.1\nQ02,0.4,NaN\nQ03,0.1,0.2\n",
                 "{path}: row 2: 'NaN' is not a finite number", id="kmeans-nan"),
    pytest.param(["compare", "kmeans", "-k", "2"], "item,x\na,1\nb,5\nc,2\n",
                 "{path}: no factor column (no column name starts with f)",
                 id="kmeans-no-factor-column"),
    pytest.param(["compare", "kmeans", "-k", "2"], "item,f1\na,1\nb,3\na,5\n",
                 "{path}: row 3: item 'a' repeats row 1", id="kmeans-repeated-item"),
    pytest.param(["compare", "edges", "fixture"], "item_a,item_b,weight\nQ01,Q02,abc\n",
                 "{path}: row 1: 'abc' is not a number", id="edges-non-numeric"),
    pytest.param(["compare", "edges", "fixture"], "item_a,item_b,weight\nQ01,Q02,inf\n",
                 "{path}: row 1: 'inf' is not a finite number", id="edges-infinite"),
    pytest.param(["compare", "edges", "fixture"], "item_a,item_b,weight\nQ01,Q02\n",
                 "{path}: row 1: expected 3 fields, got 2", id="edges-short-row"),
    pytest.param(["compare", "edges", "fixture"], "item_a,item_b,weight\nQ01,Q01,0.5\n",
                 "{path}: row 1: degenerate pair 'Q01', 'Q01'", id="edges-degenerate-pair"),
    pytest.param(["compare", "edges", "fixture"], "item_a,item_b,weight\nQ01,Q02,0.5\nQ02,Q01,0.7\n",
                 "{path}: row 2: pair 'Q02', 'Q01' repeats row 1", id="edges-repeated-pair"),
    pytest.param(["compare", "edges", "--mode", "intersection", "fixture"],
                 "item_a,item_b,weight\nQ27,Q25,0.5\nQ27,Q33,0.5\nQ27,Q01,0.5\n",
                 "theirs: all 3 weights on the intersection set are equal; "
                 "the correlation is undefined", id="edges-constant"),
])
def test_compare_bad_input_exits_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.csv"
    path.write_text(text)
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize("argv,text,message", [
    pytest.param(["compare", "pca", "{path}"], "name,f1\nQ01,0.5\n", "no item column",
                 id="factor-table"),
    pytest.param(["analyze", "--fixture", "--clusters", "{path}"], "node,label\nQ01,C1\n",
                 "no cluster column", id="partition"),
    pytest.param(["analyze", "--fixture", "--clusters", "{path}"], "node,cluster\nQ01,C1\nQ02\n",
                 "row 2: expected 2 fields, got 1", id="partition-short-row"),
    pytest.param(["analyze", "--fixture", "--clusters", "{path}"],
                 "node,cluster\nQ01,C1\nQ02,C1\nQ01,C2\n", "row 3: node 'Q01' repeats row 1",
                 id="partition-repeated-node"),
    pytest.param(["fit", "{survey}", "--dag", "{path}"], "source,to\nQ01,Q02\n", "no from column",
                 id="arc-list"),
    pytest.param(["fit", "{survey}", "--dag", "{path}"], "from,to\nQ01,Q02\nQ03\n",
                 "row 2: expected 2 fields, got 1", id="arc-list-short-row"),
    pytest.param(["compare", "mwu", "{values}", "--groups", "{path}"], "item,label\nQ01,a\n",
                 "no group column", id="mwu-groups"),
    pytest.param(["compare", "mwu", "{values}", "--groups", "{path}"], "item,group\nQ01\n",
                 "row 1: expected 2 fields, got 1", id="mwu-groups-short-row"),
    pytest.param(["compare", "mwu", "{values}", "--groups", "{path}"], "item,group\nQ01,a\nQ01,b\n",
                 "row 2: item 'Q01' repeats row 1", id="mwu-groups-repeated-item"),
    pytest.param(["compare", "edges", "{path}", "external"], "a,b,weight\nQ01,Q02,0.5\n",
                 "no item_a column", id="edge-weights"),
])
def test_csv_without_expected_column_exits_2(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input.csv"
    path.write_text(text)
    values = tmp_path / "values.csv"
    values.write_text("item,value\nQ01,1.5\n")
    names = {"path": path, "survey": survey_csv(tmp_path), "values": values}
    assert main([arg.format(**names) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_compare_ellipse_angle_just_below_180_prints_0(tmp_path, capsys):
    from attachnet.compare import confidence_ellipse

    # an x-aligned ellipse tilted clockwise by about 0.006 degrees
    x = np.linspace(-2.0, 2.0, 9)
    points = np.column_stack([x, -1e-4 * x + 0.1 * np.array([1, -1, 0, 0, 0, 0, 0, -1, 1])])
    assert 179.99 < confidence_ellipse(points, level=0.95).angle < 180.0
    path = tmp_path / "points.csv"
    path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in points.tolist()))
    assert main(["compare", "ellipse", str(path)]) == 0
    assert capsys.readouterr().out.endswith("; angle 0.0 deg\n")


def test_all_blank_item_exits_2_naming_it(tmp_path, capsys):
    src = survey_csv(tmp_path, n=40)
    lines = src.read_text().splitlines()
    src.write_text("\n".join([lines[0]] + [",".join([""] + line.split(",")[1:]) for line in lines[1:]]) + "\n")
    assert main(["learn", str(src), "-R", "1", "-m", "20", "--seed", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: cohort filter removed every row; no answer in 1-5 for Q01\n"
    )


def test_empty_cohort_exits_2(tmp_path, capsys):
    src = survey_csv(tmp_path, n=40)
    assert main(["ingest", str(src), "--age", "90:99", "-o", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == "error: cohort filter removed every row\n"


@pytest.mark.parametrize("body,flags,err", [
    ("", ["--filter-standard"], "error: cohort filter removed every row; no answer in 1-5 for Q01, Q02\n"),
    ("1,2\n3\n", ["--genders", "female"],
     "dropped 2 malformed rows\nerror: cohort filter removed every row\n"),
    ("", ["--regions", "Europe"], "error: cohort filter removed every row\n"),
], ids=["header-only-standard", "all-ragged-genders", "header-only-regions"])
def test_empty_table_through_a_filter_exits_2(tmp_path, capsys, body, flags, err):
    src = tmp_path / "survey.csv"
    src.write_text("Q1,Q2,age,gender,country\n" + body)
    assert main(["ingest", str(src), *flags]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("flags,err", [
    (["--regions", "europe,Asia"], "error: unknown region label 'europe'; expected one of "
     "Africa, NorthAmerica, SouthAmerica, Asia, Europe, Oceania, Unknown\n"),
    (["--genders", "Female"],
     "error: unknown gender label 'Female'; expected one of female, male, other, unknown\n"),
], ids=["regions", "genders"])
def test_unknown_filter_label_exits_2_before_reading(tmp_path, capsys, flags, err):
    absent = tmp_path / "absent.csv"  # reading it would exit 1
    assert main(["ingest", str(absent), *flags]) == 2
    assert capsys.readouterr().err == err


def test_known_region_labels_keep_their_rows(tmp_path, capsys):
    src = survey_csv(tmp_path)  # countries US, GB and BR
    kept = sum(not line.endswith(",US") for line in src.read_text().splitlines()[1:])
    assert main(["ingest", str(src), "--regions", "Europe,SouthAmerica"]) == 0
    assert f"rows: {kept}\n" in capsys.readouterr().out
    assert 0 < kept < 80


def test_influence_over_path_cap_exits_2(capsys):
    assert main(["influence", "--fixture", "--from", "Q05", "--to", "Q03", "-k", "2",
                 "--cap", "1"]) == 2
    assert "78 paths from Q05 to Q03 exceeds cap 1" in capsys.readouterr().err


def test_compare_pca_and_ellipse(tmp_path, capsys):
    assert main(["compare", "pca", "wei2007_anxiety", "--dims", "2", "-o", str(tmp_path / "pca.csv")]) == 0
    assert "variance explained" in capsys.readouterr().out
    pts = tmp_path / "points.csv"
    rows = ["x,y"] + [f"{x},{y}" for x, y in np.random.default_rng(0).normal(size=(30, 2))]
    pts.write_text("\n".join(rows) + "\n")
    assert main(["compare", "ellipse", str(pts), "--level", "0.95"]) == 0
    assert "half-axes" in capsys.readouterr().out


def test_full_repro_chain_on_synthetic_corpus(tmp_path, capsys):
    # simulate a small 36-item corpus from the reference model, then run the
    # whole chained pipeline at toy replicate counts
    from attachnet import fixtures
    from attachnet.params import simulate

    dag, params = fixtures.load_fixture_model()
    rng = np.random.default_rng(8)
    rows = np.clip(np.round(simulate(dag, params, n=400, rng=rng)), 1, 5)
    lines = [",".join(list(dag.nodes) + ["age", "gender", "country"])]
    for i in range(rows.shape[0]):
        lines.append(
            ",".join(
                [f"{v:g}" for v in rows[i]]
                + [str(rng.integers(18, 61)), rng.choice(["1", "2"]), "US"]
            )
        )
    src = tmp_path / "corpus.csv"
    src.write_text("\n".join(lines) + "\n")

    outdir = tmp_path / "repro"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny R: many 50/50 direction ties
        code = main([
            "full-repro", str(src), "--out-dir", str(outdir),
            "-R", "2", "-m", "120", "--skip-stability", "--seed", "3",
        ])
    assert code == 0
    for name in ("cohort.csv", "model.json", "strengths.csv", "network.dot"):
        assert (outdir / name).exists()
    assert (outdir / "analysis" / "pagerank.csv").exists()
    printed = capsys.readouterr().out
    assert "mean residual sd" in printed

    # stage 5 is `attachnet analyze` on the model it wrote: same files, same stdout
    stage5 = printed.split("[5/5] analysis reports\n", 1)[1]
    reports = {p.name: p.read_bytes() for p in (outdir / "analysis").iterdir()}
    dot = (outdir / "network.dot").read_bytes()
    shutil.rmtree(outdir / "analysis")
    (outdir / "network.dot").unlink()
    assert main(["analyze", str(outdir / "model.json"), "--out-dir", str(outdir / "analysis"),
                 "--dot", str(outdir / "network.dot")]) == 0
    assert capsys.readouterr().out == stage5
    assert {p.name: p.read_bytes() for p in (outdir / "analysis").iterdir()} == reports
    assert len(reports) == 8
    assert (outdir / "network.dot").read_bytes() == dot

    # stages 3 and 4 are `attachnet learn` on the cohort it wrote: same files
    learned = tmp_path / "learn"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["learn", str(outdir / "cohort.csv"), "-R", "2", "-m", "120", "--seed", "3",
                     "--strengths", str(learned / "strengths.csv"),
                     "-o", str(learned / "model.json")]) == 0
    for name in ("strengths.csv", "model.json"):
        assert (learned / name).read_bytes() == (outdir / name).read_bytes()


def test_full_repro_threads_change_no_output(tmp_path, capsys):
    """``--threads 2`` writes the same bytes and prints the same lines, but
    for the output directory's name, as ``--threads 1``."""
    src = survey_csv(tmp_path, n=150)
    runs = {}
    for threads in ("1", "2"):
        outdir = tmp_path / threads
        assert main(["full-repro", str(src), "--out-dir", str(outdir), "-R", "3", "-m", "100",
                     "--skip-stability", "--seed", "6", "--threads", threads]) == 0
        files = {p.relative_to(outdir): p.read_bytes() for p in outdir.rglob("*") if p.is_file()}
        runs[threads] = files, capsys.readouterr().out.replace(str(outdir), "OUT")
    assert runs["2"] == runs["1"]
    assert len(runs["1"][0]) == 12


def test_export_writes_reference_files(tmp_path):
    outdir = tmp_path / "ref"
    assert main(["export", "--out-dir", str(outdir), "--dot"]) == 0
    for name in ("model.json", "arcs.csv", "clusters.csv", "intercepts.csv", "network.dot"):
        assert (outdir / name).exists()
    payload = json.loads((outdir / "model.json").read_text())
    assert len(payload["nodes"]) == 36
