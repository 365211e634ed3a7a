import json

import numpy as np
import pytest

from attachnet.cli import build_parser, main

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


def test_full_repro_zero_threads_exits_2(tmp_path):
    src = survey_csv(tmp_path)
    out = str(tmp_path / "out")
    args = ["full-repro", str(src), "--out-dir", out, "-R", "1", "-m", "20", "--skip-stability"]
    assert main([*args, "--threads", "0"]) == 2


def test_seed_env_fallback(tmp_path, monkeypatch):
    src = survey_csv(tmp_path, n=120)
    monkeypatch.setenv("ATTACHNET_SEED", "42")
    a = tmp_path / "env.json"
    assert main(["learn", str(src), "-R", "4", "-m", "80", "-o", str(a)]) == 0
    monkeypatch.delenv("ATTACHNET_SEED")
    b = tmp_path / "flag.json"
    assert main(["learn", str(src), "-R", "4", "-m", "80", "--seed", "42", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv("ATTACHNET_SEED", "not-a-number")
    assert main(["learn", str(src), "-R", "4", "-m", "80"]) == 2


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


def test_analyze_fixture_summary(capsys):
    assert main(["analyze", "--fixture"]) == 0
    out = capsys.readouterr().out
    assert "roots: Q02, Q05" in out
    assert "terminals: Q16, Q34, Q36" in out
    assert "median |coefficient|: 0.17217" in out


def test_analyze_requires_model():
    assert main(["analyze"]) == 2


def test_influence_identity(capsys):
    assert main(["influence", "--fixture", "--from", "Q05", "--to", "Q05"]) == 0
    assert "1.0000" in capsys.readouterr().out


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
    import warnings

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


def test_export_writes_reference_files(tmp_path):
    outdir = tmp_path / "ref"
    assert main(["export", "--out-dir", str(outdir), "--dot"]) == 0
    for name in ("model.json", "arcs.csv", "clusters.csv", "intercepts.csv", "network.dot"):
        assert (outdir / name).exists()
    payload = json.loads((outdir / "model.json").read_text())
    assert len(payload["nodes"]) == 36
