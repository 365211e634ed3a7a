"""Command-line interface wiring the pipeline end to end.

Stages mirror the library: ``ingest`` normalizes a raw survey export and
reports demographics, ``learn`` runs the bootstrapped structure search,
``fit`` estimates parameters on a fixed structure, ``analyze`` computes
communities/centralities/coupling, ``influence`` reports path products, and
``compare`` hosts the statistical comparison tools.  ``export`` writes the
bundled reference model; ``full-repro`` chains everything on a raw corpus
download (hours of compute at the reference replicate counts).

Exit codes: 0 success, 1 I/O failure, 2 invalid inputs or flags.  Library
warnings print on stderr as one ``warning: <message>`` line each.

Examples::

    attachnet ingest data.csv --filter-standard -o cohort.csv
    attachnet learn cohort.csv -R 3000 -m 1000 --seed 7 -o model.json
    attachnet analyze model.json --out-dir reports/
    attachnet influence model.json --from Q05 --to Q03 -k 2
    attachnet compare kmeans factors.csv -k 2
"""
from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fixtures
from ._csv import csv_text, load_csv, number, read_rows, write_text
from ._kernels import PENALTIES
from .analytics import (
    Partition,
    betweenness,
    communities_walktrap,
    degree_centrality,
    pagerank,
)
from .compare import (
    confidence_ellipse,
    edge_set_correlation,
    kmeans_best_seed,
    mann_whitney_u,
    pca_project,
)
from .dag import Dag, roots_and_terminals
from .errors import AttachnetError, ValidationError
from .influence import influence_result, cluster_coupling, median_abs_coefficient
from .ingest import (
    ITEMS_ONLY,
    CohortFilter,
    ColumnSchema,
    demographic_summary,
    filter_cohort,
    parse_responses,
    read_codebook,
    serialize_responses,
    standard_filter,
)
from .params import fit_mle, intercept_report, read_model, write_model
from .structure import (
    SearchConfig,
    average_network,
    bootstrap_strengths,
    check_bootstrap_settings,
    stability_curve,
)


def _parse_range(text: str, what: str, example: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValidationError(f"{what} must look like {example}, got {text!r}")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}")


def _write(path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_text(path, text)


def _load_model(args):
    if getattr(args, "fixture", False):
        if args.model is not None:
            raise ValidationError("give a model JSON path or --fixture, not both")
        return fixtures.load_fixture_model()
    if args.model is None:
        raise ValidationError("a model JSON path (or --fixture) is required")
    return read_model(args.model)


def _checked_epochs(args, stability: bool) -> list[int] | None:
    """The ``--stability`` replicate counts (None unless ``stability``), once
    there is at least one, they and every bootstrap, averaging and
    ``--threads`` flag are in range and no ``--strengths`` file is asked of a
    stability sweep; called before any input is read, so a bad flag fails
    before hours of work."""
    if args.threads < 1:
        raise ValidationError("--threads must be >= 1")
    if stability and getattr(args, "strengths", None):
        raise ValidationError("--strengths cannot be combined with --stability")
    epochs = _parse_int_list(args.stability) if stability else None
    check_bootstrap_settings(
        replicates=args.replicates,
        sample_size=args.sample_size,
        threshold=args.threshold,
        repeats=args.repeats,
        epochs=epochs,
    )
    return epochs


def _stability_csv(table, epochs, cfg, args) -> str:
    """The stability sweep over ``epochs`` at the bootstrap flags, as CSV."""
    return stability_curve(
        table, epochs, repeats=args.repeats, sample_size=args.sample_size,
        cfg=cfg, threshold=args.threshold,
    ).to_csv()


def _averaged_network(table, cfg, args, strengths_path) -> Dag:
    """Bootstrap, write the strength CSV to ``strengths_path`` if one is
    given, and average at ``--threshold``."""
    strengths = bootstrap_strengths(
        table, replicates=args.replicates, sample_size=args.sample_size, cfg=cfg
    )
    if strengths_path:
        _write(strengths_path, strengths.to_csv())
    return average_network(strengths, threshold=args.threshold)


def _complete_items(path):
    """The rows of the survey at ``path`` that answer every item in 1-5; the
    demographic columns are not read, because ``learn`` and ``fit`` use only
    the items."""
    return filter_cohort(parse_responses(path, schema=ITEMS_ONLY), CohortFilter(require_complete=True))


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        tabu_len=args.tabu_len,
        max_iter=args.max_iter,
        max_parents=args.max_parents,
        restarts=args.restarts,
        seed=args.seed,
        metric=args.metric,
    )


# -- subcommands -------------------------------------------------------------


def cmd_ingest(args) -> int:
    f = standard_filter() if args.filter_standard else CohortFilter()
    if args.age:
        f = replace(f, age_range=_parse_range(args.age, "age range", "18:60"))
    if args.genders:
        f = replace(f, genders=frozenset(args.genders.split(",")))
    if args.regions:
        f = replace(f, regions=frozenset(args.regions.split(",")))
    if args.require_complete:
        f = replace(f, require_complete=True)

    schema = ColumnSchema(age=args.age_col, gender=args.gender_col, country=args.country_col)
    codebook = read_codebook(args.codebook) if args.codebook else None
    table = parse_responses(args.input, schema=schema, codebook=codebook)
    if table.dropped_rows:
        print(f"dropped {table.dropped_rows} malformed rows", file=sys.stderr)
    if f != CohortFilter():
        table = filter_cohort(table, f)

    report = demographic_summary(table)
    print(f"rows: {report.n}")
    print("region:")
    for group, count in sorted(report.merged_america().items(), key=lambda kv: -kv[1]):
        if count:
            print(f"  {group:14s} {count}")
    print("gender:")
    for group, count in report.gender.items():
        if count:
            print(f"  {group:14s} {count}")
    print("age band:")
    for group, count in report.age_band.items():
        if count:
            print(f"  {group:14s} {count}")

    if args.output:
        _write(args.output, serialize_responses(table))
        print(f"wrote {args.output}")
    if args.report:
        dims = (("region", report.region), ("gender", report.gender), ("age", report.age_band))
        rows = ([dim, g, c] for dim, counts in dims for g, c in counts.items())
        _write(args.report, csv_text(["dimension", "group", "count"], rows))
    return 0


def cmd_learn(args) -> int:
    epochs = _checked_epochs(args, args.stability is not None)
    cfg = _search_config(args)
    table = _complete_items(args.input)

    if epochs:
        text = _stability_csv(table, epochs, cfg, args)
        if args.output:
            _write(args.output, text)
            print(f"wrote {args.output}")
        else:
            print(text, end="")
        return 0

    dag = _averaged_network(table, cfg, args, args.strengths)
    if args.strengths:
        print(f"wrote {args.strengths}")
    print(f"averaged network: {len(dag.arcs)} arcs over {len(dag.nodes)} nodes")
    params = fit_mle(dag, table)
    out = args.output or "model.json"
    _write(out, write_model(dag, params))
    print(f"wrote {out}")
    return 0


def cmd_fit(args) -> int:
    # the structure is settled before the corpus is parsed; only an arc
    # list waits for it, because the corpus's items are its nodes
    if args.dag and (args.model is not None or args.fixture):
        raise ValidationError("--dag cannot be combined with --model or --fixture")
    if not (args.dag or args.model is not None or args.fixture):
        raise ValidationError("fit needs a structure: --dag, --model or --fixture")
    dag = None if args.dag else _load_model(args)[0]
    table = _complete_items(args.input)
    if dag is None:
        dag = load_csv(args.dag, Dag.from_arc_csv, table.items)
    params = fit_mle(dag, table, unbiased=args.unbiased)
    out = args.output or "model.json"
    _write(out, write_model(dag, params))
    mean_sd = float(np.mean([params.residual_sd[n] for n in dag.nodes]))
    print(f"fit {len(dag.arcs)} coefficients; mean residual sd {mean_sd:.4f}")
    print(f"wrote {out}")
    return 0


DAMPING, WALK_STEPS = 0.85, 4  # analyze's defaults, and full-repro's stage 5


def cmd_analyze(args) -> int:
    dag, params = _load_model(args)
    return _analysis_reports(dag, params, args.damping, args.steps, args.clusters,
                             args.fixture, args.out_dir, args.dot)


def _analysis_reports(dag, params, damping, steps, clusters, fixture, out_dir, dot) -> int:
    """analyze's summary, reports and Graphviz file for one model; the partition
    is ``clusters``'s, the bundled labels with ``fixture``, or walktrap's."""
    if not dag.arcs:
        raise ValidationError("model has no arcs; nothing to analyze")

    # every report is computed before the first line is printed or file
    # written, so a bad flag (--damping, --steps) leaves no partial output
    roots, terminals = roots_and_terminals(dag)
    median = median_abs_coefficient(params)
    deg_in, deg_out = degree_centrality(dag)
    bet = betweenness(dag, params)
    pr = pagerank(dag, params, damping=damping)
    walked = None
    if clusters:
        partition = load_csv(clusters, Partition.from_csv)
    elif fixture:
        partition = fixtures.load_fixture_partition()
        walked = communities_walktrap(dag, params, steps=steps)
    else:
        partition = communities_walktrap(dag, params, steps=steps)
    coupling = cluster_coupling(dag, params, partition)
    pol = fixtures.load_polarity()
    intercepts = intercept_report(params, pol) if all(n in pol for n in dag.nodes) else None

    print(f"roots: {', '.join(sorted(roots))}")
    print(f"terminals: {', '.join(sorted(terminals))}")
    print(f"median |coefficient|: {median:.5f}")
    print(f"max degree out: {deg_out.argmax()}; max degree in: {deg_in.argmax()}")
    print(f"top betweenness: {', '.join(bet.top(3))}")
    print(f"top pagerank: {', '.join(pr.top(3))}")
    if walked is not None:
        print(f"walktrap finds {len(walked.clusters())} clusters; "
              f"coupling below uses the reference labels")
    sizes = {label: len(m) for label, m in sorted(partition.clusters().items())}
    print(f"clusters: {sizes}")
    for (a, b), value in sorted(coupling.items()):
        print(f"  coupling {a}->{b}: {value:.5f}")

    outdir = Path(out_dir) if out_dir else None
    if outdir:
        if intercepts is not None:
            _write(outdir / "intercepts.csv", intercepts.to_csv())
        _write(outdir / "degree_in.csv", deg_in.to_csv())
        _write(outdir / "degree_out.csv", deg_out.to_csv())
        _write(outdir / "betweenness.csv", bet.to_csv())
        _write(outdir / "pagerank.csv", pr.to_csv())
        _write(outdir / "partition.csv", partition.to_csv())
        rows = ([a, b, f"{v:.5f}"] for (a, b), v in sorted(coupling.items()))
        _write(outdir / "coupling.csv",
               csv_text(["from_cluster", "to_cluster", "sum_abs_coefficient"], rows))
        _write(outdir / "arcs.csv", dag.to_arc_csv())
        print(f"wrote reports to {outdir}")
    if dot:
        _write_dot(dot, dag, params, partition)
        print(f"wrote {dot}")
    return 0


def _write_dot(path, dag, params, partition) -> None:
    """The network as Graphviz source, clustered by ``partition`` and labelled
    with the fitted coefficients."""
    weights = {(p, c): v for p, c, v in params.arc_items()}
    _write(path, dag.to_dot(partition=partition.assignment, weights=weights))


def cmd_influence(args) -> int:
    dag, params = _load_model(args)
    result = influence_result(dag, params, args.source, args.target, k=args.k, cap=args.cap)
    print(f"total influence {args.source} -> {args.target}: {result.total:.4f}")
    if result.paths:
        for rank, path in enumerate(result.paths, start=1):
            print(f"  {rank}. {'->'.join(path.nodes)}  product {path.product:.4f}")
        print(f"  sum of listed products: {sum(p.product for p in result.paths):.4f}")
    if args.output:
        _write(args.output, result.to_csv())
    return 0


def cmd_compare_kmeans(args) -> int:
    data = fixtures.load_factor_table(args.factors)
    seeds = _parse_range(args.seeds, "seed range", "1:4000")
    result = kmeans_best_seed(data, k=args.k, seed_range=seeds)
    print(f"best seed {result.best_seed}; within-cluster ss {result.total_within_ss:.5f}")
    for label, members in sorted(result.clusters().items()):
        print(f"  cluster {label}: {', '.join(sorted(members))}")
    if args.output:
        _write(args.output, csv_text(["item", "cluster"], sorted(result.assignment.items())))
    return 0


def cmd_compare_edges(args) -> int:
    ours = fixtures.load_edge_weights(args.ours)
    theirs = fixtures.load_edge_weights(args.theirs)
    n, r, t, p = edge_set_correlation(ours, theirs, mode=args.mode)
    print(f"{args.mode}: n={n} r={r:.3f} t={t:.3f} p={p:.3g}")
    return 0


def _data_rows(buf, columns=(), key=None) -> list[dict]:
    """The rows of a CSV file with at least two columns and one data row
    (``read_rows`` reads ``columns`` and ``key``)."""
    rows = read_rows(buf, columns, key)
    if not rows:
        raise ValidationError("no data rows")
    if len(rows[0]) < 2:
        raise ValidationError("expected at least 2 columns")
    return rows


def _item_values(buf, groups) -> dict[str, float]:
    """Item -> the number in the first column other than ``item``; every item
    must be in ``groups``."""
    rows = _data_rows(buf, ("item",), "item")
    value_col = [c for c in rows[0] if c != "item"][0]
    values = {}
    for row, r in enumerate(rows, start=1):
        if r["item"] not in groups:
            raise ValidationError(f"row {row}: item {r['item']!r} has no group")
        values[r["item"]] = number(r[value_col], row)
    return values


def cmd_compare_mwu(args) -> int:
    if args.groups == "polarity":
        groups = fixtures.load_polarity()
    else:
        group_rows = load_csv(args.groups, read_rows, ("item", "group"), "item")
        groups = {r["item"]: r["group"] for r in group_rows}
    values = load_csv(args.values, _item_values, groups)
    names = sorted({groups[i] for i in values})
    if len(names) != 2:
        raise ValidationError(f"need exactly 2 groups, found {names}")
    a = [v for i, v in values.items() if groups[i] == names[0]]
    b = [v for i, v in values.items() if groups[i] == names[1]]
    u, p = mann_whitney_u(a, b)
    print(f"{names[0]} (n={len(a)}) vs {names[1]} (n={len(b)}): U={u:g} p={p:.3g}")
    return 0


def cmd_compare_pca(args) -> int:
    data = fixtures.load_factor_table(args.factors)
    projected = pca_project(data, dims=args.dims)
    text = projected.to_csv()
    if projected.variance_explained:
        shares = ", ".join(f"{v:.1%}" for v in projected.variance_explained)
        print(f"variance explained: {shares}")
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="")
    return 0


def _points(buf) -> list[tuple[float, float]]:
    """(x, y) from the last two columns of each row."""
    rows = _data_rows(buf)
    x, y = list(rows[0])[-2:]
    return [(number(r[x], row), number(r[y], row)) for row, r in enumerate(rows, start=1)]


def cmd_compare_ellipse(args) -> int:
    e = confidence_ellipse(load_csv(args.points, _points), level=args.level)
    angle = round(e.angle, 1) % 180.0  # an angle just below 180 would print as 180.0
    print(f"center: ({e.center[0]:.4f}, {e.center[1]:.4f})")
    print(f"half-axes: {e.axes[0]:.4f}, {e.axes[1]:.4f}; angle {angle:.1f} deg")
    return 0


def cmd_export(args) -> int:
    dag, params = fixtures.load_fixture_model()
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write(outdir / "model.json", write_model(dag, params))
    _write(outdir / "arcs.csv", dag.to_arc_csv())
    partition = fixtures.load_fixture_partition()
    _write(outdir / "clusters.csv", partition.to_csv())
    report = intercept_report(params, fixtures.load_polarity())
    _write(outdir / "intercepts.csv", report.to_csv())
    if args.dot:
        _write_dot(outdir / "network.dot", dag, params, partition)
    print(f"wrote reference model files to {outdir}")
    return 0


def cmd_full_repro(args) -> int:
    """End-to-end reproduction on a raw corpus export (long-running)."""
    epochs = _checked_epochs(args, not args.skip_stability)
    cfg = SearchConfig(seed=args.seed)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    print("[1/5] ingest + standard cohort filter")
    table = parse_responses(args.input)
    table = filter_cohort(table, standard_filter())
    print(f"  cohort rows: {table.n}")
    _write(outdir / "cohort.csv", serialize_responses(table))

    if not args.skip_stability:
        print("[2/5] stability curve (this is the long part)")
        _write(outdir / "stability.csv", _stability_csv(table, epochs, cfg, args))
    else:
        print("[2/5] stability curve skipped")

    print(f"[3/5] bootstrap structure learning (R={args.replicates})")
    dag = _averaged_network(table, cfg, args, outdir / "strengths.csv")
    print(f"  averaged network has {len(dag.arcs)} arcs")

    print("[4/5] parameter fit")
    params = fit_mle(dag, table)
    _write(outdir / "model.json", write_model(dag, params))
    mean_sd = float(np.mean([params.residual_sd[n] for n in dag.nodes]))
    print(f"  mean residual sd: {mean_sd:.4f}")

    print("[5/5] analysis reports")
    return _analysis_reports(dag, params, DAMPING, WALK_STEPS, None, False,
                             outdir / "analysis", outdir / "network.dot")


# -- parser ------------------------------------------------------------------


def _add_bootstrap_flags(
    p: argparse.ArgumentParser, replicates: int, stability: str | None
) -> None:
    """The bootstrap, averaging and stability flags ``learn`` and
    ``full-repro`` share; only the defaults of ``-R`` and ``--stability``
    differ."""
    p.add_argument("-R", "--replicates", type=int, default=replicates)
    p.add_argument("-m", "--sample-size", type=int, default=1000)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--stability", default=stability,
                   help="comma-separated replicate counts, e.g. 50,100,200")
    p.add_argument("--repeats", type=int, default=5, help="repeats per stability epoch")
    p.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted and checked to be >= 1; replicates run one at a time (default 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attachnet", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, filter and summarize a survey export")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="write the canonical cohort CSV here")
    p.add_argument("--report", help="write demographic counts CSV here")
    p.add_argument("--filter-standard", action="store_true", help="ages 18:60, female/male, complete rows")
    p.add_argument("--age", help="inclusive age range LO:HI")
    p.add_argument("--genders", help="comma-separated gender labels to keep")
    p.add_argument("--regions", help="comma-separated regions to keep")
    p.add_argument("--require-complete", action="store_true")
    p.add_argument("--codebook", help="key=value demographic code mapping file")
    p.add_argument("--age-col", default="age")
    p.add_argument("--gender-col", default="gender")
    p.add_argument("--country-col", default="country")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("learn", help="bootstrap structure learning / stability curve")
    p.add_argument("input")
    _add_bootstrap_flags(p, replicates=100, stability=None)
    p.add_argument("-o", "--output", help="model JSON path (default model.json)")
    p.add_argument("--strengths", help="write the arc strength CSV here")
    p.add_argument("--tabu-len", type=int, default=10)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--max-parents", type=int, default=None)
    p.add_argument("--restarts", type=int, default=0)
    p.add_argument("--metric", choices=tuple(PENALTIES), default="bic")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("fit", help="fit parameters on a fixed structure")
    p.add_argument("input")
    p.add_argument("--dag", help="arc-list CSV (from,to)")
    p.add_argument("--model", help="take the structure from this model JSON")
    p.add_argument("--fixture", action="store_true", help="use the bundled reference structure")
    p.add_argument("--unbiased", action="store_true", help="n-p-1 residual sd denominator")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("analyze", help="communities, centralities, coupling, roots/terminals")
    p.add_argument("model", nargs="?", default=None)
    p.add_argument("--fixture", action="store_true", help="analyze the bundled reference model")
    p.add_argument("--out-dir", help="write plot-ready CSV reports here")
    p.add_argument("--damping", type=float, default=DAMPING)
    p.add_argument("--steps", type=int, default=WALK_STEPS, help="walktrap walk length")
    p.add_argument("--clusters", help="node,cluster CSV overriding walktrap")
    p.add_argument("--dot", help="write a Graphviz file here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("influence", help="total influence and top paths between two items")
    p.add_argument("model", nargs="?", default=None)
    p.add_argument("--fixture", action="store_true")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("-k", type=int, default=None, help="report the k largest-|product| paths")
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("compare", help="statistical comparisons against other studies")
    csub = p.add_subparsers(dest="compare_command", required=True)

    c = csub.add_parser("kmeans", help="seed-swept Lloyd clustering of factor loadings")
    c.add_argument("factors", help="factor CSV (item,f1,f2,...) or a bundled table name")
    c.add_argument("-k", type=int, required=True)
    c.add_argument("--seeds", default="1:4000", help="inclusive seed range LO:HI")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_compare_kmeans)

    c = csub.add_parser("edges", help="correlation between two edge-weight sets")
    c.add_argument("ours", help="edge CSV (item_a,item_b,weight) or 'fixture'")
    c.add_argument("theirs", help="edge CSV or 'external'")
    c.add_argument("--mode", choices=("union", "intersection"), default="union")
    c.set_defaults(func=cmd_compare_edges)

    c = csub.add_parser("mwu", help="Mann-Whitney U between two item groups")
    c.add_argument("values", help="CSV with item,value columns")
    c.add_argument("--groups", default="polarity", help="'polarity' or an item,group CSV")
    c.set_defaults(func=cmd_compare_mwu)

    c = csub.add_parser("pca", help="principal-component projection of factor loadings")
    c.add_argument("factors")
    c.add_argument("--dims", type=int, default=2)
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_compare_pca)

    c = csub.add_parser("ellipse", help="concentration ellipse of 2-D points")
    c.add_argument("points", help="CSV whose last two columns are x,y")
    c.add_argument("--level", type=float, default=0.95)
    c.set_defaults(func=cmd_compare_ellipse)

    p = sub.add_parser("export", help="write the bundled reference model files")
    p.add_argument("--out-dir", default="reference-model")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("full-repro", help="end-to-end reproduction on a raw corpus (slow)")
    p.add_argument("input", help="raw survey export")
    p.add_argument("--out-dir", default="full-repro")
    _add_bootstrap_flags(p, replicates=3000, stability="50,100,200,500,1000,1500,3000,5000")
    p.add_argument("--skip-stability", action="store_true")
    p.set_defaults(func=cmd_full_repro)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # library warnings print as one line each; the caller's filters apply
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AttachnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
