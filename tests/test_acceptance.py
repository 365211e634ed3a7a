"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each subcheck prints a [PASS]/[FAIL] line so a run reads as a checklist.
Published figures are asserted wherever they follow from the published
coefficient tables.  Three do not, and the checks say what they are instead
(the README's acceptance section walks through the arithmetic):

* criterion 2: the published "second" Q05->Q03 path (product -0.0167) ranks
  5th by |product|; top-2 is checked against a brute-force ranking of every
  enumerated path, and -0.0167 as the product of that path.
* criterion 3: the published totals are partial sums over the paths the
  published tables list (8 of 43 for Q05->Q23; for Q02->Q23 the 8
  negative-product paths).  Totals and path counts are checked against the
  closed forms (I - B)^-1 and (I - A)^-1 computed here from the arc table.
* criterion 5: the published t = 7.094 belongs to the unrounded union r
  (0.822843), so it is checked on the pipeline's own t, not on the transform
  of the rounded r = 0.823 (7.0978).
"""
import math
import time
import warnings

import numpy as np
import pytest

import attachnet
from attachnet import fixtures
from attachnet.compare import (
    edge_set_correlation,
    kmeans_best_seed,
    mann_whitney_u,
    pearson_significance,
)
from attachnet.dag import Dag
from attachnet.errors import ValidationError
from attachnet.score import graph_score, stats_from_matrix
from attachnet.structure import SearchConfig, tabu_search


class Checklist:
    def __init__(self, title):
        self.title = title
        self.failures = []

    def check(self, label, passed, detail=""):
        tag = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{tag}] {self.title}: {label}{suffix}")
        if not passed:
            self.failures.append(f"{label}{suffix}")
        return passed

    def finish(self):
        assert not self.failures, f"{self.title}: {len(self.failures)} subcheck(s) failed: " + "; ".join(
            self.failures
        )


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # run one search before any timed section
    rows = np.random.default_rng(0).normal(size=(50, 3))
    tabu_search(stats_from_matrix(rows, ("a", "b", "c")), SearchConfig(seed=0))


@pytest.fixture(scope="module")
def model():
    return fixtures.load_fixture_model()


def test_criterion_1_fixture_integrity():
    c = Checklist("criterion 1")
    start = time.time()
    dag, params = fixtures.load_fixture_model()
    roots, terminals = attachnet.roots_and_terminals(dag)
    median = attachnet.median_abs_coefficient(params)
    elapsed = time.time() - start
    c.check("123 arcs", len(dag.arcs) == 123, f"{len(dag.arcs)}")
    c.check("roots {Q02, Q05}", roots == {"Q02", "Q05"}, f"{sorted(roots)}")
    c.check("terminals {Q16, Q34, Q36}", terminals == {"Q16", "Q34", "Q36"}, f"{sorted(terminals)}")
    c.check("median |coefficient| exactly 0.17217", median == 0.17217, f"{median}")
    c.check("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f}s")
    c.finish()


def _closed_forms(params):
    """Total effects and path counts of every pair, from the arc table alone.

    With B[u, v] the coefficient of arc u->v and A its 0/1 pattern, B is
    nilpotent in a DAG, so (I - B)^-1 = sum_k B^k holds the sum of path
    products and (I - A)^-1 = sum_k A^k the number of directed paths.
    Returns lookups total(source, target) and count(source, target).
    """
    index = {node: i for i, node in enumerate(params.nodes)}
    b = np.zeros((len(index), len(index)))
    a = np.zeros_like(b)
    for parent, child, coeff in params.arc_items():
        b[index[parent], index[child]] = coeff
        a[index[parent], index[child]] = 1.0
    eye = np.eye(len(index))
    totals = np.linalg.inv(eye - b)
    counts = np.rint(np.linalg.inv(eye - a)).astype(int)

    def total(source, target):
        return float(totals[index[source], index[target]])

    def count(source, target):
        return int(counts[index[source], index[target]])

    return total, count


def _ranked_paths(dag, params, source, target):
    """Every enumerated path with its product from the arc table, ranked by
    |product| with ties broken on the node sequence."""
    coeff = {(u, v): c for u, v, c in params.arc_items()}
    scored = [
        (math.prod(coeff[arc] for arc in zip(path, path[1:])), tuple(path))
        for path in attachnet.enumerate_paths(dag, source, target)
    ]
    return sorted(scored, key=lambda s: (-abs(s[0]), s[1]))


def _matches_ranking(top, ranked):
    return [p.nodes for p in top] == [nodes for _, nodes in ranked[: len(top)]] and all(
        abs(p.product - product) <= 1e-12 for p, (product, _) in zip(top, ranked)
    )


def test_criterion_2_top_path_products(model):
    c = Checklist("criterion 2")
    start = time.time()
    dag, params = model
    q05 = attachnet.top_paths(dag, params, "Q05", "Q03", k=2)
    q02 = attachnet.top_paths(dag, params, "Q02", "Q03", k=2)
    elapsed = time.time() - start

    total, count = _closed_forms(params)
    q05_ranked = _ranked_paths(dag, params, "Q05", "Q03")
    q02_ranked = _ranked_paths(dag, params, "Q02", "Q03")
    for source, ranked, n_paths, expected_total in (
        ("Q05", q05_ranked, 78, -0.403708),
        ("Q02", q02_ranked, 41, 0.007261),
    ):
        label = f"{source}->Q03"
        closed = total(source, "Q03")
        path_sum = sum(product for product, _ in ranked)
        c.check(
            f"{label} enumeration complete: {n_paths} paths = (I-A)^-1",
            len(ranked) == count(source, "Q03") == n_paths,
            f"{len(ranked)} enumerated, {count(source, 'Q03')} closed form",
        )
        c.check(
            f"{label} sum of products = (I-B)^-1 = {expected_total} +/- 5e-4",
            abs(path_sum - closed) <= 1e-12 and abs(closed - expected_total) <= 5e-4,
            f"sum {path_sum:.6f}, closed form {closed:.6f}",
        )

    c.check(
        "Q05->Q03 top-2 = brute-force ranking by |product|",
        _matches_ranking(q05, q05_ranked),
        f"{['->'.join(p.nodes) for p in q05]}",
    )
    c.check(
        "Q05->Q03 first product -0.1394 +/- 5e-4",
        abs(q05[0].product - (-0.1394)) <= 5e-4,
        f"{q05[0].product:.4f} via {'->'.join(q05[0].nodes)}",
    )
    c.check(
        "Q05->Q03 second product -0.0432 +/- 5e-4",
        abs(q05[1].product - (-0.0432)) <= 5e-4,
        f"{q05[1].product:.4f} via {'->'.join(q05[1].nodes)}",
    )
    published_second = ("Q05", "Q07", "Q23", "Q03")
    published_product = attachnet.path_product(published_second, params)
    c.check(
        "published second path Q05->Q07->Q23->Q03 product -0.0167 +/- 5e-4",
        abs(published_product - (-0.0167)) <= 5e-4,
        f"{published_product:.4f}, rank "
        f"{[nodes for _, nodes in q05_ranked].index(published_second) + 1}",
    )
    c.check(
        "published Q05->Q03 pair sum -0.1561 +/- 5e-4",
        abs(q05[0].product + published_product - (-0.1561)) <= 5e-4,
        f"{q05[0].product + published_product:.4f}",
    )
    c.check(
        "Q02->Q03 top-2 = brute-force ranking by |product|",
        _matches_ranking(q02, q02_ranked),
        f"{['->'.join(p.nodes) for p in q02]}",
    )
    c.check(
        "Q02->Q03 first product 0.0074 +/- 5e-4",
        abs(q02[0].product - 0.0074) <= 5e-4,
        f"{q02[0].product:.4f}",
    )
    c.check(
        "Q02->Q03 second product 0.0021 +/- 5e-4",
        abs(q02[1].product - 0.0021) <= 5e-4,
        f"{q02[1].product:.4f}",
    )
    c.check(
        "Q02->Q03 top-2 sum 0.0095 +/- 5e-4",
        abs(sum(p.product for p in q02) - 0.0095) <= 5e-4,
        f"{sum(p.product for p in q02):.4f}",
    )
    c.check("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f}s")
    c.finish()


def test_criterion_3_influence_totals(model):
    c = Checklist("criterion 3")
    start = time.time()
    dag, params = model
    q05_total = attachnet.total_influence(dag, params, "Q05", "Q23")
    q02_total = attachnet.total_influence(dag, params, "Q02", "Q23")
    q05_paths = attachnet.enumerate_paths(dag, "Q05", "Q23")
    q02_paths = attachnet.enumerate_paths(dag, "Q02", "Q23")
    elapsed = time.time() - start

    total, count = _closed_forms(params)
    for label, got, closed, expected in (
        ("Q05->Q23", q05_total, total("Q05", "Q23"), 0.4580),
        ("Q02->Q23", q02_total, total("Q02", "Q23"), -0.0650),
    ):
        c.check(
            f"total influence {label} = (I-B)^-1 = {expected:.4f} +/- 1e-3",
            abs(got - closed) <= 1e-12 and abs(closed - expected) <= 1e-3,
            f"{got:.6f}, closed form {closed:.6f}",
        )
    for label, paths, closed, expected in (
        ("Q05->Q23", q05_paths, count("Q05", "Q23"), 43),
        ("Q02->Q23", q02_paths, count("Q02", "Q23"), 26),
    ):
        c.check(
            f"exactly {expected} paths {label} = (I-A)^-1",
            len(paths) == closed == expected,
            f"{len(paths)} enumerated, {closed} closed form",
        )
    negative = [p for p in q02_paths if attachnet.path_product(p, params) < 0]
    negative_sum = sum(attachnet.path_product(p, params) for p in negative)
    c.check(
        "published Q02->Q23 -0.0701 +/- 1e-3 = its 8 negative paths, all via Q22->Q23",
        len(negative) == 8
        and all(p[-2:] == ("Q22", "Q23") for p in negative)
        and abs(negative_sum - (-0.0701)) <= 1e-3,
        f"{len(negative)} paths, sum {negative_sum:.4f}",
    )
    c.check("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f}s")
    c.finish()


def test_criterion_4_influence_oracle_suite():
    c = Checklist("criterion 4")
    start = time.time()
    rng = np.random.default_rng(4242)
    worst_dp = 0.0
    worst_fd = 0.0
    for _ in range(200):
        m = int(rng.integers(3, 13))
        nodes = tuple(f"n{i:02d}" for i in range(m))
        order = rng.permutation(m)
        coefficients = {n: {} for n in nodes}
        arcs = set()
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < 0.35:
                    u, v = nodes[order[i]], nodes[order[j]]
                    arcs.add((u, v))
                    coefficients[v][u] = float(rng.uniform(-1, 1))
        dag = Dag(nodes, arcs)
        params = attachnet.GaussianBnParams(
            nodes=nodes,
            intercept={n: 0.0 for n in nodes},
            residual_sd={n: 0.0 for n in nodes},
            coefficients=coefficients,
        )
        src, dst = nodes[order[0]], nodes[order[-1]]
        total = attachnet.total_influence(dag, params, src, dst)
        brute = sum(
            attachnet.path_product(p, params)
            for p in attachnet.enumerate_paths(dag, src, dst)
        )
        worst_dp = max(worst_dp, abs(total - brute))

        eps = 1e-6

        def propagate(bump):
            values = {}
            for node in dag.topological_order():
                v = bump if node == src else 0.0
                for parent, coeff in coefficients[node].items():
                    v += coeff * values[parent]
                values[node] = v
            return values[dst]

        fd = (propagate(eps) - propagate(0.0)) / eps
        scale = max(abs(total), 1e-12)
        worst_fd = max(worst_fd, abs(fd - total) / scale)
    elapsed = time.time() - start
    c.check("DP equals brute-force sum within 1e-12", worst_dp < 1e-12, f"worst {worst_dp:.2e}")
    c.check("DP matches finite differences within 1e-6 rel", worst_fd < 1e-6, f"worst {worst_fd:.2e}")
    c.check("runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f}s")
    c.finish()


def test_criterion_5_pearson_and_edge_sets():
    c = Checklist("criterion 5")
    ours = fixtures.load_edge_weights("fixture")
    theirs = fixtures.load_edge_weights("external")
    n_u, r_u, t_u, p_u = edge_set_correlation(ours, theirs, mode="union")
    # the published t belongs to the unrounded r, not to the rounded 0.823
    c.check("union t (df=24) = 7.094 +/- 1e-3", abs(t_u - 7.094) <= 1e-3, f"t={t_u:.4f} at r={r_u:.6f}")
    c.check("union p (df=24) = 2.48e-7 +/- 5% rel", abs(p_u - 2.48e-7) / 2.48e-7 <= 0.05, f"p={p_u:.3e}")
    t2, p2 = pearson_significance(0.626, 10)
    c.check("t(r=0.626, df=10) = 2.54 +/- 5e-3", abs(t2 - 2.54) <= 5e-3, f"t={t2:.4f}")
    c.check("p(r=0.626, df=10) = 0.0294 +/- 5% rel", abs(p2 - 0.0294) / 0.0294 <= 0.05, f"p={p2:.4f}")

    c.check("union n = 26", n_u == 26, f"{n_u}")
    c.check("union r = 0.823 +/- 1e-3", abs(r_u - 0.823) <= 1e-3, f"{r_u:.4f}")
    n_i, r_i, _, _ = edge_set_correlation(ours, theirs, mode="intersection")
    c.check("intersection n = 12", n_i == 12, f"{n_i}")
    c.check("intersection r = 0.626 +/- 1e-3", abs(r_i - 0.626) <= 1e-3, f"{r_i:.4f}")
    c.finish()


def _all_four_node_dags():
    nodes = ("a", "b", "c", "d")
    unordered = [(x, y) for i, x in enumerate(nodes) for y in nodes[i + 1 :]]
    out = []
    for bits in range(3**6):
        arcs = set()
        code = bits
        for x, y in unordered:
            state = code % 3
            code //= 3
            if state == 1:
                arcs.add((x, y))
            elif state == 2:
                arcs.add((y, x))
        try:
            out.append(Dag(nodes, arcs))
        except ValidationError:
            continue
    return nodes, out


def test_criterion_6_structure_learning_oracle():
    c = Checklist("criterion 6")
    start = time.time()
    nodes, enumerated = _all_four_node_dags()
    c.check("exhaustive enumeration finds 543 DAGs", len(enumerated) == 543, f"{len(enumerated)}")

    optima = 0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        order = rng.permutation(4)
        rows = np.zeros((2000, 4))
        for pos, j in enumerate(order):
            col = rng.normal(size=2000)
            for prev in range(pos):
                if rng.random() < 0.5:
                    col += rng.uniform(-2, 2) * rows[:, order[prev]]
            rows[:, j] = col
        stats = stats_from_matrix(rows, nodes)
        found = tabu_search(stats, SearchConfig(seed=trial, restarts=2))
        best = max(graph_score(d, stats) for d in enumerated)
        if abs(graph_score(found, stats) - best) < 1e-6:
            optima += 1
    c.check("global BIC optimum in >= 48/50 runs", optima >= 48, f"{optima}/50")

    recovered = 0
    for trial in range(50):
        rng = np.random.default_rng(5000 + trial)
        x = rng.normal(size=5000)
        y = rng.normal(size=5000)
        z = x + y + rng.normal(size=5000)
        stats = stats_from_matrix(np.column_stack([x, y, z]), ("X", "Y", "Z"))
        found = tabu_search(stats, SearchConfig(seed=trial))
        if found.arcs == frozenset({("X", "Z"), ("Y", "Z")}):
            recovered += 1
    c.check("v-structure recovered in >= 45/50 runs", recovered >= 45, f"{recovered}/50")
    elapsed = time.time() - start
    c.check("runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f}s")
    c.finish()


def test_criterion_7_centralities(model):
    c = Checklist("criterion 7")
    dag, params = model
    deg_in, deg_out = attachnet.degree_centrality(dag)
    c.check("argmax degree_out = Q09", deg_out.argmax() == "Q09", deg_out.argmax())
    c.check("argmax degree_in = Q23", deg_in.argmax() == "Q23", deg_in.argmax())
    bet = attachnet.betweenness(dag, params)
    c.check("top-2 betweenness = {Q09, Q23}", set(bet.top(2)) == {"Q09", "Q23"}, f"{bet.top(2)}")
    pr = attachnet.pagerank(dag, params, damping=0.85)
    top3 = set(pr.top(3))
    if top3 != {"Q28", "Q29", "Q34"}:
        warnings.warn(f"soft check: pagerank top-3 {sorted(top3)} != {{Q28, Q29, Q34}}")
        print(f"[WARN] criterion 7: pagerank top-3 soft check ({sorted(top3)})")
    else:
        print("[PASS] criterion 7: pagerank top-3 = {Q28, Q29, Q34} (soft)")
    c.finish()


def test_criterion_8_clustering(model, fixture_partition):
    c = Checklist("criterion 8")
    start = time.time()
    dag, params = model
    reference = fixture_partition.clusters()

    walked = attachnet.communities_walktrap(dag, params, steps=4)
    c.check(
        "walktrap (steps 4) reproduces the five reference clusters",
        walked.as_sets() == fixture_partition.as_sets(),
        f"found {len(walked.clusters())} clusters",
    )

    avoid = kmeans_best_seed(fixtures.load_factor_table("wei2007_avoidance"), k=2, seed_range=(1, 4000))
    c.check(
        "k-means on avoidance factors (k=2) matches {C1, C5}",
        avoid.as_sets() == frozenset({frozenset(reference["C1"]), frozenset(reference["C5"])}),
    )
    anx = kmeans_best_seed(fixtures.load_factor_table("wei2007_anxiety"), k=3, seed_range=(1, 4000))
    c.check(
        "k-means on anxiety factors (k=3) matches {C2, C3, C4}",
        anx.as_sets()
        == frozenset(
            {frozenset(reference["C2"]), frozenset(reference["C3"]), frozenset(reference["C4"])}
        ),
    )
    elapsed = time.time() - start
    c.check("runtime < 1 min", elapsed < 60.0, f"{elapsed:.1f}s")
    c.finish()


def test_criterion_9_mann_whitney(model):
    c = Checklist("criterion 9")
    _, params = model
    polarity = fixtures.load_polarity()
    positive = [params.intercept[i] for i in params.nodes if polarity[i] == "positive"]
    negative = [params.intercept[i] for i in params.nodes if polarity[i] == "negative"]
    c.check("10 positive vs 26 negative items", (len(positive), len(negative)) == (10, 26))
    _, p = mann_whitney_u(positive, negative)
    c.check("two-tailed p in [1e-4, 1e-3]", 1e-4 <= p <= 1e-3, f"p={p:.2e}")
    c.finish()


def test_criterion_10_full_corpus_repro_is_optional():
    # the full-corpus experiment ships as a documented CLI entry point but is
    # excluded from CI: it needs the public corpus download and hours of compute
    import argparse

    from attachnet.cli import build_parser

    parser = build_parser()
    subactions = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert "full-repro" in subactions.choices
    print("[SKIP] criterion 10: full-corpus reproduction ships as `attachnet full-repro` (not run in CI)")
    pytest.skip("full-corpus reproduction requires the public corpus and hours of compute")
