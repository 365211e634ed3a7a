import pytest

from attachnet.analytics import Partition
from attachnet.dag import Dag
from attachnet.errors import PathCountError, ValidationError
from attachnet.influence import (
    InfluencePath,
    cluster_coupling,
    count_paths,
    enumerate_paths,
    influence_result,
    median_abs_coefficient,
    path_product,
    top_paths,
    total_influence,
)
from attachnet.params import GaussianBnParams


def build_model(nodes, coeff_arcs):
    arcs = {(u, v) for u, v, _ in coeff_arcs}
    coefficients = {n: {} for n in nodes}
    for u, v, c in coeff_arcs:
        coefficients[v][u] = c
    dag = Dag(nodes, arcs)
    params = GaussianBnParams(
        nodes=tuple(nodes),
        intercept={n: 0.0 for n in nodes},
        residual_sd={n: 1.0 for n in nodes},
        coefficients=coefficients,
    )
    return dag, params


@pytest.fixture
def five_node_example():
    # root p, sink t; q is the query source
    return build_model(
        ("p", "q", "r", "s", "t"),
        [
            ("p", "r", 0.5),
            ("p", "s", 0.4),
            ("p", "t", 0.3),
            ("q", "r", 0.6),
            ("q", "s", 0.7),
            ("q", "t", 0.2),
            ("r", "s", 0.8),
            ("r", "t", 0.9),
            ("s", "t", 0.1),
        ],
    )


def test_example_graph_has_four_paths(five_node_example):
    dag, _ = five_node_example
    paths = enumerate_paths(dag, "q", "t")
    assert sorted(paths) == [
        ("q", "r", "s", "t"),
        ("q", "r", "t"),
        ("q", "s", "t"),
        ("q", "t"),
    ]


def test_example_graph_chain_rule(five_node_example):
    dag, params = five_node_example
    by_hand = 0.6 * 0.9 + 0.7 * 0.1 + 0.6 * 0.8 * 0.1 + 0.2
    assert total_influence(dag, params, "q", "t") == pytest.approx(by_hand, abs=1e-12)


def test_no_connectivity_gives_empty_list():
    dag, params = build_model(("a", "b", "c"), [("a", "b", 0.5)])
    assert enumerate_paths(dag, "b", "c") == []
    assert total_influence(dag, params, "b", "c") == 0.0


def test_single_arc_path_product_is_coefficient():
    dag, params = build_model(("a", "b"), [("a", "b", -0.37)])
    assert path_product(("a", "b"), params) == pytest.approx(-0.37)


def test_path_product_missing_arc_rejected():
    dag, params = build_model(("a", "b", "c"), [("a", "b", 0.5)])
    with pytest.raises(ValidationError):
        path_product(("a", "c"), params)


def test_self_influence_is_unit(fixture_model):
    dag, params = fixture_model
    assert total_influence(dag, params, "Q05", "Q05") == 1.0


def test_influence_result_checks_in_order(fixture_model):
    """An unknown node is refused before ``k``, and ``k`` before source ==
    target, which has a total of 1 and lists no paths."""
    dag, params = fixture_model
    with pytest.raises(ValidationError, match="unknown node 'QXX'"):
        influence_result(dag, params, "QXX", "Q05", k=0)
    with pytest.raises(ValidationError, match="k must be >= 1"):
        influence_result(dag, params, "Q05", "Q05", k=0)
    result = influence_result(dag, params, "Q05", "Q05", k=2)
    assert (result.total, result.paths) == (1.0, None)


def test_non_descendant_influence_is_zero(fixture_model):
    dag, params = fixture_model
    # Q02 and Q05 are both roots, so neither can influence the other
    assert total_influence(dag, params, "Q02", "Q05") == 0.0


def test_influence_on_a_parentless_target_is_float_zero(fixture_model):
    dag, params = fixture_model
    assert dag.parents("Q02") == ()
    total = total_influence(dag, params, "Q05", "Q02")
    assert type(total) is float and total == 0.0
    assert type(influence_result(dag, params, "Q05", "Q02", k=2).total) is float


def test_fixture_path_products_match_reported_values(fixture_model):
    dag, params = fixture_model
    assert path_product(("Q05", "Q07", "Q23", "Q03"), params) == pytest.approx(-0.0167, abs=5e-4)
    assert path_product(("Q05", "Q07", "Q03"), params) == pytest.approx(-0.1394, abs=5e-4)


def test_fixture_top_paths_from_second_root(fixture_model):
    dag, params = fixture_model
    top2 = top_paths(dag, params, "Q02", "Q03", k=2)
    assert top2[0].nodes == ("Q02", "Q22", "Q23", "Q03")
    assert top2[0].product == pytest.approx(0.0074, abs=5e-4)
    assert top2[1].nodes == ("Q02", "Q08", "Q22", "Q23", "Q03")
    assert top2[1].product == pytest.approx(0.0021, abs=5e-4)
    assert sum(p.product for p in top2) == pytest.approx(0.0095, abs=5e-4)


def test_dp_equals_enumeration_on_fixture(fixture_model):
    dag, params = fixture_model
    for source, target in [("Q05", "Q23"), ("Q02", "Q23"), ("Q05", "Q03"), ("Q02", "Q03")]:
        paths = enumerate_paths(dag, source, target)
        assert len(paths) == count_paths(dag, source, target)
        sum_products = sum(path_product(p, params) for p in paths)
        assert total_influence(dag, params, source, target) == pytest.approx(
            sum_products, abs=1e-12
        )


def test_dp_equals_enumeration_random_dags(rng):
    for _ in range(40):
        m = int(rng.integers(3, 13))
        nodes = tuple(f"n{i:02d}" for i in range(m))
        order = rng.permutation(m)
        coeff_arcs = []
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < 0.35:
                    coeff_arcs.append(
                        (nodes[order[i]], nodes[order[j]], float(rng.uniform(-1, 1)))
                    )
        dag, params = build_model(nodes, coeff_arcs)
        src, dst = nodes[order[0]], nodes[order[-1]]
        paths = enumerate_paths(dag, src, dst)
        assert total_influence(dag, params, src, dst) == pytest.approx(
            sum(path_product(p, params) for p in paths), abs=1e-12
        )


def test_finite_difference_oracle(fixture_model):
    dag, params = fixture_model
    eps = 1e-6

    def propagate(bump):
        values = {}
        for node in dag.topological_order():
            v = params.intercept[node] + (bump if node == "Q05" else 0.0)
            for parent, coeff in params.coefficients.get(node, {}).items():
                v += coeff * values[parent]
            values[node] = v
        return values["Q23"]

    fd = (propagate(eps) - propagate(0.0)) / eps
    dp = total_influence(dag, params, "Q05", "Q23")
    assert fd == pytest.approx(dp, rel=1e-6)


def test_path_products_decay_when_extended(fixture_model):
    dag, params = fixture_model
    # every |coefficient| < 1, so each extension shrinks the product
    for path in enumerate_paths(dag, "Q05", "Q23"):
        for cut in range(2, len(path)):
            shorter = abs(path_product(path[:cut], params))
            longer = abs(path_product(path[: cut + 1], params))
            assert longer < shorter


def test_total_influence_linear_in_single_coefficient():
    nodes = ("a", "b", "c")
    base = [("a", "b", 0.5), ("b", "c", 0.4), ("a", "c", 0.1)]

    def total_with(c_ab):
        arcs = [("a", "b", c_ab)] + base[1:]
        dag, params = build_model(nodes, arcs)
        return total_influence(dag, params, "a", "c")

    t0, t1, t2 = total_with(0.0), total_with(1.0), total_with(2.0)
    assert t2 - t1 == pytest.approx(t1 - t0, abs=1e-12)


def test_top_paths_k_larger_than_count(five_node_example):
    dag, params = five_node_example
    assert len(top_paths(dag, params, "q", "t", k=50)) == 4


def test_top_paths_ranked_by_magnitude(five_node_example):
    dag, params = five_node_example
    ranked = top_paths(dag, params, "q", "t", k=4)
    magnitudes = [abs(p.product) for p in ranked]
    assert magnitudes == sorted(magnitudes, reverse=True)


def test_top_paths_requires_positive_k(five_node_example):
    dag, params = five_node_example
    with pytest.raises(ValidationError):
        top_paths(dag, params, "q", "t", k=0)


def test_enumeration_cap_enforced():
    # layered DAG with 2^10 paths
    nodes = tuple(f"l{i}" for i in range(11)) + ("top",)
    coeff_arcs = []
    layers = [("top", nodes[0], 0.5)]
    nodes = ("top",) + tuple(f"a{i}" for i in range(10)) + tuple(f"b{i}" for i in range(10)) + ("end",)
    # build a ladder: top -> {a0,b0} -> {a1,b1} -> ... -> end
    coeff_arcs = [("top", "a0", 0.5), ("top", "b0", 0.5)]
    for i in range(9):
        for u in (f"a{i}", f"b{i}"):
            for v in (f"a{i+1}", f"b{i+1}"):
                coeff_arcs.append((u, v, 0.5))
    coeff_arcs += [("a9", "end", 0.5), ("b9", "end", 0.5)]
    dag, params = build_model(nodes, coeff_arcs)
    assert count_paths(dag, "top", "end") == 2 ** 10
    with pytest.raises(PathCountError):
        enumerate_paths(dag, "top", "end", cap=100)
    # the aggregate stays available
    assert total_influence(dag, params, "top", "end") == pytest.approx(0.5 ** 11 * 2 ** 10)


def ladder(layers):
    """top -> {a0, b0} -> ... -> {a<layers-1>, b<layers-1>} -> end: 2**layers
    paths over 2 * layers + 2 nodes, all on paths."""
    a, b = [f"a{i}" for i in range(layers)], [f"b{i}" for i in range(layers)]
    arcs = [("top", a[0], 0.5), ("top", b[0], -0.25), (a[-1], "end", 0.5), (b[-1], "end", 2.0)]
    for i in range(layers - 1):
        arcs += [(a[i], a[i + 1], 0.5), (a[i], b[i + 1], 1.0), (b[i], a[i + 1], -0.5),
                 (b[i], b[i + 1], 0.25)]
    return build_model(("top", *a, *b, "end"), arcs)


@pytest.mark.parametrize("cap", [0, 2**10 - 1])
def test_cap_below_the_path_count_is_refused(cap):
    dag, params = ladder(10)
    message = f"1024 paths from top to end exceeds cap {cap}"
    with pytest.raises(PathCountError, match=message):
        enumerate_paths(dag, "top", "end", cap=cap)
    with pytest.raises(PathCountError, match=message):
        top_paths(dag, params, "top", "end", k=2, cap=cap)
    with pytest.raises(PathCountError, match=message):
        influence_result(dag, params, "top", "end", k=2, cap=cap)


def test_complete_dag_reaches_the_subset_bound():
    """With every forward arc, each subset of the 4 interior nodes is a path:
    16 = 2**(6 - 2), so a cap of 15 must count and refuse, and 16 may skip."""
    nodes = tuple(f"n{i}" for i in range(6))
    dag, params = build_model(nodes, [(u, v, 0.5) for i, u in enumerate(nodes)
                                      for v in nodes[i + 1:]])
    with pytest.raises(PathCountError, match="16 paths from n0 to n5 exceeds cap 15"):
        top_paths(dag, params, "n0", "n5", k=1, cap=15)
    assert len(enumerate_paths(dag, "n0", "n5", cap=16)) == 16


@pytest.mark.parametrize("layers,cap", [(10, 2**10), (10, 2**19), (3, 2**6)])
def test_cap_at_or_above_the_path_count_passes(layers, cap):
    """A path visits its nodes in topological order, so at most 2**(L - 2)
    paths run over L nodes: (3, 2**6) meets that bound exactly and skips the
    count, the others stay below it, 2**20, and count the 1,024 paths."""
    dag, params = ladder(layers)
    paths = enumerate_paths(dag, "top", "end", cap=cap)
    assert len(paths) == count_paths(dag, "top", "end") == 2**layers
    top = top_paths(dag, params, "top", "end", k=2, cap=cap)
    assert top == sorted((InfluencePath(p, path_product(p, params)) for p in paths),
                         key=lambda ip: (-abs(ip.product), ip.nodes))[:2]
    assert influence_result(dag, params, "top", "end", k=2, cap=cap).paths == tuple(top)


def test_unknown_nodes_rejected(fixture_model):
    dag, params = fixture_model
    with pytest.raises(ValidationError):
        total_influence(dag, params, "QXX", "Q03")
    with pytest.raises(ValidationError):
        enumerate_paths(dag, "Q05", "QXX")


def test_cluster_coupling_fixture_sums(fixture_model, fixture_partition):
    dag, params = fixture_model
    coupling = cluster_coupling(dag, params, fixture_partition)
    assert coupling[("C2", "C3")] == pytest.approx(1.45430, abs=1e-5)
    assert coupling[("C1", "C5")] == pytest.approx(2.40873, abs=1e-5)
    assert coupling[("C4", "C3")] == pytest.approx(0.60669, abs=1e-5)
    assert ("C2", "C5") not in coupling
    assert ("C1", "C3") not in coupling


def test_cluster_coupling_single_cluster(fixture_model):
    dag, params = fixture_model
    partition = Partition(assignment={n: "C1" for n in dag.nodes})
    assert cluster_coupling(dag, params, partition) == {}


def test_cluster_coupling_requires_full_cover(fixture_model):
    dag, params = fixture_model
    with pytest.raises(ValidationError):
        cluster_coupling(dag, params, Partition(assignment={"Q01": "C1"}))


def test_cluster_coupling_rejects_nodes_the_model_lacks(fixture_model, fixture_partition):
    dag, params = fixture_model
    partition = Partition(assignment={**fixture_partition.assignment, "Q99": "C1", "Q98": "C2"})
    with pytest.raises(ValidationError, match="^partition names nodes not in the model: Q98, Q99$"):
        cluster_coupling(dag, params, partition)


def test_median_fixture_exact(fixture_model):
    _, params = fixture_model
    assert median_abs_coefficient(params) == pytest.approx(0.17217, abs=1e-12)


def test_median_single_arc():
    _, params = build_model(("a", "b"), [("a", "b", -0.5)])
    assert median_abs_coefficient(params) == 0.5


def test_median_even_count_averages_middle_pair():
    _, params = build_model(
        ("a", "b", "c", "d", "e"),
        [("a", "b", 0.1), ("a", "c", 0.2), ("a", "d", 0.3), ("a", "e", 0.4)],
    )
    assert median_abs_coefficient(params) == pytest.approx(0.25)


def test_median_requires_arcs():
    _, params = build_model(("a",), [])
    with pytest.raises(ValidationError):
        median_abs_coefficient(params)


def test_influence_result_csv(five_node_example):
    dag, params = five_node_example
    result = influence_result(dag, params, "q", "t", k=2)
    text = result.to_csv()
    assert text.splitlines()[0] == "source,target,total,path_rank,path,product"
    assert "q->r->t" in text
