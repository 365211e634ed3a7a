"""The seed-batched k-means and the cached-adjacency path queries against
``reference_analysis.py``, the seed-at-a-time and arc-scanning code they
replace.  Results must be identical, bit for bit, not merely close."""
import contextlib
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_analysis as ref
from attachnet import compare, fixtures
from attachnet.compare import FactorTable, kmeans_best_seed
from attachnet.influence import (
    count_paths,
    enumerate_paths,
    path_product,
    top_paths,
    total_influence,
)
from test_influence import build_model


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_result(got, expected):
    assert got.assignment == expected.assignment
    assert list(got.assignment) == list(expected.assignment)
    assert same_bits(got.centers, expected.centers)
    assert same_bits(got.total_within_ss, expected.total_within_ss)
    assert got.best_seed == expected.best_seed


# -- k-means --------------------------------------------------------------------


@contextlib.contextmanager
def seed_block(size):
    old, compare._SEED_BLOCK = compare._SEED_BLOCK, size
    try:
        yield
    finally:
        compare._SEED_BLOCK = old


# small grids give duplicate points, equidistant centres (argmin ties) and,
# with k above the number of distinct points, clusters that empty out
GRID = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
WIDE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def factor_problems(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    cell = draw(st.sampled_from([GRID, WIDE]))
    values = np.array(draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    if draw(st.booleans()):  # rescale: 1e6-sized points or tiny ones
        values = values * draw(st.sampled_from([1e-6, 1e6]))
    k = draw(st.integers(1, n))
    lo = draw(st.integers(0, 40))
    hi = lo + draw(st.integers(0, 24))
    return values, k, (lo, hi)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(problem=factor_problems(), block=st.sampled_from([1, 2, 3, 7, compare._SEED_BLOCK]))
def test_kmeans_matches_reference(problem, block):
    values, k, seed_range = problem
    data = FactorTable(items=tuple(f"i{j}" for j in range(len(values))), values=values)
    with seed_block(block):  # small blocks put block edges inside the seed range
        got = kmeans_best_seed(data, k, seed_range)
    assert_same_result(got, ref.kmeans_best_seed(data, k, seed_range))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(problem=factor_problems())
def test_lloyd_sweep_matches_each_seed(problem):
    values, k, (lo, hi) = problem
    with seed_block(7):
        runs = list(compare._lloyd_sweep(values, k, range(lo, hi + 1)))
    assert [seed for seed, *_ in runs] == list(range(lo, hi + 1))
    for seed, labels, centers, ss in runs:
        ref_labels, ref_centers, ref_ss = ref._lloyd(values, k, seed)
        assert same_bits(labels, ref_labels), seed
        assert same_bits(centers, ref_centers), seed
        assert same_bits(ss, ref_ss), seed


@pytest.mark.parametrize("values,k", [
    ([[1.0, 2.0]] * 5, 3),  # every point equal: two clusters stay empty
    ([[0.0, 0.0], [0.0, 0.0], [4.0, 0.0], [2.0, 0.0]], 2),  # (2, 0) is equidistant
    ([[-0.0, 1.0], [-0.0, 3.0], [5.0, 5.0]], 2),  # an all -0.0 column sums to +0.0
    ([[float(i)] for i in range(20)], 3),  # one column: numpy sums it pairwise
])
def test_kmeans_edge_cases_match_reference(values, k):
    data = FactorTable(items=tuple(f"i{j}" for j in range(len(values))), values=np.array(values))
    for seed_range in [(0, 0), (7, 7), (1, 300), (250, 530)]:
        assert_same_result(kmeans_best_seed(data, k, seed_range),
                           ref.kmeans_best_seed(data, k, seed_range))


@pytest.mark.parametrize("name", sorted(fixtures.FACTOR_TABLES))
def test_kmeans_bundled_tables_match_reference(name):
    data = fixtures.load_factor_table(name)
    for k in (2, 3, 5):
        seed_range = (1, 600)
        assert_same_result(kmeans_best_seed(data, k, seed_range),
                           ref.kmeans_best_seed(data, k, seed_range))


# -- DAG adjacency and path queries ----------------------------------------------------

# equal magnitudes of both signs make equal-|product| ties between paths
COEFFICIENTS = st.sampled_from([0.5, -0.5, 0.25, -0.25, 1.0, -1.0, 2.0, -0.3, 0.7])


@st.composite
def random_models(draw):
    n = draw(st.integers(2, 8))
    names = [f"n{i}" for i in draw(st.permutations(range(n)))]  # the item order differs
    order = draw(st.permutations(names))                        # from the causal order
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                arcs.append((order[i], order[j], draw(COEFFICIENTS)))
    return build_model(tuple(names), arcs)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(model=random_models(), k=st.integers(1, 4))
def test_path_queries_match_reference(model, k):
    dag, params = model
    for node in dag.nodes:
        assert dag.parents(node) == ref.parents(dag, node)
        assert dag.children(node) == ref.children(dag, node)
        assert dag.in_degree(node) == ref.in_degree(dag, node)
        assert dag.out_degree(node) == ref.out_degree(dag, node)
    for source in dag.nodes:
        for target in dag.nodes:
            assert same_bits(total_influence(dag, params, source, target),
                             ref.total_influence(dag, params, source, target))
            if source == target:
                continue
            assert count_paths(dag, source, target) == ref.count_paths(dag, source, target)
            assert enumerate_paths(dag, source, target) == ref.enumerate_paths(dag, source, target)
            got = top_paths(dag, params, source, target, k)
            assert got == ref.top_paths(dag, params, source, target, k)
            assert all(same_bits(p.product, path_product(p.nodes, params)) for p in got)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(model=random_models())
def test_total_influence_is_fsum_of_path_products(model):
    dag, params = model
    for source in dag.nodes:
        for target in dag.nodes:
            if source == target:
                continue
            products = [path_product(p, params) for p in enumerate_paths(dag, source, target)]
            scale = math.fsum(abs(p) for p in products)
            total = total_influence(dag, params, source, target)
            assert abs(total - math.fsum(products)) <= 1e-12 * scale


def test_fixture_queries_match_reference(fixture_model):
    dag, params = fixture_model
    for source in dag.nodes:
        for target in dag.nodes:
            assert same_bits(total_influence(dag, params, source, target),
                             ref.total_influence(dag, params, source, target))
            if source != target:
                assert (top_paths(dag, params, source, target, 2)
                        == ref.top_paths(dag, params, source, target, 2))


def test_path_walk_leaves_no_reference_cycle(fixture_model):
    """Each query's paths are freed on return, not left for the collector."""
    dag, params = fixture_model
    gc.collect()
    assert len(top_paths(dag, params, "Q02", "Q36", 2)) == 2
    assert len(enumerate_paths(dag, "Q02", "Q36")) == 581
    assert gc.collect() == 0


def test_unknown_node_has_no_adjacency(fixture_model):
    dag, _ = fixture_model
    assert dag.parents("QXX") == dag.children("QXX") == ()
    assert dag.in_degree("QXX") == dag.out_degree("QXX") == 0
