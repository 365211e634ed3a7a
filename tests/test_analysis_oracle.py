"""The distinct-start k-means, the cached-adjacency pruned path queries and
the bottom-up Mann-Whitney counts against ``reference_analysis.py``, the
seed-at-a-time, arc-scanning, every-node and recursive code they replace.
Results must be identical, bit for bit, not merely close."""
import contextlib
import dataclasses
import gc
import math
import tracemalloc

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
from attachnet.params import GaussianBnParams
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
def blocks(seed=None, draw=None):
    """Run with smaller Lloyd blocks or draw blocks."""
    names = {"_SEED_BLOCK": seed, "_DRAW_BLOCK": draw}
    old = {name: getattr(compare, name) for name in names}
    try:
        for name, value in names.items():
            if value is not None:
                setattr(compare, name, value)
        yield
    finally:
        for name, value in old.items():
            setattr(compare, name, value)


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
@given(problem=factor_problems(), block=st.sampled_from([1, 2, 3, 7, compare._SEED_BLOCK]),
       draw=st.sampled_from([1, 4, 9, compare._DRAW_BLOCK]))
def test_kmeans_matches_reference(problem, block, draw):
    values, k, seed_range = problem
    data = FactorTable(items=tuple(f"i{j}" for j in range(len(values))), values=values)
    # small blocks put block edges inside the seed range, and later draw
    # blocks run again starts an earlier block ran
    with blocks(seed=block, draw=draw):
        got = kmeans_best_seed(data, k, seed_range)
    assert_same_result(got, ref.kmeans_best_seed(data, k, seed_range))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(problem=factor_problems())
def test_lloyd_sweep_matches_each_seed(problem):
    values, k, (lo, hi) = problem
    seeds = range(lo, hi + 1)
    starts = np.array([np.random.default_rng(seed).choice(len(values), size=k, replace=False)
                       for seed in seeds])
    with blocks(seed=7):
        runs = list(compare._lloyd_sweep(values, starts))
    assert len(runs) == len(seeds)
    for seed, (labels, centers, ss) in zip(seeds, runs):
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


@pytest.mark.parametrize("order", [("wei2007_avoidance", "wei2007_anxiety"),
                                   ("wei2007_anxiety", "wei2007_avoidance")])
def test_kmeans_same_shape_tables_in_either_order(order):
    """Two 18-item tables draw the same starts; called in either order, and
    each twice, every result equals the reference: nothing carries over from
    one call to the next."""
    tables = {name: fixtures.load_factor_table(name) for name in order}
    expected = {name: ref.kmeans_best_seed(table, 2) for name, table in tables.items()}
    for _ in range(2):
        for name, table in tables.items():
            assert_same_result(kmeans_best_seed(table, 2), expected[name])


def test_kmeans_memory_does_not_grow_with_the_seed_range():
    """With almost every seed drawing its own start (k = 4 of 12 items), a
    call's peak allocation stays put as the seed range grows eightfold."""
    data = FactorTable(items=tuple(f"i{j}" for j in range(12)),
                       values=np.random.default_rng(5).normal(size=(12, 3)))

    def peak(hi):
        tracemalloc.start()
        try:
            result = kmeans_best_seed(data, 4, (1, hi))
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    with blocks(draw=256):
        small, _ = peak(1024)
        large, result = peak(8192)
    assert large < 1.25 * small, (small, large)
    assert_same_result(result, kmeans_best_seed(data, 4, (1, 8192)))


# -- Mann-Whitney exact counts ------------------------------------------------------


def test_exact_u_counts_match_reference():
    ways: dict = {}  # one memo for every (a, b): its keys carry a and b
    for a in range(1, compare._EXACT_LIMIT + 1):
        for b in range(1, compare._EXACT_LIMIT // a + 1):
            expected = [ref._count_ways(a, b, u, ways) for u in range(a * b + 1)]
            assert compare._exact_u_counts(a, b) == expected, (a, b)
    for a, b in [(1, 1), (3, 7), (10, 26), (18, 18), (20, 20)]:
        assert compare._exact_u_counts(a, b) == ref._exact_u_counts(a, b)


# -- DAG adjacency and path queries ----------------------------------------------------

# equal magnitudes of both signs make equal-|product| ties between paths; the
# signed zeros make paths whose product is -0.0
COEFFICIENTS = st.sampled_from([0.5, -0.5, 0.25, -0.25, 1.0, -1.0, 2.0, -0.3, 0.7, 0.0, -0.0])


# subnormal, tiny, huge and one-ulp-from-1 magnitudes: top_paths' exactness
# guard turns its early stop off, and overflow makes inf and NaN products
EXTREME_COEFFICIENTS = st.sampled_from([
    1e-160, -1e-160, 3e-170, 5e-324, 1e154, -1e154, 1e200, 0.0, -0.0,
    1.0000000000000002, 0.9999999999999999, 0.5, -0.5,
])


@st.composite
def random_models(draw, coefficients=COEFFICIENTS):
    n = draw(st.integers(2, 8))
    names = [f"n{i}" for i in draw(st.permutations(range(n)))]  # the item order differs
    order = draw(st.permutations(names))                        # from the causal order
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                arcs.append((order[i], order[j], draw(coefficients)))
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
        assert dag.descendants(node) == {t for t in dag.nodes
                                         if t != node and ref.count_paths(dag, node, t)}
    for source in dag.nodes:
        for target in dag.nodes:
            # the reference returns the int 0 when the target has no parents
            assert same_bits(total_influence(dag, params, source, target),
                             float(ref.total_influence(dag, params, source, target)))
            assert count_paths(dag, source, target) == ref.count_paths(dag, source, target)
            if source == target:
                continue
            assert enumerate_paths(dag, source, target) == ref.enumerate_paths(dag, source, target)
            got = top_paths(dag, params, source, target, k)
            assert got == ref.top_paths(dag, params, source, target, k)
            assert all(same_bits(p.product, path_product(p.nodes, params)) for p in got)


def ranked_bits(paths):
    return [(p.nodes, p.product.hex()) for p in paths]


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(model=random_models(EXTREME_COEFFICIENTS), k=st.integers(1, 4))
def test_path_queries_with_extreme_coefficients_match_reference(model, k):
    """Compared on node tuples and product bits: dataclass == is false for a
    NaN product."""
    dag, params = model
    for source in dag.nodes:
        for target in dag.nodes:
            if source != target:
                assert (ranked_bits(top_paths(dag, params, source, target, k))
                        == ranked_bits(ref.top_paths(dag, params, source, target, k)))


def test_nan_and_inf_products_rank_as_the_reference():
    """inf * 0 = NaN: where NaN products land in the sort depends on the order
    the paths come in, which must be the reference's depth-first order."""
    dag, params = build_model(("s", "a", "b", "c", "d", "t"), [
        ("s", "a", 1e200), ("s", "b", -1e200), ("s", "t", 0.0), ("a", "c", 1e200),
        ("b", "c", 1e200), ("a", "t", 0.5), ("b", "t", 0.5), ("c", "t", 0.0),
        ("c", "d", 1.0), ("d", "t", -1.0),
    ])
    products = [path_product(p, params) for p in enumerate_paths(dag, "s", "t")]
    assert sum(math.isnan(p) for p in products) == 2
    assert sum(math.isinf(p) for p in products) == 2
    for k in range(1, len(products) + 1):
        assert (ranked_bits(top_paths(dag, params, "s", "t", k))
                == ranked_bits(ref.top_paths(dag, params, "s", "t", k)))


def test_underflowing_bound_turns_the_early_stop_off():
    """Right to left, 3e-170 * 3e-170 underflows to 0, so the bound through
    a is 0; left to right the path s -> a -> b -> t has product 9e-140 and
    ranks first.  Stopping early on that bound would return s -> t."""
    dag, params = build_model(("s", "a", "b", "t"), [
        ("s", "a", 1e200), ("a", "b", 3e-170), ("b", "t", 3e-170), ("s", "t", 1e-160),
    ])
    top = top_paths(dag, params, "s", "t", 1)
    assert top == ref.top_paths(dag, params, "s", "t", 1)
    assert top[0].nodes == ("s", "a", "b", "t")


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
                             float(ref.total_influence(dag, params, source, target)))
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


def test_all_tied_paths_match_reference(fixture_model):
    """With every coefficient 1.0 all 581 Q02 -> Q36 paths tie, so the search
    cannot stop early and the node sequence alone ranks them."""
    dag, params = fixture_model
    ones = dataclasses.replace(params, coefficients={
        child: dict.fromkeys(parents, 1.0) for child, parents in params.coefficients.items()})
    for k in (1, 2, 5):
        assert top_paths(dag, ones, "Q02", "Q36", k) == ref.top_paths(dag, ones, "Q02", "Q36", k)


class CountingParams(GaussianBnParams):
    """Counts ``coefficient`` reads."""
    reads = 0

    def coefficient(self, parent, child):
        type(self).reads += 1
        return super().coefficient(parent, child)


def test_top_paths_reads_few_coefficients(fixture_model):
    """The best-first search reads each arc on the Q02 -> Q36 paths once,
    under a quarter of the reads of a walk of all 581 paths: one per
    distinct path prefix."""
    dag, params = fixture_model
    counting = CountingParams(params.nodes, params.intercept, params.residual_sd,
                              params.coefficients)
    paths = enumerate_paths(dag, "Q02", "Q36")
    walked = len({path[:end] for path in paths for end in range(2, len(path) + 1)})
    assert walked == 2075
    CountingParams.reads = 0
    got = top_paths(dag, counting, "Q02", "Q36", 2)
    assert CountingParams.reads < walked / 4
    assert got == ref.top_paths(dag, params, "Q02", "Q36", 2)


def test_unknown_node_has_no_adjacency(fixture_model):
    dag, _ = fixture_model
    assert dag.parents("QXX") == dag.children("QXX") == ()
    assert dag.in_degree("QXX") == dag.out_degree("QXX") == 0
    assert dag.descendants("QXX") == frozenset()
