"""The incremental walktrap merge scores, the distinct-start k-means, the
cached-adjacency pruned path queries and the bottom-up Mann-Whitney counts
against ``reference_analysis.py``, the rescore-every-pair, seed-at-a-time,
arc-scanning, every-node and recursive code they replace.  Results must be
identical, bit for bit, not merely close."""
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
from attachnet.analytics import _components, _weight_matrix, communities_walktrap
from attachnet._draws import choice_rows
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


# -- walktrap ----------------------------------------------------------------------

# two or three weights per graph make many exact ties between Ward deltas
WEIGHT_SETS = [(0.5, 1.0), (0.25, 0.5, 1.0), (0.3, 0.6), (0.2, 0.5, 0.9)]
SHAPES = ["cycle", "ladder", "grid", "star", "bipartite"]


def shape_pairs(shape, n):
    """Edges of a shape whose automorphisms tie Ward deltas exactly up to
    rounding, so that which tied pair merges first decides the cut."""
    h, k = n // 2, math.isqrt(n)
    if shape == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if shape == "ladder":
        return [(i, i + h) for i in range(h)] + [
            (side + i, side + (i + 1) % h) for side in (0, h) for i in range(h)
        ]
    if shape == "grid":
        return [(i, i + 1) for i in range(k * k) if (i + 1) % k] + [
            (i, i + k) for i in range(k * k - k)
        ]
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    return [(i, j) for i in range(h) for j in range(h, n)]  # complete bipartite


def walktrap_model(seed):
    """A DAG of 2-36 nodes whose |coefficients| take two or three values.
    One graph in four is a symmetric shape of one weight; one in three keeps
    its arcs inside 2-4 blocks of nodes."""
    rng = np.random.default_rng(seed)
    shaped = seed % 4 == 1
    n = int(rng.integers(4 if shaped else 2, 37))
    weights = WEIGHT_SETS[seed % len(WEIGHT_SETS)]
    if shaped:
        pairs = shape_pairs(SHAPES[seed // 4 % len(SHAPES)], n)
        weights = weights[:1]
    else:
        density = float(rng.choice([0.1, 0.2, 0.4, 0.8]))
        blocks = rng.integers(0, rng.integers(2, 5), size=n) if seed % 3 == 0 else np.zeros(n)
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if blocks[i] == blocks[j] and rng.random() < density
        ]
        pairs = pairs or [(0, 1)]  # at least one edge to merge along
    names = [f"n{i:02d}" for i in rng.permutation(n)]  # the item order differs
    order = [names[i] for i in rng.permutation(n)]     # from the causal order
    arcs = [
        (order[min(i, j)], order[max(i, j)], float(rng.choice(weights) * rng.choice([-1.0, 1.0])))
        for i, j in pairs
    ]
    return build_model(tuple(names), arcs)


@pytest.mark.parametrize("first", range(0, 320, 40))
def test_walktrap_matches_reference(first):
    split = 0
    for seed in range(first, first + 40):
        dag, params = walktrap_model(seed)
        expected = ref.communities_walktrap(dag, params)
        assert communities_walktrap(dag, params).assignment == expected.assignment, seed
        split += len(_components(_weight_matrix(dag, params))) > 1
    assert split >= 10  # isolated nodes and blocks give several components


@pytest.mark.parametrize("steps", [1, 2, 4, 7])
def test_walktrap_fixture_matches_reference(fixture_model, steps):
    dag, params = fixture_model
    expected = ref.communities_walktrap(dag, params, steps=steps)
    assert communities_walktrap(dag, params, steps=steps).assignment == expected.assignment


def test_batched_ward_sums_match_one_pair_at_a_time():
    """A row sum over a stack of profile differences gives each pair's
    ``np.sum`` bit for bit."""
    rng = np.random.default_rng(24)
    for n in [*range(5, 40), 64, 127, 128, 129, 130, 257]:
        walk_degree = rng.uniform(0.1, 5.0, size=n)
        profiles = rng.dirichlet(np.ones(n), size=int(rng.integers(2, 20)))
        merged, others = profiles[0], profiles[1:]
        diff = np.stack(list(others)) - merged
        batched = (diff * diff / walk_degree).sum(axis=1).tolist()
        for other, r2 in zip(others, batched):
            d = merged - other
            assert r2.hex() == float(np.sum(d * d / walk_degree)).hex(), n


# -- k-means --------------------------------------------------------------------


@contextlib.contextmanager
def draw_block(seeds, values, k):
    """Run with the byte budget that draws ``seeds`` seeds of a ``values``
    table per block."""
    old = compare._BLOCK_BYTES
    compare._BLOCK_BYTES = seeds * compare._seed_bytes(*np.shape(values), k)
    try:
        yield
    finally:
        compare._BLOCK_BYTES = old


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
@given(problem=factor_problems(), draw=st.sampled_from([1, 2, 4, 9, None]))
def test_kmeans_matches_reference(problem, draw):
    values, k, seed_range = problem
    data = FactorTable(items=tuple(f"i{j}" for j in range(len(values))), values=values)
    # small blocks put block edges inside the seed range, and later blocks
    # run again starts an earlier block ran
    with draw_block(draw, values, k) if draw else contextlib.nullcontext():
        got = kmeans_best_seed(data, k, seed_range)
    assert_same_result(got, ref.kmeans_best_seed(data, k, seed_range))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(problem=factor_problems())
def test_lloyd_sweep_matches_each_seed(problem):
    values, k, (lo, hi) = problem
    seeds = range(lo, hi + 1)
    starts = np.array([np.random.default_rng(seed).choice(len(values), size=k, replace=False)
                       for seed in seeds])
    runs = list(zip(*compare._lloyd_sweep(values, starts)))
    assert len(runs) == len(seeds)
    for seed, (labels, centers, ss) in zip(seeds, runs):
        ref_labels, ref_centers, ref_ss = ref._lloyd(values, k, seed)
        assert same_bits(labels, ref_labels), seed
        assert same_bits(centers, ref_centers), seed
        assert same_bits(ss, ref_ss), seed


def assert_each_start_matches_reference(values, k, seeds, max_iter=300):
    """Every start's labels, centres and ss from ``_lloyd_sweep``, merged runs
    included, against one ``ref._lloyd`` per seed."""
    values = np.asarray(values, dtype=np.float64)
    starts = np.array([np.random.default_rng(seed).choice(len(values), size=k, replace=False)
                       for seed in seeds])
    runs = list(zip(*compare._lloyd_sweep(values, starts, max_iter)))
    assert len(runs) == len(seeds)
    for seed, (labels, centers, ss) in zip(seeds, runs):
        ref_labels, ref_centers, ref_ss = ref._lloyd(values, k, seed, max_iter)
        assert same_bits(labels, ref_labels), seed
        assert same_bits(centers, ref_centers), seed
        assert same_bits(ss, ref_ss), seed


@pytest.mark.parametrize("max_iter", [1, 2, 3])
@pytest.mark.parametrize("name", ["wei2007_anxiety", "lo2009"])
def test_lloyd_sweep_merges_only_runs_of_one_iteration(name, max_iter):
    """Runs that reach one partition in different iterations have spent
    different shares of ``max_iter``, so they must not merge."""
    data = fixtures.load_factor_table(name)
    for k in (2, 3):
        assert_each_start_matches_reference(data.values, k, range(1, 151), max_iter)


# two points each at a and b, one at c: with k = 4 two clusters start empty,
# on stale centres at a and b in either order, behind the same labels
DUPLICATES = [[0.0, 0.0], [0.0, 0.0], [4.0, 0.0], [4.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("max_iter", [1, 2, 3, 300])
def test_lloyd_sweep_never_merges_a_run_with_an_empty_cluster(max_iter):
    for k in (3, 4):
        assert_each_start_matches_reference(DUPLICATES, k, range(0, 300), max_iter)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lloyd_sweep_one_column_merges_match_reference(k):
    values = [[float(i % 7) * 0.5 - 1.0] for i in range(20)]  # duplicates, numpy's own mean
    for max_iter in (2, 300):
        assert_each_start_matches_reference(values, k, range(0, 200), max_iter)


@pytest.mark.parametrize("name", ["lo2009", "guzman2019"])
def test_lloyd_sweep_bundled_36_item_tables_match_reference(name):
    data = fixtures.load_factor_table(name)
    for k in (2, 3, 4, 5):
        assert_each_start_matches_reference(data.values, k, range(1, 121))


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


def test_kmeans_start_keys_past_int64_match_reference():
    """20 ** 15 > 2 ** 63, so the starts are told apart by their bytes."""
    data = FactorTable(items=tuple(f"i{j}" for j in range(20)),
                       values=np.random.default_rng(3).normal(size=(20, 2)))
    with draw_block(16, data.values, 15):
        assert_same_result(kmeans_best_seed(data, 15, (1, 40)),
                           ref.kmeans_best_seed(data, 15, (1, 40)))


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

    with draw_block(256, data.values, 4):
        small, _ = peak(1024)
        large, result = peak(8192)
    assert large < 1.25 * small, (small, large)
    assert_same_result(result, kmeans_best_seed(data, 4, (1, 8192)))


@pytest.mark.parametrize("name", sorted(fixtures.FACTOR_TABLES))
def test_kmeans_bundled_tables_draw_seeds_1_to_4000_in_one_block(name, monkeypatch):
    blocks = []

    def recorded(seeds, n, k):
        blocks.append(seeds)
        return choice_rows(seeds, n, k)

    monkeypatch.setattr(compare, "choice_rows", recorded)
    kmeans_best_seed(fixtures.load_factor_table(name), 2)
    assert blocks == [range(1, 4001)]


def test_kmeans_large_table_peak_allocation_stays_within_the_budget():
    """On 400 items of 10 factors a block holds a few hundred seeds, each
    with its own start, and a call over four blocks allocates at most the
    budget at any time (in one block, it would take about 1.6 times that)."""
    n, d, k = 400, 10, 2
    data = FactorTable(items=tuple(f"i{j}" for j in range(n)),
                       values=np.random.default_rng(5).normal(size=(n, d)))
    block = compare._BLOCK_BYTES // compare._seed_bytes(n, d, k)
    assert 100 < block < 1000
    tracemalloc.start()
    try:
        kmeans_best_seed(data, k, (1, 4 * block))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < compare._BLOCK_BYTES, peak


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
        assert dag.ancestors(node) == {s for s in dag.nodes
                                       if s != node and ref.count_paths(dag, s, node)}
        assert dag.topological_order()[dag.topological_index(node)] == node
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
    assert dag.descendants("QXX") == dag.ancestors("QXX") == frozenset()
