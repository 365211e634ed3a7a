import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attachnet._kernels import DEFAULT_RIDGE, PENALTIES, CachedScorer, tabu_search_kernel
from attachnet.dag import Dag
from attachnet.errors import ValidationError
from attachnet.score import graph_score, local_score, stats_from_matrix
from attachnet.structure import (
    ArcStrengthTable,
    SearchConfig,
    _random_dag_adjacency,
    average_network,
    bootstrap_strengths,
    stability_curve,
    tabu_search,
)
from conftest import make_table
from reference_kernels import tabu_search_kernel as reference_search


def all_dags(nodes):
    unordered = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    for bits in range(3 ** len(unordered)):
        arcs = set()
        code = bits
        for a, b in unordered:
            state = code % 3
            code //= 3
            if state == 1:
                arcs.add((a, b))
            elif state == 2:
                arcs.add((b, a))
        try:
            yield Dag(nodes, arcs)
        except ValidationError:
            continue


def linear_system_rows(rng, nodes, n):
    order = rng.permutation(len(nodes))
    rows = np.zeros((n, len(nodes)))
    for pos, j in enumerate(order):
        col = rng.normal(size=n)
        for prev in range(pos):
            if rng.random() < 0.5:
                col += rng.uniform(-2, 2) * rows[:, order[prev]]
        rows[:, j] = col
    return rows


def test_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(tabu_len=0)
    with pytest.raises(ValidationError):
        SearchConfig(max_iter=0)
    with pytest.raises(ValidationError):
        SearchConfig(metric="nope")
    with pytest.raises(ValidationError):
        SearchConfig(max_parents=-2)
    assert SearchConfig(max_parents=0).max_parents == 0


@pytest.mark.parametrize("field", ["tabu_len", "max_iter", "max_parents", "restarts", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, False, np.float64(3.0), "3", np.bool_(True)])
def test_config_rejects_non_integer_settings(field, value):
    """Floats, integral ones included, bools and strings fail at once with
    the field's name, not later inside ``deque``, ``range`` or numpy."""
    with pytest.raises(ValidationError, match=f"^{field} must be an integer, got "):
        SearchConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = SearchConfig(tabu_len=np.int64(3), max_iter=np.int32(5), max_parents=np.uint8(2),
                       restarts=np.int16(1), seed=np.uint64(2**63))
    assert cfg == SearchConfig(3, 5, 2, 1, 2**63)
    assert all(type(getattr(cfg, f)) is int for f in ("tabu_len", "max_iter", "max_parents",
                                                      "restarts", "seed"))
    stats = stats_from_matrix(np.random.default_rng(0).normal(size=(50, 3)), ("a", "b", "c"))
    assert tabu_search(stats, cfg) == tabu_search(stats, SearchConfig(3, 5, 2, 1, 2**63))


def test_two_correlated_items_get_one_arc(rng):
    x = rng.normal(size=1000)
    y = 0.9 * x + rng.normal(scale=np.sqrt(1 - 0.81), size=1000)
    stats = stats_from_matrix(np.column_stack([x, y]), ("x", "y"))
    dag = tabu_search(stats, SearchConfig(seed=1))
    assert len(dag.arcs) == 1
    assert {tuple(sorted(a)) for a in dag.arcs} == {("x", "y")}


def test_collider_recovered_exactly(rng):
    n = 5000
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    z = x + y + rng.normal(size=n)
    stats = stats_from_matrix(np.column_stack([x, y, z]), ("x", "y", "z"))
    dag = tabu_search(stats, SearchConfig(seed=1))
    assert dag.arcs == frozenset({("x", "z"), ("y", "z")})


def test_tabu_matches_exhaustive_search(rng):
    nodes = ("a", "b", "c", "d")
    enumerated = list(all_dags(nodes))
    assert len(enumerated) == 543
    for trial in range(8):
        rows = linear_system_rows(rng, nodes, 2000)
        stats = stats_from_matrix(rows, nodes)
        found = tabu_search(stats, SearchConfig(seed=trial, restarts=2))
        best = max(graph_score(d, stats) for d in enumerated)
        assert graph_score(found, stats) == pytest.approx(best, abs=1e-6)


def test_search_beats_empty_graph(rng):
    rows = linear_system_rows(rng, ("a", "b", "c"), 500)
    stats = stats_from_matrix(rows, ("a", "b", "c"))
    dag = tabu_search(stats)
    empty = Dag(("a", "b", "c"), set())
    assert graph_score(dag, stats) >= graph_score(empty, stats) - 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_search_rejects_non_finite_covariance(rng, bad):
    """One non-finite row makes every score delta NaN, which the move picker
    would mask as inadmissible and return the empty graph; it fails instead."""
    nodes = ("a", "b", "c")
    rows = linear_system_rows(rng, nodes, 500)
    rows[3, 0] = bad
    stats = stats_from_matrix(rows, nodes)
    for cfg in (SearchConfig(), SearchConfig(restarts=2)):
        with pytest.raises(ValidationError, match="^covariance has non-finite entries$"):
            tabu_search(stats, cfg)


def test_search_is_deterministic(rng):
    rows = linear_system_rows(rng, ("a", "b", "c", "d"), 800)
    stats = stats_from_matrix(rows, ("a", "b", "c", "d"))
    cfg = SearchConfig(seed=11, restarts=2)
    assert tabu_search(stats, cfg) == tabu_search(stats, cfg)


def test_max_parents_respected(rng):
    nodes = ("a", "b", "c", "d")
    rows = linear_system_rows(rng, nodes, 1500)
    stats = stats_from_matrix(rows, nodes)
    dag = tabu_search(stats, SearchConfig(seed=0, max_parents=1))
    assert max(dag.in_degree(v) for v in nodes) <= 1


def test_restarts_respect_max_parents():
    # node f has three true parents; random restart DAGs used to ignore the limit
    rng = np.random.default_rng(3)
    items = ("a", "b", "c", "d", "e", "f")
    rows = rng.normal(size=(1000, 6))
    rows[:, 5] += rows[:, 0] + rows[:, 1] + rows[:, 2]
    stats = stats_from_matrix(rows, items)
    for seed in range(40):
        dag = tabu_search(stats, SearchConfig(max_parents=1, restarts=4, seed=seed))
        assert max(dag.in_degree(v) for v in items) <= 1, seed


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), max_parents=st.integers(0, 3))
def test_random_start_respects_max_parents(seed, m, max_parents):
    free = _random_dag_adjacency(m, np.random.default_rng(seed))
    limited = _random_dag_adjacency(m, np.random.default_rng(seed), max_parents)
    assert limited.sum(axis=0).max() <= max_parents
    assert np.all(limited <= free)  # same draws, arcs over the limit skipped


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 7),
    max_parents=st.one_of(st.none(), st.integers(0, 3)),
    metric=st.sampled_from(sorted(PENALTIES)),
    random_start=st.booleans(),
)
def test_search_properties(seed, m, max_parents, metric, random_start):
    rng = np.random.default_rng(seed)
    items = tuple(f"v{i}" for i in range(m))
    stats = stats_from_matrix(linear_system_rows(rng, items, 200), items)
    if random_start:
        init = _random_dag_adjacency(m, rng)
    else:
        init = np.zeros((m, m), dtype=np.int8)
    start_score = graph_score(Dag.from_adjacency(items, init), stats, metric=metric)
    cfg = SearchConfig(max_parents=max_parents, metric=metric)
    scorer = CachedScorer(stats.cov, stats.n, metric)
    adj, score = tabu_search_kernel(scorer, init.copy(), cfg.tabu_len, cfg.max_iter, max_parents)
    dag = Dag.from_adjacency(items, adj)  # raises unless acyclic
    assert score == pytest.approx(graph_score(dag, stats, metric=metric), rel=1e-12)
    assert score >= start_score - 1e-12 * abs(start_score)
    if max_parents is not None and not random_start:
        assert max(dag.in_degree(v) for v in items) <= max_parents


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), replicates=st.integers(1, 6))
def test_bootstrap_counts_identical_for_one_and_two_threads(seed, replicates):
    items = ("a", "b", "c", "d")
    rows = linear_system_rows(np.random.default_rng(seed % 2**32), items, 300)
    table = make_table(rows, items=items)
    cfg = SearchConfig(seed=seed)
    one = bootstrap_strengths(table, replicates, sample_size=100, cfg=cfg, threads=1)
    two = bootstrap_strengths(table, replicates, sample_size=100, cfg=cfg, threads=2)
    assert np.array_equal(one.counts, two.counts)


def test_bootstrap_single_replicate_strengths_are_binary(rng):
    rows = linear_system_rows(rng, ("a", "b", "c"), 400)
    table = make_table(rows, items=("a", "b", "c"))
    st = bootstrap_strengths(table, replicates=1, sample_size=200, cfg=SearchConfig(seed=5))
    for u in table.items:
        for v in table.items:
            if u < v:
                assert st.strength(u, v) in (0.0, 1.0)


def test_bootstrap_white_noise_has_low_strengths(rng):
    rows = rng.normal(size=(600, 4))
    table = make_table(rows, items=("a", "b", "c", "d"))
    st = bootstrap_strengths(table, replicates=100, sample_size=200, cfg=SearchConfig(seed=9))
    for i, u in enumerate(table.items):
        for v in table.items[i + 1 :]:
            assert st.strength(u, v) < 0.25


def test_bootstrap_collider_signal_is_strong(rng):
    n = 2000
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    z = x + y + rng.normal(size=n)
    table = make_table(np.column_stack([x, y, z]), items=("x", "y", "z"))
    st = bootstrap_strengths(table, replicates=100, sample_size=500, cfg=SearchConfig(seed=2))
    assert st.strength("x", "z") > 0.9
    assert st.strength("y", "z") > 0.9


def test_bootstrap_deterministic_across_thread_counts(rng):
    rows = linear_system_rows(rng, ("a", "b", "c"), 500)
    table = make_table(rows, items=("a", "b", "c"))
    cfg = SearchConfig(seed=4)
    serial = bootstrap_strengths(table, replicates=12, sample_size=150, cfg=cfg)
    threaded = bootstrap_strengths(table, replicates=12, sample_size=150, cfg=cfg, threads=4)
    assert np.array_equal(serial.counts, threaded.counts)


def test_constant_column_in_bootstrap_sample_gives_finite_tally():
    # Q01 takes a second value in one row of 200, so most 20-row samples see it
    # constant: its variance is 0, and scoring it as a parent takes the ridge retry
    rows = np.random.default_rng(5).integers(1, 6, size=(200, 4)).astype(float)
    rows[:, 0] = 3.0
    rows[7, 0] = 4.0
    table = make_table(rows)
    cfg = SearchConfig(seed=3)
    strengths = bootstrap_strengths(table, replicates=6, sample_size=20, cfg=cfg)
    expected = np.zeros((4, 4), dtype=np.int64)
    constant = 0
    for replicate in range(6):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, replicate)))
        stats = stats_from_matrix(rows[rng.integers(0, 200, size=20)], table.items)
        if stats.cov[0, 0] == 0.0:
            constant += 1
            assert np.isfinite(local_score("Q02", ("Q01",), stats))
        adj, score = reference_search(stats.cov, 20.0, np.zeros((4, 4), dtype=np.int8),
                                      cfg.tabu_len, cfg.max_iter, -1, DEFAULT_RIDGE, 0)
        assert np.isfinite(score)
        expected += adj
    assert constant >= 1
    assert np.array_equal(strengths.counts, expected)


def test_bootstrap_rejects_incomplete_table():
    table = make_table([[1.0, np.nan], [2.0, 3.0]])
    with pytest.raises(ValidationError):
        bootstrap_strengths(table, replicates=2, sample_size=2)


def _strength_table(items, entries, replicates=10):
    counts = np.zeros((len(items), len(items)), dtype=np.int64)
    idx = {x: i for i, x in enumerate(items)}
    for u, v, count in entries:
        counts[idx[u], idx[v]] = count
    return ArcStrengthTable(items=tuple(items), counts=counts, replicates=replicates)


def test_average_network_all_zero_strengths():
    st = _strength_table(("a", "b"), [])
    assert average_network(st, 0.5).arcs == frozenset()


def test_average_network_orients_majority():
    st = _strength_table(("a", "b"), [("a", "b", 8), ("b", "a", 2)])
    dag = average_network(st, 0.5)
    assert dag.arcs == frozenset({("a", "b")})


def test_average_network_tied_direction_left_undirected():
    st = _strength_table(("a", "b"), [("a", "b", 5), ("b", "a", 5)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dag = average_network(st, 0.5)
    assert dag.arcs == frozenset()
    assert any("no majority direction" in str(w.message) for w in caught)


def test_average_network_breaks_cycles_dropping_weakest():
    st = _strength_table(
        ("a", "b", "c"),
        [("a", "b", 10), ("b", "c", 9), ("c", "a", 8)],
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dag = average_network(st, 0.5)
    assert dag.arcs == frozenset({("a", "b"), ("b", "c")})
    assert any("break a cycle" in str(w.message) for w in caught)


def test_average_network_threshold_validation():
    st = _strength_table(("a", "b"), [("a", "b", 10)])
    with pytest.raises(ValidationError):
        average_network(st, 0.0)


def test_average_network_threshold_monotonicity(rng):
    # monotonicity holds for the thresholded candidate set; the optional
    # cycle-repair pass afterwards may drop different arcs per threshold
    from attachnet.structure import _thresholded_arcs

    items = tuple("abcde")
    for _ in range(20):
        counts = rng.integers(0, 11, size=(5, 5))
        np.fill_diagonal(counts, 0)
        st = ArcStrengthTable(items=items, counts=counts, replicates=10)
        selected = []
        for t in (0.3, 0.5, 0.7, 0.9):
            arcs, _ = _thresholded_arcs(st, t)
            selected.append({(u, v) for u, v, _, _ in arcs})
        for weaker, stronger in zip(selected, selected[1:]):
            assert stronger <= weaker


def test_average_network_always_acyclic(rng):
    items = tuple("abcdef")
    for _ in range(30):
        counts = rng.integers(0, 11, size=(6, 6))
        np.fill_diagonal(counts, 0)
        st = ArcStrengthTable(items=items, counts=counts, replicates=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dag = average_network(st, 0.3)  # construction validates acyclicity
        assert isinstance(dag, Dag)


def test_stability_curve_single_epoch(rng):
    rows = rng.normal(size=(300, 3))
    table = make_table(rows, items=("a", "b", "c"))
    report = stability_curve(table, [5], repeats=2, sample_size=100, cfg=SearchConfig(seed=3))
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry["replicates"] == 5
    assert entry["directed_mean"] < 1.5  # white noise: almost no stable arcs
    csv_text = report.to_csv()
    assert csv_text.startswith("replicates,directed_mean")


@pytest.mark.parametrize("kwargs,message", [
    pytest.param({"epochs": ()}, "need at least one stability replicate count", id="no-epochs"),
    pytest.param({"epochs": [5, 0]}, "replicates must be >= 1, got 0", id="zero-epoch"),
    pytest.param({"repeats": 0}, "repeats must be >= 1, got 0", id="zero-repeats"),
    pytest.param({"sample_size": 1}, "sample_size must be >= 2, got 1", id="one-row-samples"),
    pytest.param({"threshold": 1.5}, "threshold must be in (0, 1], got 1.5", id="threshold-above-1"),
])
def test_stability_curve_checks_every_setting_before_searching(rng, monkeypatch, kwargs, message):
    import attachnet.structure as structure

    def no_search(*args):
        raise AssertionError("a search ran before the settings were checked")

    monkeypatch.setattr(structure, "_search", no_search)
    table = make_table(rng.normal(size=(50, 3)), items=("a", "b", "c"))
    settings = {"epochs": [5], "repeats": 1, "sample_size": 20, **kwargs}
    with pytest.raises(ValidationError) as err:
        stability_curve(table, **settings)
    assert str(err.value) == message


def test_strength_table_direction_sums_to_one(rng):
    st = _strength_table(("a", "b"), [("a", "b", 7), ("b", "a", 3)])
    assert st.direction("a", "b") + st.direction("b", "a") == pytest.approx(1.0)
    assert st.strength("a", "b") == pytest.approx(1.0)
    text = st.to_csv()
    assert "from,to,strength,direction" in text


@pytest.mark.parametrize("method", ["strength", "direction"])
def test_strength_table_unknown_item_raises_validation_error(method):
    st = _strength_table(("a", "b"), [("a", "b", 7)])
    with pytest.raises(ValidationError, match="^unknown item 'zz'$"):
        getattr(st, method)("a", "zz")


def test_bootstrap_replicates_run_tabu_search_with_restarts():
    """Each replicate learns exactly ``tabu_search``'s DAG, restarts included;
    on this corpus the restarts change replicates 1 and 2, so the sum below
    differs from the one without them."""
    from attachnet import fixtures
    from attachnet.params import simulate

    dag, params = fixtures.load_fixture_model()
    keep = set(dag.topological_order()[:10])
    cols = [i for i, node in enumerate(dag.nodes) if node in keep]
    rows = simulate(dag, params, n=4000, rng=np.random.default_rng(80519))[:, cols]
    table = make_table(np.clip(np.round(rows), 1, 5), items=tuple(dag.nodes[i] for i in cols))
    cfg = SearchConfig(seed=1, restarts=2)
    expected = np.zeros((10, 10), dtype=np.int64)
    changed = 0
    for replicate in range(3):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, replicate)))
        stats = stats_from_matrix(table.rows[rng.integers(0, 4000, size=200)], table.items)
        adj = tabu_search(stats, cfg).adjacency_matrix()
        changed += not np.array_equal(adj, tabu_search(stats, SearchConfig(seed=1)).adjacency_matrix())
        expected += adj
    assert changed >= 1
    strengths = bootstrap_strengths(table, 3, 200, cfg)
    assert np.array_equal(strengths.counts, expected)
