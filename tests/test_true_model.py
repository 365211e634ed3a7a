"""The search against the truth at 36 items: the bundled model's exact
population covariance Σ = (I - Bᵀ)⁻¹ D (I - Bᵀ)⁻ᵀ, where B holds the arc
coefficients (B[u, v] for u -> v) and D the residual variances.

These are oracles of truth, not of older code.  On Σ no single move can gain
likelihood over the true DAG, so at a sample size where every true arc is
worth its penalty the true DAG is a local optimum of the search; and at a
large enough sample size the search from the empty graph finds the true
Markov equivalence class: its skeleton and v-structures.  At n of 2,000 to
100,000 the default search from the empty graph ends below the true DAG's
score; that describes today's search, and no test here asserts it.
"""
import numpy as np
import pytest

from attachnet import fixtures
from attachnet._kernels import CachedScorer, tabu_search_kernel
from attachnet.score import SufficientStats, graph_score
from attachnet.structure import SearchConfig, tabu_search


@pytest.fixture(scope="module")
def truth():
    dag, params = fixtures.load_fixture_model()
    index = {node: i for i, node in enumerate(dag.nodes)}
    b = np.zeros((len(dag.nodes), len(dag.nodes)))
    for parent, child, coeff in params.arc_items():
        b[index[parent], index[child]] = coeff
    d = np.diag([params.residual_sd[node] ** 2 for node in dag.nodes])
    mix = np.linalg.inv(np.eye(len(dag.nodes)) - b.T)
    return dag, mix @ d @ mix.T


def population_stats(dag, sigma, n):
    return SufficientStats(n=n, mean=np.zeros(len(dag.nodes)), cov=sigma, items=dag.nodes)


def skeleton(dag):
    return {frozenset(arc) for arc in dag.arcs}


def v_structures(dag):
    """Each u -> w <- v whose u and v are not adjacent, as (w, {u, v})."""
    links = skeleton(dag)
    return {
        (w, frozenset((u, v)))
        for w in dag.nodes
        for i, u in enumerate(dag.parents(w))
        for v in dag.parents(w)[i + 1:]
        if frozenset((u, v)) not in links
    }


def test_search_from_the_true_dag_keeps_it(truth):
    dag, sigma = truth
    stats = population_stats(dag, sigma, 16_000)
    cfg = SearchConfig()
    scorer = CachedScorer(stats.cov, stats.n, cfg.metric)
    adj, score = tabu_search_kernel(
        scorer, dag.adjacency_matrix(), cfg.tabu_len, cfg.max_iter, cfg.max_parents
    )
    assert np.array_equal(adj, dag.adjacency_matrix())
    expected = graph_score(dag, stats)
    assert abs(score - expected) <= 1e-12 * abs(expected)


def test_search_from_the_empty_graph_finds_the_true_class(truth):
    dag, sigma = truth
    found = tabu_search(population_stats(dag, sigma, 10**6))
    assert (len(skeleton(dag)), len(v_structures(dag))) == (123, 75)
    assert skeleton(found) == skeleton(dag)
    assert v_structures(found) == v_structures(dag)
