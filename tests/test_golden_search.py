"""Golden structure searches on stored covariances.

Each ``golden/search/<case>.cov`` holds a bootstrap replicate's covariance as
``float.hex`` text plus its row count, so the search input does not depend on
the BLAS build that computed it.  The replicates are drawn the way
``bootstrap_strengths`` draws them (seed stream ``(1, r)``, m = 1000 rows)
from a 16,000-row Likert corpus simulated from the bundled model with seed
20210401: three over all 36 items and two over the model's first 10 items in
topological order.  Each ``<case>.<config>.dag`` holds the learned arcs and
the score, as ``float.hex``, that the search returned when the files were
written; the search must return both exactly:

- ``default``: one search from the empty graph under the default
  ``SearchConfig`` (the kernel's own score);
- ``p3r2``: ``tabu_search`` with ``SearchConfig(max_parents=3, restarts=2)``,
  so random starts and the parent limit take part at full size (the score is
  ``graph_score`` of the returned graph);
- ``p3random``: the first of those restarts alone, one search under
  ``max_parents=3`` from its seeded random DAG.  At 36 items a restart ends
  far below the search from the empty graph, so ``p3r2`` alone would not pin
  what a search from a random start returns.

The files were written by ``python tests/test_golden_search.py``.
"""
from pathlib import Path

import numpy as np
import pytest

from attachnet import fixtures
from attachnet._kernels import CachedScorer, tabu_search_kernel
from attachnet.params import simulate
from attachnet.score import SufficientStats, graph_score, stats_from_matrix
from attachnet.structure import SearchConfig, _random_dag_adjacency, tabu_search

GOLDEN = Path(__file__).parent / "golden" / "search"
CORPUS_SEED, CORPUS_ROWS, SAMPLE_SIZE = 20210401, 16_000, 1000
CASES = {"ecr36_r0": (36, 0), "ecr36_r1": (36, 1), "ecr36_r2": (36, 2),
         "ecr10_r0": (10, 0), "ecr10_r1": (10, 1)}
CONFIGS = {"default": SearchConfig(), "p3r2": SearchConfig(max_parents=3, restarts=2),
           "p3random": SearchConfig(max_parents=3)}
RUNS = [(case, "default") for case in CASES] + [("ecr36_r0", "p3r2"), ("ecr36_r0", "p3random")]


def read_cov(case: str) -> SufficientStats:
    lines = (GOLDEN / f"{case}.cov").read_text(encoding="utf-8").splitlines()
    n = int(lines[0].removeprefix("n "))
    items = tuple(lines[1].removeprefix("items ").split())
    cov = np.array([[float.fromhex(x) for x in line.split()] for line in lines[2:]])
    return SufficientStats(n=n, mean=np.zeros(len(items)), cov=cov, items=items)


def search(stats: SufficientStats, config: str):
    """Learned arcs and score, as the module docstring describes."""
    cfg = CONFIGS[config]
    m = len(stats.items)
    if config == "p3r2":
        dag = tabu_search(stats, cfg)
        return sorted(dag.arcs), graph_score(dag, stats)
    if config == "default":
        start = np.zeros((m, m), dtype=np.int8)
    else:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5EED, 0)))
        start = _random_dag_adjacency(m, rng, cfg.max_parents)
    scorer = CachedScorer(stats.cov, stats.n, cfg.metric)
    adj, score = tabu_search_kernel(scorer, start, cfg.tabu_len, cfg.max_iter, cfg.max_parents)
    assert adj.dtype == np.int8
    arcs = [(stats.items[u], stats.items[v]) for u, v in zip(*np.nonzero(adj))]
    return sorted(arcs), float(score)


def dag_text(arcs, score: float) -> str:
    return f"score {score.hex()}\n" + "".join(f"{u} {v}\n" for u, v in arcs)


@pytest.mark.parametrize("case, config", RUNS, ids=[f"{c}-{k}" for c, k in RUNS])
def test_search_matches_golden(case, config):
    want = (GOLDEN / f"{case}.{config}.dag").read_text(encoding="utf-8")
    assert dag_text(*search(read_cov(case), config)) == want


def write_cases() -> None:
    """Simulate the corpus, store the replicates' covariances and what the
    search learns from them."""
    dag, params = fixtures.load_fixture_model()
    rng = np.random.default_rng(CORPUS_SEED)
    corpus = np.clip(np.round(simulate(dag, params, CORPUS_ROWS, rng)), 1, 5)
    first = set(dag.topological_order()[:10])
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case, (m, replicate) in CASES.items():
        cols = [i for i, node in enumerate(dag.nodes) if m == 36 or node in first]
        items = tuple(dag.nodes[i] for i in cols)
        draw = np.random.default_rng(np.random.SeedSequence((1, replicate)))
        idx = draw.integers(0, CORPUS_ROWS, size=SAMPLE_SIZE)
        stats = stats_from_matrix(corpus[idx][:, cols], items)
        lines = [f"n {stats.n}", "items " + " ".join(items)]
        lines += [" ".join(float(x).hex() for x in row) for row in stats.cov]
        (GOLDEN / f"{case}.cov").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for case, config in RUNS:
        text = dag_text(*search(read_cov(case), config))
        (GOLDEN / f"{case}.{config}.dag").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    write_cases()
