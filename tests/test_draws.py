"""``_draws.choice_rows`` against ``np.random.default_rng(seed).choice``, row
for row, and ``kmeans_best_seed`` against the seed-at-a-time reference when
the block draw is wrong and must fall back."""
import numpy as np
import pytest

import reference_analysis as ref
from attachnet import _draws, compare, fixtures
from attachnet.compare import kmeans_best_seed
from test_analysis_oracle import assert_same_result


def per_seed(seeds, n, k):
    return np.array([np.random.default_rng(seed).choice(n, size=k, replace=False)
                     for seed in seeds]).reshape(len(seeds), k)


SHAPES = [(n, k) for n in (1, 2, 7, 18, 36, 100) for k in range(1, min(n, 5) + 1)]
SHAPES += [(n, n) for n in range(3, 8)]  # every item drawn; n = 1 and 2 are above


@pytest.mark.parametrize("n,k", SHAPES)
def test_rows_match_default_rng(n, k):
    seeds = range(0, 2000)
    assert np.array_equal(_draws.choice_rows(seeds, n, k), per_seed(seeds, n, k))


@pytest.mark.parametrize("seeds", [
    range(2**32 - 300, 2**32 + 300),  # a second 32-bit word appears
    range(2**63 - 100, 2**63 + 100),
    range(2**64 - 400, 2**64),  # the largest seeds the fast path takes
    range(2**64 - 3, 2**64 + 3),  # the rest take the per-seed path
    range(2**64 + 5, 2**64 + 8),
    range(7, 2000, 37),
    range(4, 4),
])
def test_rows_match_default_rng_at_word_boundaries(seeds):
    for n, k in [(18, 2), (36, 3)]:
        assert np.array_equal(_draws.choice_rows(seeds, n, k), per_seed(seeds, n, k))


def test_rejected_draws_take_the_per_seed_path():
    """At n = 9999 a few seeds in 10^5 draw a value numpy rejects and redraws:
    the block draw flags them, and their rows come from ``default_rng``."""
    seeds = range(0, 20_000)
    _, rejected = _draws._floyd_choice(np.arange(20_000, dtype=np.uint64), 9999, 3)
    assert rejected.any()
    got = _draws.choice_rows(seeds, 9999, 3)
    flagged = np.flatnonzero(rejected)
    assert np.array_equal(got[flagged], per_seed([seeds[i] for i in flagged], 9999, 3))
    spot = range(0, 20_000, 97)
    assert np.array_equal(got[::97], per_seed(spot, 9999, 3))


def test_large_population_takes_the_per_seed_path(monkeypatch):
    def unused(*args):
        raise AssertionError("the block draw ran above its population limit")

    monkeypatch.setattr(_draws, "_floyd_choice", unused)
    seeds = range(3, 6)
    assert np.array_equal(_draws.choice_rows(seeds, 20_000, 500), per_seed(seeds, 20_000, 500))


def test_wrong_block_draw_falls_back(monkeypatch):
    """A block draw that disagrees with ``default_rng`` (as under a numpy that
    draws differently) is caught by the first-row check: every row, and the
    k-means result, still equal the per-seed draw."""
    real = _draws._floyd_choice

    def shifted(seeds, n, k):
        rows, rejected = real(seeds, n, k)
        return (rows + 1) % n, rejected

    monkeypatch.setattr(_draws, "_floyd_choice", shifted)
    seeds = range(1, 700)
    assert np.array_equal(_draws.choice_rows(seeds, 18, 2), per_seed(seeds, 18, 2))
    data = fixtures.load_factor_table("wei2007_avoidance")
    monkeypatch.setattr(compare, "_BLOCK_BYTES", 256 * compare._seed_bytes(18, 2, 2))
    assert_same_result(kmeans_best_seed(data, 2, (1, 700)),
                       ref.kmeans_best_seed(data, 2, (1, 700)))
