"""Score-based DAG search, bootstrap arc strengths and model averaging.

``tabu_search`` runs the add/remove/reverse local search
(``_kernels.tabu_search_kernel``: one cached matrix of score deltas whose
columns the scorer keeps per parent set, a matrix of path counts between
nodes for cycle checks, and ``_kernels._pick_move``, which alone applies the
admissibility, tabu, aspiration and tie rules).  One ``CachedScorer`` per set
of sufficient statistics serves the search from the empty graph and every
restart; it memoises local scores and delta columns and shares Cholesky
factor rows between parent sets.
``bootstrap_strengths`` repeats the search on resampled data and tallies how
often each connection appears and in which direction; ``average_network``
thresholds the tally into a consensus DAG.  Replicates run one after another
on independent seed streams derived from ``(seed, replicate)``.
"""
from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from ._csv import csv_text
from .dag import Dag, roots_and_terminals  # noqa: F401  (re-exported)
from .errors import ValidationError
from .score import SufficientStats, stats_from_matrix


@dataclass(frozen=True)
class SearchConfig:
    """Search settings.  The counts and the seed must be integers; numpy
    integers are stored as ints."""

    tabu_len: int = 10
    max_iter: int = 100
    max_parents: int | None = None
    restarts: int = 0
    seed: int = 1
    metric: str = "bic"

    def __post_init__(self):
        for name in ("tabu_len", "max_iter", "max_parents", "restarts", "seed"):
            value = getattr(self, name)
            if name == "max_parents" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers become ints
        if self.tabu_len < 1:
            raise ValidationError("tabu_len must be >= 1")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        if self.max_parents is not None and self.max_parents < 0:
            raise ValidationError("max_parents must be >= 0")
        if self.restarts < 0:
            raise ValidationError("restarts must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a non-negative 64-bit integer")
        if self.metric not in _kernels.PENALTIES:
            raise ValidationError(f"unknown metric {self.metric!r}")


def _random_dag_adjacency(
    m: int, rng: np.random.Generator, max_parents: int | None = None
) -> np.ndarray:
    """Random DAG: arcs sampled below the diagonal of a random node order.

    A sampled arc into a node that already has ``max_parents`` parents is
    skipped; the random draws are the same with or without the limit.
    """
    order = rng.permutation(m)
    adj = np.zeros((m, m), dtype=np.int8)
    prob = min(0.25, 4.0 / max(m, 1))
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < prob:
                if max_parents is None or adj[:, order[j]].sum() < max_parents:
                    adj[order[i], order[j]] = 1
    return adj


def _search(stats: SufficientStats, cfg: SearchConfig) -> np.ndarray:
    """The adjacency of ``tabu_search``'s DAG; bootstrap replicates use it as is."""
    m = len(stats.items)
    scorer = _kernels.CachedScorer(stats.cov, stats.n, cfg.metric)

    def run(start):
        return _kernels.tabu_search_kernel(scorer, start, cfg.tabu_len, cfg.max_iter, cfg.max_parents)

    best_adj, best_score = run(np.zeros((m, m), dtype=np.int8))
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5EED, restart)))
        adj, score = run(_random_dag_adjacency(m, rng, cfg.max_parents))
        if score > best_score + 1e-9:
            best_adj, best_score = adj, score
    return best_adj


def tabu_search(stats: SufficientStats, cfg: SearchConfig | None = None) -> Dag:
    """Best DAG found by tabu-augmented hill climbing; deterministic per seed.

    The first run starts from the empty graph; each configured restart starts
    from a random DAG drawn from the seed stream ``(cfg.seed, 0x5EED,
    restart)`` and the highest-scoring result wins.
    """
    return Dag.from_adjacency(stats.items, _search(stats, cfg or SearchConfig()))


@dataclass(frozen=True)
class ArcStrengthTable:
    """Bootstrap tallies: ``counts[i, j]`` replicates contained arc i -> j."""

    items: tuple[str, ...]
    counts: np.ndarray
    replicates: int

    def _index(self, item: str) -> int:
        try:
            return self.items.index(item)
        except ValueError:
            raise ValidationError(f"unknown item {item!r}") from None

    def strength(self, u: str, v: str) -> float:
        """Fraction of replicates containing u-v in either direction."""
        i, j = self._index(u), self._index(v)
        return (self.counts[i, j] + self.counts[j, i]) / self.replicates

    def direction(self, u: str, v: str) -> float:
        """Of the replicates containing u-v, the fraction oriented u -> v."""
        i, j = self._index(u), self._index(v)
        both = self.counts[i, j] + self.counts[j, i]
        if both == 0:
            return 0.0
        return self.counts[i, j] / both

    def to_csv(self) -> str:
        rows = []
        m = len(self.items)
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                both = self.counts[i, j] + self.counts[j, i]
                if both == 0:
                    continue
                rows.append(
                    [
                        self.items[i],
                        self.items[j],
                        f"{both / self.replicates:.6g}",
                        f"{self.counts[i, j] / both:.6g}",
                    ]
                )
        return csv_text(["from", "to", "strength", "direction"], rows)


def check_bootstrap_settings(
    replicates: int = 1,
    sample_size: int = 2,
    threshold: float = 0.5,
    repeats: int = 1,
    epochs=None,
) -> None:
    """ValidationError for the first setting out of range: stability
    ``epochs`` that are empty, a replicate count (``replicates`` or any of the
    ``epochs``) below 1, a ``sample_size`` below 2, a ``threshold`` outside
    (0, 1] or ``repeats`` below 1.

    Every default is in range, so a caller checks only what it passes.
    ``bootstrap_strengths``, ``average_network`` and ``stability_curve`` check
    their own settings here, and the CLI checks its flags here before it
    reads any input.
    """
    if epochs is None:
        epochs = ()
    elif len(epochs) == 0:
        raise ValidationError("need at least one stability replicate count")
    for count in (replicates, *epochs):
        if count < 1:
            raise ValidationError(f"replicates must be >= 1, got {count}")
    if sample_size < 2:
        raise ValidationError(f"sample_size must be >= 2, got {sample_size}")
    if not (0.0 < threshold <= 1.0):
        raise ValidationError(f"threshold must be in (0, 1], got {threshold:g}")
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")


def bootstrap_strengths(
    table,
    replicates: int,
    sample_size: int = 1000,
    cfg: SearchConfig | None = None,
    threads: int | None = None,
) -> ArcStrengthTable:
    """Arc inclusion/direction frequencies over bootstrap replicates.

    Each replicate draws ``sample_size`` rows with replacement using the seed
    stream ``(cfg.seed, replicate)``, learns a DAG as ``tabu_search`` does
    (restarts included) and tallies its arcs.  Replicates run in order, one
    at a time; ``threads`` is accepted and has no effect.
    """
    cfg = cfg or SearchConfig()
    check_bootstrap_settings(replicates=replicates, sample_size=sample_size)
    rows = np.asarray(table.rows, dtype=np.float64)
    if not np.isfinite(rows).all():
        raise ValidationError("bootstrap requires a complete table")
    items = tuple(table.items)
    n = rows.shape[0]

    counts = np.zeros((len(items), len(items)), dtype=np.int64)
    for replicate in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, replicate)))
        idx = rng.integers(0, n, size=sample_size)
        counts += _search(stats_from_matrix(rows[idx], items), cfg)
    return ArcStrengthTable(items=items, counts=counts, replicates=replicates)


def _thresholded_arcs(strengths: ArcStrengthTable, threshold: float):
    """Oriented arcs passing the strength threshold plus tied-direction pairs."""
    items = strengths.items
    m = len(items)
    counts = strengths.counts
    arcs = []  # (u, v, strength, direction)
    undirected = []
    for i in range(m):
        for j in range(i + 1, m):
            both = counts[i, j] + counts[j, i]
            if both == 0:
                continue
            strength = both / strengths.replicates
            if strength < threshold:
                continue
            d_ij = counts[i, j] / both
            if d_ij == 0.5:
                undirected.append((items[i], items[j]))
            elif d_ij > 0.5:
                arcs.append((items[i], items[j], strength, d_ij))
            else:
                arcs.append((items[j], items[i], strength, 1.0 - d_ij))
    return arcs, undirected


def average_network(strengths: ArcStrengthTable, threshold: float = 0.5) -> Dag:
    """Consensus DAG: pairs at/above the threshold, majority orientation.

    Pairs split exactly 50/50 stay undirected and are left out of the DAG.  If
    the oriented arcs contain a cycle, the cycle arc with the smallest
    strength*direction product is dropped (repeatedly) with a warning.
    """
    check_bootstrap_settings(threshold=threshold)
    arcs, undirected = _thresholded_arcs(strengths, threshold)
    for u, v in undirected:
        warnings.warn(f"pair {u}-{v} has no majority direction; left undirected")
    return _repair_cycles(strengths.items, arcs)


def _repair_cycles(items, arcs) -> Dag:
    """Drop the weakest arc on a cycle, with a warning, until none is left.

    An arc u -> v lies on a cycle exactly when v reaches u, which the
    closure ``_kernels._reachability`` of the remaining arcs answers.
    """
    index = {item: i for i, item in enumerate(items)}
    arc_set = {(u, v): (s, d) for u, v, s, d in arcs}
    adj = np.zeros((len(items), len(items)))
    for u, v in arc_set:
        adj[index[u], index[v]] = 1.0
    while True:
        reach = _kernels._reachability(adj)
        in_cycles = [(u, v) for (u, v) in arc_set if reach[index[v], index[u]]]
        if not in_cycles:
            break
        u, v = min(in_cycles, key=lambda a: (arc_set[a][0] * arc_set[a][1], a))
        s, d = arc_set.pop((u, v))
        adj[index[u], index[v]] = 0.0
        warnings.warn(
            f"dropped arc {u}->{v} (strength*direction {s * d:.4g}) to break a cycle"
        )
    return Dag(items, set(arc_set))


@dataclass(frozen=True)
class StabilityReport:
    """Mean/sd of arc counts in the averaged network per replicate budget."""

    entries: tuple[dict, ...]

    def to_csv(self) -> str:
        stats = ("directed_mean", "directed_sd", "undirected_mean", "undirected_sd")
        return csv_text(
            ("replicates",) + stats,
            ([e["replicates"]] + [f"{e[key]:.6g}" for key in stats] for e in self.entries),
        )


def _derived_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence((seed,) + tags).generate_state(1)[0])


def stability_curve(
    table,
    epochs,
    repeats: int,
    sample_size: int = 1000,
    cfg: SearchConfig | None = None,
    threshold: float = 0.5,
) -> StabilityReport:
    """Averaged-network arc counts across bootstrap budgets.

    For every replicate count R, the bootstrap + averaging pipeline runs
    ``repeats`` times with distinct derived seeds; directed and undirected arc
    counts are summarized as mean and (population) standard deviation.
    """
    cfg = cfg or SearchConfig()
    epochs = tuple(epochs)
    check_bootstrap_settings(
        sample_size=sample_size, threshold=threshold, repeats=repeats, epochs=epochs
    )
    entries = []
    for epoch_no, big_r in enumerate(epochs):
        directed = []
        undirected = []
        for rep in range(repeats):
            run_cfg = replace(cfg, seed=_derived_seed(cfg.seed, epoch_no, rep))
            strengths = bootstrap_strengths(table, big_r, sample_size=sample_size, cfg=run_cfg)
            arcs, und = _thresholded_arcs(strengths, threshold)
            dag = _repair_cycles(strengths.items, arcs)
            directed.append(len(dag.arcs))
            undirected.append(len(und))
        entries.append(
            {
                "replicates": int(big_r),
                "directed_mean": float(np.mean(directed)),
                "directed_sd": float(np.std(directed)),
                "undirected_mean": float(np.mean(undirected)),
                "undirected_sd": float(np.std(undirected)),
            }
        )
    return StabilityReport(entries=tuple(entries))
