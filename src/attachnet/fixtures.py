"""Loaders for the bundled reference data.

The reference model is the 36-item ECR attachment network learned from the
public openpsychometrics corpus: 123 arcs with their fitted coefficients, per
item intercepts and residual standard deviations, the five-cluster grouping,
and the item polarity flags (reverse-keyed items are "positive").  Factor
loadings from three published ECR factor-analysis studies and the partial
correlation weights of a published RSQ network study ship alongside for the
comparison suite.
"""
from __future__ import annotations

from importlib import resources

from ._csv import load_csv, number, read_rows
from .dag import Dag
from .errors import FixtureError, ValidationError
from .params import GaussianBnParams

EXPECTED_NODES = 36
EXPECTED_ARCS = 123


def data_path(name: str):
    path = resources.files("attachnet").joinpath("data", name)
    if not path.is_file():
        raise FixtureError(f"bundled data file {name} is missing")
    return path


def load_fixture_model(path=None) -> tuple[Dag, GaussianBnParams]:
    """The reference network and its parameters.

    ``path`` may point at a directory holding ``fixture_nodes.csv`` and
    ``fixture_arcs.csv`` in the bundled format; by default the packaged
    reference tables are used.  Row-count or consistency mismatches are fatal.
    """
    if path is None:
        nodes_file = data_path("fixture_nodes.csv")
        arcs_file = data_path("fixture_arcs.csv")
    else:
        nodes_file = f"{path}/fixture_nodes.csv"
        arcs_file = f"{path}/fixture_arcs.csv"

    node_rows = load_csv(nodes_file, _node_rows)
    arc_rows = load_csv(arcs_file, _arc_rows)
    if len(node_rows) != EXPECTED_NODES:
        raise FixtureError(
            f"expected {EXPECTED_NODES} node rows, found {len(node_rows)}"
        )
    if len(arc_rows) != EXPECTED_ARCS:
        raise FixtureError(f"expected {EXPECTED_ARCS} arc rows, found {len(arc_rows)}")

    nodes = tuple(item for item, _, _ in node_rows)
    intercept = {item: value for item, value, _ in node_rows}
    residual_sd = {item: sd for item, _, sd in node_rows}

    coefficients: dict[str, dict[str, float]] = {n: {} for n in nodes}
    seen = set()
    for u, v, c in arc_rows:
        if u not in coefficients or v not in coefficients:
            raise FixtureError(f"arc ({u}, {v}) references an unknown item")
        if (u, v) in seen:
            raise FixtureError(f"duplicate arc ({u}, {v})")
        seen.add((u, v))
        coefficients[v][u] = c

    dag = Dag(nodes, seen)  # validates acyclicity
    params = GaussianBnParams(
        nodes=nodes,
        intercept=intercept,
        residual_sd=residual_sd,
        coefficients=coefficients,
    )
    return dag, params


def _node_rows(buf) -> list[tuple[str, float, float]]:
    rows = read_rows(buf, ("item", "intercept", "stddev"))
    return [
        (r["item"], number(r["intercept"], row), number(r["stddev"], row))
        for row, r in enumerate(rows, start=1)
    ]


def _arc_rows(buf) -> list[tuple[str, str, float]]:
    rows = read_rows(buf, ("from", "to", "coefficient"))
    return [(r["from"], r["to"], number(r["coefficient"], row)) for row, r in enumerate(rows, start=1)]


def load_fixture_partition():
    from .analytics import Partition

    return load_csv(data_path("fixture_clusters.csv"), Partition.from_csv)


def load_polarity() -> dict[str, str]:
    rows = load_csv(data_path("fixture_polarity.csv"), read_rows, ("item", "polarity"))
    return {r["item"]: r["polarity"] for r in rows}


FACTOR_TABLES = {
    "wei2007_avoidance": "factors_wei2007_avoidance.csv",
    "wei2007_anxiety": "factors_wei2007_anxiety.csv",
    "lo2009": "factors_lo2009.csv",
    "guzman2019": "factors_guzman2019.csv",
}


def load_factor_table(name: str):
    """A bundled factor table by name, or a factor CSV by path."""
    from .compare import FactorTable

    if name in FACTOR_TABLES:
        path = data_path(FACTOR_TABLES[name])
    else:
        path = name
    return load_csv(path, FactorTable.from_csv)


def load_edge_weights(name_or_path) -> dict:
    """Edge weight CSV (item_a,item_b,weight) -> {frozenset pair: weight}."""
    builtin = {
        "fixture": "fixture_edge_weights.csv",
        "external": "external_partial_correlations.csv",
    }
    path = data_path(builtin[name_or_path]) if name_or_path in builtin else name_or_path
    return load_csv(path, _edge_weights)


def _edge_weights(buf) -> dict:
    """Each unordered pair's weight; a pair listed twice, in either order,
    raises ValidationError naming both rows."""
    out: dict[frozenset, float] = {}
    first_row: dict[frozenset, int] = {}
    for row, r in enumerate(read_rows(buf, ("item_a", "item_b", "weight")), start=1):
        pair = frozenset((r["item_a"], r["item_b"]))
        if len(pair) != 2:
            raise ValidationError(f"row {row}: degenerate pair {r['item_a']!r}, {r['item_b']!r}")
        first = first_row.setdefault(pair, row)
        if first != row:
            raise ValidationError(
                f"row {row}: pair {r['item_a']!r}, {r['item_b']!r} repeats row {first}"
            )
        out[pair] = number(r["weight"], row)
    return out
