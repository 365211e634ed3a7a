"""Maximum-likelihood linear-Gaussian parameters on a fixed structure.

Each node is an ordinary least squares regression of its column on its
parents' columns with an intercept; the residual standard deviation uses the
ML (denominator n) convention unless ``unbiased`` is requested.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._csv import csv_text, not_utf8, write_text
from .dag import Dag
from .errors import ValidationError


@dataclass(frozen=True)
class GaussianBnParams:
    """Per node: intercept, residual sd and parent -> coefficient map."""

    nodes: tuple[str, ...]
    intercept: dict[str, float]
    residual_sd: dict[str, float]
    coefficients: dict[str, dict[str, float]]  # child -> {parent: coeff}

    def coefficient(self, parent: str, child: str) -> float:
        try:
            return self.coefficients[child][parent]
        except KeyError:
            raise ValidationError(f"no arc {parent} -> {child} in the model") from None

    def arc_items(self):
        """Iterate (parent, child, coefficient) over every arc."""
        for child in self.nodes:
            for parent, value in sorted(self.coefficients.get(child, {}).items()):
                yield parent, child, value


# Rows per step of the blocked QR.  At 36 items OpenBLAS runs the QR of a
# stacked block of 192 rows or more on two threads, and on a 2-core host that
# took the 35,656-row fit's R factor from about 30 ms (160 rows, one thread)
# to 36-60 ms (192-1,024 rows); fewer rows than 160 only add calls.
_FIT_BLOCK = 160

_FIT_RIDGE = 1e-8  # the ridge on the Gram matrix of a rank-deficient design


def _r_factor(rows: np.ndarray, columns: list[int]) -> np.ndarray:
    """The R factor of ``[1, rows[:, columns]]``, one block of rows at a time:
    each step factors the previous R stacked over the next block (sequential
    TSQR), so no n-row copy of the table is ever made."""
    k = len(columns) + 1
    r = np.empty((0, k))
    for start in range(0, rows.shape[0], _FIT_BLOCK):
        block = rows[start:start + _FIT_BLOCK]
        stacked = np.empty((len(r) + len(block), k))
        stacked[:len(r)] = r
        stacked[len(r):, 0] = 1.0
        stacked[len(r):, 1:] = block[:, columns]
        r = np.linalg.qr(stacked, mode="r")
    return r


def fit_mle(dag: Dag, table, unbiased: bool = False) -> GaussianBnParams:
    """Per-node OLS fit of the table columns on their parents in ``dag``.

    With ``[1, X] = QR`` over the model's columns and Q orthogonal, each
    node's regression on the n-row design has the same least-squares solution,
    residual norm and singular values as the one on R's columns, so every node
    is solved on R's few rows."""
    rows = np.asarray(table.rows, dtype=np.float64)
    # NaN propagates through min and max, so both are finite exactly when every
    # value is, and no table-sized mask is built
    if rows.size and not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
        raise ValidationError("fit requires a complete table")
    n = rows.shape[0]
    col = {item: i for i, item in enumerate(table.items)}
    for node in dag.nodes:
        if node not in col:
            raise ValidationError(f"model node {node} missing from table")
    max_parents = max((dag.in_degree(v) for v in dag.nodes), default=0)
    if n <= max_parents + 1:
        raise ValidationError(
            f"need more than {max_parents + 1} rows to fit {max_parents} parents"
        )

    r = _r_factor(rows, [col[node] for node in dag.nodes])
    position = {node: i for i, node in enumerate(dag.nodes, start=1)}  # R column 0 is the 1s
    # the n-row designs' rank cutoff (n > p + 1); lstsq's default would scale with R's rows
    cutoff = np.finfo(np.float64).eps * n
    intercept = {}
    residual_sd = {}
    coefficients = {}
    for node in dag.nodes:
        parents = dag.parents(node)
        y = r[:, position[node]]
        design = r[:, [0] + [position[p] for p in parents]]
        beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=cutoff)
        if rank < design.shape[1]:
            warnings.warn(f"rank-deficient design for {node}; using ridge fallback")
            gram = design.T @ design + _FIT_RIDGE * np.eye(design.shape[1])
            beta = np.linalg.solve(gram, design.T @ y)
        resid = y - design @ beta
        dof = n - design.shape[1] if unbiased else n
        residual_sd[node] = float(np.sqrt(resid @ resid / dof))
        intercept[node] = float(beta[0])
        coefficients[node] = {p: float(b) for p, b in zip(parents, beta[1:])}
    return GaussianBnParams(
        nodes=tuple(dag.nodes),
        intercept=intercept,
        residual_sd=residual_sd,
        coefficients=coefficients,
    )


@dataclass(frozen=True)
class InterceptReport:
    """Items sorted by intercept (descending) with polarity annotations."""

    rows: tuple[dict, ...]

    def to_csv(self) -> str:
        return csv_text(
            ["item", "intercept", "residual_sd", "polarity"],
            (
                [r["item"], f"{r['intercept']:.5f}", f"{r['residual_sd']:.5f}", r["polarity"]]
                for r in self.rows
            ),
        )

    def values(self, polarity: str) -> list[float]:
        return [r["intercept"] for r in self.rows if r["polarity"] == polarity]


def intercept_report(params: GaussianBnParams, polarity: dict[str, str]) -> InterceptReport:
    missing = [node for node in params.nodes if node not in polarity]
    if missing:
        raise ValidationError(f"polarity map missing items: {', '.join(missing)}")
    rows = sorted(
        (
            {
                "item": node,
                "intercept": params.intercept[node],
                "residual_sd": params.residual_sd[node],
                "polarity": polarity[node],
            }
            for node in params.nodes
        ),
        key=lambda r: (-r["intercept"], r["item"]),
    )
    return InterceptReport(rows=tuple(rows))


# -- model interchange -----------------------------------------------------


def write_model(dag: Dag, params: GaussianBnParams, buf=None) -> str:
    """Canonical model JSON used by the analyze/influence stages, also
    written to ``buf`` (a path or a text stream) if one is given."""
    payload = {
        "nodes": [
            {
                "name": node,
                "intercept": params.intercept[node],
                "residual_sd": params.residual_sd[node],
                "parents": [
                    {"name": p, "coeff": c}
                    for p, c in sorted(params.coefficients.get(node, {}).items())
                ],
            }
            for node in dag.nodes
        ]
    }
    text = json.dumps(payload, indent=2) + "\n"
    if buf is not None:
        write_text(buf, text)
    return text


def _finite(value) -> float:
    """``float(value)``, refusing NaN and the infinities that JSON lets
    through: the rule ``_csv.number`` applies to CSV cells."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _parent_coefficients(entry) -> dict[str, float]:
    """A model JSON node entry's parent -> coefficient map, listing each parent once."""
    coefficients = {}
    for parent in entry.get("parents", []):
        name = parent["name"]
        if name in coefficients:
            raise ValidationError(f"model node {entry['name']!r} lists parent {name!r} twice")
        coefficients[name] = _finite(parent["coeff"])
    return coefficients


def read_model(source) -> tuple[Dag, GaussianBnParams]:
    """The DAG and parameters of a model JSON file (or open text stream);
    ValidationError for bytes that are not UTF-8, text that is not JSON, a
    missing field, a number that does not parse or is not finite, or a node
    that lists a parent twice."""
    try:
        if hasattr(source, "read"):
            payload = json.load(source)
        else:
            with open(source, encoding="utf-8") as fh:
                payload = json.load(fh)
        entries = payload["nodes"]
        nodes = tuple(e["name"] for e in entries)
        intercept = {e["name"]: _finite(e["intercept"]) for e in entries}
        residual_sd = {e["name"]: _finite(e["residual_sd"]) for e in entries}
        coefficients = {e["name"]: _parent_coefficients(e) for e in entries}
    except UnicodeDecodeError as exc:
        raise ValidationError(not_utf8(source, exc)) from None
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValidationError(f"malformed model JSON: {exc}") from exc
    arcs = {(parent, child) for child, parent_map in coefficients.items() for parent in parent_map}
    dag = Dag(nodes, arcs)
    params = GaussianBnParams(
        nodes=nodes,
        intercept=intercept,
        residual_sd=residual_sd,
        coefficients=coefficients,
    )
    return dag, params


def simulate(dag: Dag, params: GaussianBnParams, n: int, rng) -> np.ndarray:
    """Ancestral sampling from the linear-Gaussian model, columns in node order."""
    col = {node: i for i, node in enumerate(dag.nodes)}
    out = np.empty((n, len(dag.nodes)))
    for node in dag.topological_order():
        noise = rng.normal(0.0, params.residual_sd[node], size=n)
        x = np.full(n, params.intercept[node]) + noise
        for parent, coeff in params.coefficients.get(node, {}).items():
            x += coeff * out[:, col[parent]]
        out[:, col[node]] = x
    return out
