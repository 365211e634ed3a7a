"""Reference parameter fit: the per-node SVD least squares attachnet used to run.

``fit_mle`` below stacks each node's n-row design (a column of ones and its
parents' columns) from a transposed copy of the table and solves it with
``np.linalg.lstsq``.  It is kept unchanged as the oracle that
``test_fit_oracle.py`` and ``benchmarks/bench_kernels.py`` hold the blocked-QR
fit in ``attachnet.params`` to, within ``RELATIVE_BOUND`` as
``relative_difference`` measures it.
"""
import warnings

import numpy as np

from attachnet.dag import Dag
from attachnet.errors import ValidationError
from attachnet.params import GaussianBnParams

# Where this fit raises no warning, the blocked-QR fit agrees with it to this.
RELATIVE_BOUND = 1e-11


def fit_mle(dag: Dag, table, unbiased: bool = False, ridge: float = 1e-8) -> GaussianBnParams:
    """Per-node OLS fit of the table columns on their parents in ``dag``."""
    rows = np.asarray(table.rows, dtype=np.float64)
    if not np.isfinite(rows).all():
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

    columns = rows.T.copy()  # contiguous columns: the regressions read them, not rows
    intercept = {}
    residual_sd = {}
    coefficients = {}
    for node in dag.nodes:
        parents = dag.parents(node)
        y = columns[col[node]]
        design = np.column_stack([np.ones(n)] + [columns[col[p]] for p in parents])
        beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            warnings.warn(f"rank-deficient design for {node}; using ridge fallback")
            gram = design.T @ design + ridge * np.eye(design.shape[1])
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


def fit_with_warnings(fit, dag: Dag, table, **kwargs):
    """``fit(dag, table, **kwargs)`` and the set of warning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = fit(dag, table, **kwargs)
    return params, {str(w.message) for w in caught}


def relative_difference(dag: Dag, table, got: GaussianBnParams, expected: GaussianBnParams,
                        warned=frozenset()) -> float:
    """The largest difference between two fits of ``dag`` on ``table``: in
    each node's intercept and coefficients, relative to its largest one in
    ``expected``, and in its residual sd, relative to the larger of that sd
    and the RMS of the node's column (a node its parents determine has a
    residual sd of rounding size).  Coefficients are skipped on the nodes
    that a message in ``warned`` calls rank-deficient: the ridge fallback
    amplifies last-bit differences in their Gram matrices."""
    def relative(diff, scale):
        return diff / scale if scale else (0.0 if diff == 0 else np.inf)

    col = {item: i for i, item in enumerate(table.items)}
    rows = np.asarray(table.rows)
    worst = 0.0
    for node in dag.nodes:
        rms = float(np.sqrt(np.mean(rows[:, col[node]] ** 2)))
        worst = max(worst, relative(abs(got.residual_sd[node] - expected.residual_sd[node]),
                                    max(expected.residual_sd[node], rms)))
        if f"rank-deficient design for {node}; using ridge fallback" in warned:
            continue
        a, b = ([fit.intercept[node]] + [fit.coefficients[node][p] for p in dag.parents(node)]
                for fit in (got, expected))
        worst = max(worst, relative(max(abs(x - y) for x, y in zip(a, b)), max(map(abs, b))))
    return worst
