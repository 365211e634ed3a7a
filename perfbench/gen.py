"""Seeded input generator: raw survey exports simulated from the bundled model.

Rows come from ``attachnet.params.simulate`` on the bundled 36-item reference
network, rounded and clipped to the Likert range 1-5, written with unpadded
``Q1``...``Q36`` headers, an ``age`` column, codebook gender codes and a
``country`` column.  A small, seeded share of rows is corrupted so that the
ingest drop and filter paths run: ragged rows (dropped by the parser), blank
cells and out-of-range item codes, ages outside 18-60 and gender codes other
than male/female (removed by ``standard_filter()``).

The generator returns the counts the benchmark checks the program against; it
computes them from what it wrote, independently of ``attachnet.ingest``.
"""
from __future__ import annotations

import numpy as np

COUNTRIES = ("US", "GB", "CA", "AU", "IN", "DE", "PH", "BR", "MX", "NZ", "ZA", "FR", "XX", "")

# Shares of corrupted rows; most rows still pass the standard filter.
RAGGED = 0.01
BLANK_CELL = 0.02
OUT_OF_RANGE = 0.01
AGE_OUTSIDE = 0.03
GENDER_OTHER = 0.04


def ancestral_items(dag, k: int) -> tuple[str, ...]:
    """The first ``k`` nodes of the model's topological order, in node order.

    The set is closed under parents, so its marginal is exactly the induced
    sub-network of the bundled model.
    """
    keep = set(dag.topological_order()[:k])
    return tuple(n for n in dag.nodes if n in keep)


def write_raw_export(path, dag, params, n_rows: int, items, rng) -> dict:
    """Write a raw export of ``n_rows`` data lines over ``items``.

    Returns ``{"data_lines", "ragged", "cohort", "bytes"}``, where ``cohort``
    is the number of rows the standard filter (ages 18-60, female/male,
    complete in-range responses) must keep.
    """
    from attachnet.params import simulate

    col = {n: i for i, n in enumerate(dag.nodes)}
    sim = simulate(dag, params, n_rows, rng)[:, [col[i] for i in items]]
    values = np.clip(np.round(sim), 1, 5).astype(np.int64)
    m = len(items)

    age = rng.integers(18, 61, size=n_rows)
    outside = rng.random(n_rows) < AGE_OUTSIDE
    age[outside] = rng.choice(np.array([15, 16, 17, 61, 65, 72]), size=int(outside.sum()))
    gender = rng.choice(np.array(["1", "2"]), size=n_rows, p=[0.42, 0.58])
    other = rng.random(n_rows) < GENDER_OTHER
    gender[other] = rng.choice(np.array(["0", "3"]), size=int(other.sum()))
    country = rng.choice(np.array(COUNTRIES), size=n_rows)

    blank = rng.random(n_rows) < BLANK_CELL
    bad_code = rng.random(n_rows) < OUT_OF_RANGE
    ragged = rng.random(n_rows) < RAGGED
    bad_col = rng.integers(0, m, size=n_rows)
    bad_value = rng.choice(np.array(["0", "6", "9"]), size=n_rows)

    header = [f"Q{int(name[1:])}" for name in items] + ["age", "gender", "country"]
    lines = [",".join(header)]
    for i, row in enumerate(values.tolist()):
        cells = [str(v) for v in row]
        if blank[i]:
            cells[bad_col[i]] = ""
        elif bad_code[i]:
            cells[bad_col[i]] = str(bad_value[i])
        cells += [str(age[i]), str(gender[i]), str(country[i])]
        if ragged[i]:
            cells.pop()
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

    keep = ~ragged & ~blank & ~bad_code & ~outside & ~other
    return {
        "data_lines": n_rows,
        "ragged": int(ragged.sum()),
        "cohort": int(keep.sum()),
        "bytes": len(text.encode("utf-8")),
    }
