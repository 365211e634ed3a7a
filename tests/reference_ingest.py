"""Reference ingest: the per-cell parser, serializer, filter and summary attachnet used to run.

These bodies convert one cell at a time (``float(cell.strip())`` per item
cell, ``f"{value:g}"`` per written value, one label test, region lookup and
dict update per row and dimension) and read a table's demographics one row
at a time, as per-row labels.  They are kept as the slow oracle that
``test_ingest.py``, ``test_golden_ingest.py`` and
``benchmarks/bench_kernels.py`` compare the columnar implementations in
``attachnet.ingest`` against; only the parser's last step, building the
table from its per-row lists, changed when tables came to hold gender and
country as codes.  They predate two input checks: they accept a duplicated
item column and raise ``OverflowError`` on a non-finite or out-of-range age,
so the oracle comparisons draw neither.
"""
import csv
import io

import numpy as np

from attachnet.ingest import (
    AGE_BANDS,
    GENDERS,
    REGIONS,
    ColumnSchema,
    DemographicReport,
    Demographics,
    ResponseTable,
    _ITEM_RE,
    _open_text,
    default_codebook,
    map_region,
)
from attachnet.errors import EmptyCohortError, ParseError


def parse_responses(stream, schema: ColumnSchema | None = None, codebook=None) -> ResponseTable:
    schema = schema or ColumnSchema()
    if codebook is None:
        codebook = default_codebook()
    gender_map = codebook.get("gender", {})
    country_map = codebook.get("country", {})

    fh = _open_text(stream)
    header_line = fh.readline()
    if not header_line:
        raise ParseError("empty input", line=1)
    delimiter = "\t" if "\t" in header_line else ","
    header = next(csv.reader([header_line], delimiter=delimiter))
    header = [h.strip() for h in header]

    item_cols: list[tuple[int, int, str]] = []  # (column, number, canonical)
    for i, name in enumerate(header):
        match = _ITEM_RE.match(name)
        if match:
            num = int(match.group(1))
            item_cols.append((i, num, f"Q{num:02d}"))
    if not item_cols:
        raise ParseError("header contains no item columns (Q1... or Q01...)", line=1)
    item_cols.sort(key=lambda t: t[1])
    items = tuple(canon for _, _, canon in item_cols)

    lower = [h.lower() for h in header]

    def find_col(name: str) -> int | None:
        return lower.index(name.lower()) if name.lower() in lower else None

    age_col = find_col(schema.age)
    gender_col = find_col(schema.gender)
    country_col = find_col(schema.country)

    rows: list[list[float]] = []
    ages: list[int] = []
    genders: list[str] = []
    countries: list[str] = []
    errors: list[str] = []

    reader = csv.reader(fh, delimiter=delimiter)
    for lineno, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != len(header):
            errors.append(f"line {lineno}: expected {len(header)} fields, got {len(cells)}")
            continue
        values = []
        for col, _, _ in item_cols:
            cell = cells[col].strip()
            try:
                values.append(float(cell))
            except ValueError:
                values.append(np.nan)
        rows.append(values)

        age = -1
        if age_col is not None:
            try:
                age = int(float(cells[age_col]))
            except ValueError:
                age = -1
        ages.append(age)

        if gender_col is not None:
            raw = cells[gender_col].strip()
            if raw in gender_map:
                gender = gender_map[raw]
            elif raw.lower() in GENDERS:
                gender = raw.lower()
            else:
                gender = "unknown"
        else:
            gender = "unknown"
        genders.append(gender)

        country = cells[country_col].strip() if country_col is not None else ""
        country = country_map.get(country, country).upper()
        countries.append(country)

    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(items))
    demo = Demographics.from_labels(np.array(ages, dtype=np.int16), genders, countries)
    return ResponseTable(
        items=items,
        rows=matrix,
        demographics=demo,
        dropped_rows=len(errors),
        row_errors=tuple(errors),
    )


def serialize_responses(table: ResponseTable, buf=None) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(table.items) + ["age", "gender", "country"])
    demo = table.demographics
    genders, countries = demo.gender, demo.country
    for i in range(table.n):
        cells = []
        for value in table.rows[i]:
            cells.append("" if np.isnan(value) else f"{value:g}")
        cells.append("" if demo.age[i] < 0 else str(int(demo.age[i])))
        cells.append(genders[i])
        cells.append(countries[i])
        writer.writerow(cells)
    text = out.getvalue()
    if buf is not None:
        if isinstance(buf, str):
            with open(buf, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            buf.write(text)
    return text


def _age_band(age: int) -> str:
    for lo, hi in AGE_BANDS:
        if lo <= age <= hi:
            return f"{lo}-{hi}"
    return "other"


def demographic_summary(table: ResponseTable) -> DemographicReport:
    region = {r: 0 for r in REGIONS}
    gender = {g: 0 for g in GENDERS}
    age_band = {f"{lo}-{hi}": 0 for lo, hi in AGE_BANDS}
    age_band["other"] = 0
    demo = table.demographics
    genders, countries = demo.gender, demo.country
    for i in range(table.n):
        region[map_region(countries[i])] += 1
        gender[genders[i]] += 1
        age_band[_age_band(int(demo.age[i]))] += 1
    return DemographicReport(n=table.n, region=region, gender=gender, age_band=age_band)


def take(demo: Demographics, mask) -> Demographics:
    """The rows where ``mask`` is true, one row at a time."""
    keep = [i for i, kept in enumerate(np.asarray(mask, dtype=bool).tolist()) if kept]
    genders, countries = demo.gender, demo.country
    return Demographics.from_labels(
        np.array([demo.age[i] for i in keep], dtype=np.int16),
        [genders[i] for i in keep],
        [countries[i] for i in keep],
    )


def filter_cohort(table: ResponseTable, f) -> ResponseTable:
    """Rows satisfying every criterion of ``f``, tested one row at a time."""
    demo = table.demographics
    genders, countries = demo.gender, demo.country
    keep = []
    for i in range(table.n):
        ok = True
        if f.age_range is not None:
            ok = ok and f.age_range[0] <= demo.age[i] <= f.age_range[1]
        if f.genders is not None:
            ok = ok and genders[i] in f.genders
        if f.regions is not None:
            ok = ok and map_region(countries[i]) in f.regions
        if f.require_complete:
            ok = ok and all(np.isfinite(v) and 1 <= v <= 5 for v in table.rows[i])
        keep.append(ok)
    if not any(keep):
        raise EmptyCohortError("cohort filter removed every row")
    return ResponseTable(
        items=table.items,
        rows=table.rows[np.array(keep, dtype=bool)],
        demographics=take(demo, keep),
    )


def same_items(table: ResponseTable, expected: ResponseTable) -> bool:
    """Whether the two parses agree on everything but the demographics: the
    items, every row bit for bit, and the dropped rows and their messages."""
    return (
        table.items == expected.items
        and table.rows.shape == expected.rows.shape
        and np.array_equal(table.rows.view(np.uint64), expected.rows.view(np.uint64))
        and (table.dropped_rows, table.row_errors) == (expected.dropped_rows, expected.row_errors)
    )
