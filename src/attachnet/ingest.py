"""Survey response ingestion: parsing, demographics, cohort filtering.

Input files are delimited text (comma or tab, auto-detected from the header
row) with item columns named ``Q1``/``Q01`` ... and optional ``age``,
``gender`` and ``country`` columns.  Item names are canonicalized to the
zero-padded form, and two columns naming the same item are an error.
Unparseable numeric cells become missing values, unusable ages unknown;
ragged rows are dropped and counted.  Country codes map to continental regions
via a bundled ISO-3166 table, demographic codes via a key=value codebook.

Parsing and writing work per distinct value, not per cell: a survey export
repeats a handful of Likert codes and demographic labels, so each distinct
cell text is converted once per parse and each distinct value formatted once
per written block of rows.

Typical flow::

    table = parse_responses("data.csv")
    cohort = filter_cohort(table, standard_filter())
    report = demographic_summary(cohort)
"""
from __future__ import annotations

import csv
import io
import math
import os
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ._csv import csv_text, load_csv, read_rows
from .errors import EmptyCohortError, ParseError, ValidationError

GENDERS = ("female", "male", "other", "unknown")
REGIONS = (
    "Africa",
    "NorthAmerica",
    "SouthAmerica",
    "Asia",
    "Europe",
    "Oceania",
    "Unknown",
)

AGE_BANDS = ((18, 20), (21, 30), (31, 40), (41, 60))

_ITEM_RE = re.compile(r"^[Qq]0*([1-9][0-9]*)$")

_AGE_MIN, _AGE_MAX = np.iinfo(np.int16).min, np.iinfo(np.int16).max
_SERIALIZE_BLOCK = 512  # rows formatted at a time; bounds the transient cell strings

_region_table: dict[str, str] | None = None


def _load_region_table() -> dict[str, str]:
    global _region_table
    if _region_table is None:
        from .fixtures import data_path

        rows = load_csv(data_path("country_continents.csv"), read_rows, ("code", "region"))
        _region_table = {row["code"]: row["region"] for row in rows}
    return _region_table


def map_region(country_code: str) -> str:
    """Continental region for a 2-letter country code; total function."""
    if not country_code:
        return "Unknown"
    return _load_region_table().get(country_code.strip().upper(), "Unknown")


def default_codebook() -> dict[str, dict[str, str]]:
    from .fixtures import data_path

    return read_codebook(data_path("codebook_default.cfg"))


def read_codebook(path) -> dict[str, dict[str, str]]:
    """Parse a ``column.raw_value = label`` config file."""
    book: dict[str, dict[str, str]] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line or "." not in line.split("=", 1)[0]:
                raise ParseError(f"malformed codebook entry {line!r}", line=lineno)
            key, label = (part.strip() for part in line.split("=", 1))
            column, raw_value = key.split(".", 1)
            book.setdefault(column, {})[raw_value] = label
    return book


@dataclass(frozen=True)
class ColumnSchema:
    """Names of the demographic columns in a raw export."""

    age: str = "age"
    gender: str = "gender"
    country: str = "country"


@dataclass(frozen=True)
class Demographics:
    age: np.ndarray  # int16, -1 = unknown
    gender: tuple[str, ...]
    country: tuple[str, ...]
    region: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.gender)

    def take(self, mask) -> "Demographics":
        idx = np.flatnonzero(mask)
        return Demographics(
            age=self.age[idx],
            gender=tuple(self.gender[i] for i in idx),
            country=tuple(self.country[i] for i in idx),
            region=tuple(self.region[i] for i in idx),
        )


@dataclass(frozen=True)
class ResponseTable:
    items: tuple[str, ...]
    rows: np.ndarray  # float64 (n, m); NaN marks a missing response
    demographics: Demographics
    dropped_rows: int = 0
    row_errors: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResponseTable):
            return NotImplemented
        return (
            self.items == other.items
            and self.rows.shape == other.rows.shape
            and np.array_equal(self.rows, other.rows, equal_nan=True)
            and np.array_equal(self.demographics.age, other.demographics.age)
            and self.demographics.gender == other.demographics.gender
            and self.demographics.country == other.demographics.country
        )

    __hash__ = None


@dataclass(frozen=True)
class CohortFilter:
    age_range: tuple[int, int] | None = None
    genders: frozenset[str] | None = None
    regions: frozenset[str] | None = None
    require_complete: bool = False

    def __post_init__(self):
        if self.age_range is not None:
            lo, hi = self.age_range
            if lo > hi:
                raise ValidationError(f"age range [{lo}, {hi}] has lo > hi")
        if self.genders is not None:
            object.__setattr__(self, "genders", frozenset(self.genders))
        if self.regions is not None:
            object.__setattr__(self, "regions", frozenset(self.regions))


def standard_filter() -> CohortFilter:
    """The cohort used throughout the reference analysis: ages 18-60,
    reported female/male gender, complete in-range responses."""
    return CohortFilter(
        age_range=(18, 60),
        genders=frozenset({"female", "male"}),
        regions=None,
        require_complete=True,
    )


@dataclass(frozen=True)
class DemographicReport:
    n: int
    region: dict[str, int] = field(default_factory=dict)
    gender: dict[str, int] = field(default_factory=dict)
    age_band: dict[str, int] = field(default_factory=dict)

    def merged_america(self) -> dict[str, int]:
        """Region counts with the Americas collapsed into one group."""
        merged: dict[str, int] = {}
        for region, count in self.region.items():
            key = "America" if region in ("NorthAmerica", "SouthAmerica") else region
            merged[key] = merged.get(key, 0) + count
        return merged


def _open_text(stream):
    if isinstance(stream, (str, os.PathLike)):
        return open(stream, "r", encoding="utf-8", newline="")
    if isinstance(stream, bytes):
        return io.StringIO(stream.decode("utf-8"))
    if not hasattr(stream, "read"):
        raise ValidationError(f"cannot read from {type(stream).__name__}")
    probe = stream.read(0)
    if isinstance(probe, bytes):
        return io.TextIOWrapper(stream, encoding="utf-8")
    return stream


class _Memo(dict):
    """Maps each distinct key through ``convert`` once; local to one call."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


def _item_value(cell: str) -> float:
    try:
        return float(cell.strip())
    except ValueError:
        return np.nan


def _age_value(cell: str) -> int:
    """Whole years, or -1 (unknown) for text that is not a finite number in
    the int16 range of ``Demographics.age``."""
    try:
        age = float(cell)
    except ValueError:
        return -1
    if not math.isfinite(age) or not _AGE_MIN <= int(age) <= _AGE_MAX:
        return -1
    return int(age)


def parse_responses(stream, schema: ColumnSchema | None = None, codebook=None) -> ResponseTable:
    """Parse a delimited survey export into a ResponseTable.

    Raises ParseError when the header has no item columns or names one item
    twice (``Q1`` and ``Q01``), and when the csv module refuses a line (a
    field over its size limit, or, in text or bytes input, a bare carriage
    return inside an unquoted field); ragged rows are dropped, counted in
    ``dropped_rows`` and described in ``row_errors``.  Each distinct cell text
    is converted once per call: item cells by ``float(cell.strip())`` (NaN if
    that fails), ages by truncation to whole years (-1 if not a finite number
    in the int16 range), genders and countries through the codebook.  A file
    opened from a path is closed again; a caller's stream is left open.
    """
    fh = _open_text(stream)
    try:
        return _parse_text(fh, schema or ColumnSchema(), codebook)
    finally:
        if isinstance(stream, (str, os.PathLike)):
            fh.close()
        elif isinstance(fh, io.TextIOWrapper) and fh is not stream:
            fh.detach()  # closing or collecting the wrapper would close the caller's stream


def _parse_text(fh, schema: ColumnSchema, codebook) -> ResponseTable:
    if codebook is None:
        codebook = default_codebook()
    gender_map = codebook.get("gender", {})
    country_map = codebook.get("country", {})

    header_line = fh.readline()
    if not header_line:
        raise ParseError("empty input", line=1)
    delimiter = "\t" if "\t" in header_line else ","
    try:
        header = next(csv.reader([header_line], delimiter=delimiter))
    except csv.Error as exc:
        raise ParseError(str(exc), line=1) from None
    header = [h.strip() for h in header]

    item_cols: dict[int, int] = {}  # item number -> column
    for i, name in enumerate(header):
        match = _ITEM_RE.match(name)
        if match:
            num = int(match.group(1))
            if num in item_cols:
                raise ParseError(
                    f"columns {header[item_cols[num]]!r} and {name!r} both name item Q{num:02d}",
                    line=1,
                )
            item_cols[num] = i
    if not item_cols:
        raise ParseError("header contains no item columns (Q1... or Q01...)", line=1)
    numbers = sorted(item_cols)
    items = tuple(f"Q{num:02d}" for num in numbers)
    columns = [item_cols[num] for num in numbers]
    # itemgetter of one index returns the cell itself, not a 1-tuple
    item_cells = itemgetter(*columns) if len(columns) > 1 else lambda cells: (cells[columns[0]],)

    lower = [h.lower() for h in header]

    def find_col(name: str) -> int | None:
        return lower.index(name.lower()) if name.lower() in lower else None

    age_col = find_col(schema.age)
    gender_col = find_col(schema.gender)
    country_col = find_col(schema.country)

    def gender_of(cell: str) -> str:
        raw = cell.strip()
        if raw in gender_map:
            return gender_map[raw]
        return raw.lower() if raw.lower() in GENDERS else "unknown"

    def country_of(cell: str) -> str:
        country = cell.strip()
        return country_map.get(country, country).upper()

    item_value = _Memo(_item_value).__getitem__
    age_value = _Memo(_age_value).__getitem__
    gender_value = _Memo(gender_of).__getitem__
    country_value = _Memo(country_of).__getitem__

    values = array("d")  # item cells, row-major
    ages: list[int] = []
    genders: list[str] = []
    countries: list[str] = []
    errors: list[str] = []

    reader = csv.reader(fh, delimiter=delimiter)
    try:
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                errors.append(f"line {lineno}: expected {len(header)} fields, got {len(cells)}")
                continue
            values.extend(map(item_value, item_cells(cells)))
            ages.append(-1 if age_col is None else age_value(cells[age_col]))
            genders.append("unknown" if gender_col is None else gender_value(cells[gender_col]))
            countries.append("" if country_col is None else country_value(cells[country_col]))
    except csv.Error as exc:  # an over-long field, or a bare "\r" in an unquoted one
        raise ParseError(str(exc), line=reader.line_num + 1) from None

    demo = Demographics(
        age=np.array(ages, dtype=np.int16),
        gender=tuple(genders),
        country=tuple(countries),
        region=tuple(map(_Memo(map_region).__getitem__, countries)),
    )
    return ResponseTable(
        items=items,
        rows=np.frombuffer(values, dtype=np.float64).reshape(len(ages), len(items)),
        demographics=demo,
        dropped_rows=len(errors),
        row_errors=tuple(errors),
    )


def _format_bits(bits: np.ndarray) -> np.ndarray:
    """``f"{value:g}"`` per float64 bit pattern; "" for NaN, "-0" for -0.0."""
    return np.array(
        ["" if np.isnan(value) else f"{value:g}" for value in bits.view(np.float64).tolist()],
        dtype=object,
    )


def serialize_responses(table: ResponseTable, buf=None) -> str:
    """Canonical CSV form: zero-padded item columns, then age,gender,country.

    Works block by block of ``_SERIALIZE_BLOCK`` rows: every distinct item
    value of a block is formatted once (keyed on its bit pattern) and
    gathered into place, so only one block's cell strings exist at a time.
    """
    demo = table.demographics
    m = len(table.items)
    ages, age_index = np.unique(demo.age, return_inverse=True)
    age_text = np.array(["" if a < 0 else str(a) for a in ages.tolist()], dtype=object)[age_index]

    def rows():
        for start in range(0, table.n, _SERIALIZE_BLOCK):
            stop = min(start + _SERIALIZE_BLOCK, table.n)
            bits = np.ascontiguousarray(table.rows[start:stop], dtype=np.float64).view(np.uint64)
            distinct, index = np.unique(bits.ravel(), return_inverse=True)
            cells = np.empty((stop - start, m + 3), dtype=object)
            cells[:, :m] = _format_bits(distinct)[index.reshape(stop - start, m)]
            cells[:, m] = age_text[start:stop]
            cells[:, m + 1] = demo.gender[start:stop]
            cells[:, m + 2] = demo.country[start:stop]
            yield from cells.tolist()

    text = csv_text(list(table.items) + ["age", "gender", "country"], rows())
    if buf is not None:
        if isinstance(buf, str):
            with open(buf, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            buf.write(text)
    return text


def filter_cohort(table: ResponseTable, f: CohortFilter) -> ResponseTable:
    """Rows satisfying every filter criterion; raises on an empty result."""
    demo = table.demographics
    mask = np.ones(table.n, dtype=bool)
    if f.age_range is not None:
        lo, hi = f.age_range
        mask &= (demo.age >= lo) & (demo.age <= hi)
    if f.genders is not None:
        mask &= np.array([g in f.genders for g in demo.gender])
    if f.regions is not None:
        mask &= np.array([r in f.regions for r in demo.region])
    if f.require_complete:
        in_range = np.isfinite(table.rows) & (table.rows >= 1) & (table.rows <= 5)
        mask &= in_range.all(axis=1)
    if not mask.any():
        message = "cohort filter removed every row"
        if f.require_complete:
            unanswered = [i for i, ok in zip(table.items, in_range.any(axis=0)) if not ok]
            if unanswered:
                message += f"; no answer in 1-5 for {', '.join(unanswered)}"
        raise EmptyCohortError(message)
    return ResponseTable(
        items=table.items,
        rows=table.rows[mask],
        demographics=demo.take(mask),
        dropped_rows=0,
        row_errors=(),
    )


def demographic_summary(table: ResponseTable) -> DemographicReport:
    """Counts per region, gender and age band; each dimension sums to n."""
    region = {r: 0 for r in REGIONS}
    gender = {g: 0 for g in GENDERS}
    demo = table.demographics
    for counts, labels in ((region, demo.region), (gender, demo.gender)):
        for label, count in Counter(labels).items():
            counts[label] += count
    age = demo.age
    age_band = {f"{lo}-{hi}": int(np.count_nonzero((age >= lo) & (age <= hi))) for lo, hi in AGE_BANDS}
    age_band["other"] = table.n - sum(age_band.values())
    return DemographicReport(n=table.n, region=region, gender=gender, age_band=age_band)
