"""Survey response ingestion: parsing, demographics, cohort filtering.

Input files are delimited text (comma or tab, auto-detected from the header
row) with item columns named ``Q1``/``Q01`` ... and optional ``age``,
``gender`` and ``country`` columns.  Item names are canonicalized to the
zero-padded form, and two columns naming the same item are an error.
Unparseable numeric cells become missing values, unusable ages unknown;
ragged rows are dropped and counted.  Country codes map to continental regions
via a bundled ISO-3166 table, demographic codes via a key=value codebook.  A
table holds each row's gender and country as a code into that column's
distinct labels, and a row's region is its country label's region, so a
filter or a count looks each label up once.  A ``ColumnSchema`` field set to
None names a column that is not read at all.

Parsing and writing work per distinct value, not per cell: a survey export
repeats a handful of Likert codes and demographic labels, so each distinct
cell text is converted once per parse and each distinct value formatted once
per written table, whose rows are then assembled from those fields' bytes
with array operations.

The body of an export is tokenized with array operations, in blocks of
``_PARSE_BLOCK`` characters completed to a whole line: field ends are the
delimiters and line feeds of the block, a one-character item cell that is an
ASCII digit is that digit and an empty one NaN, and every other cell goes
through the converters above.  The csv module's quoting and line-ending rules
cannot apply to a body with no double quote, carriage return or NUL; as soon
as a block holds one of those, or when the stream cannot seek back to the end
of the header, the whole body is read by ``csv.reader`` instead.  Both give
the same table, the same dropped-row messages and the same ParseError for a
field over ``csv.field_size_limit()``.

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
from dataclasses import dataclass, field, replace
from operator import itemgetter

import numpy as np

from ._csv import csv_text, load_csv, not_utf8, read_rows, write_text
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
_SERIALIZE_BLOCK = 512  # rows written at a time; bounds the transient cell numbers and
# byte index (about 1.5 MB at 36 items)
_PARSE_BLOCK = 1 << 15  # body characters read at a time, completed to a whole line; bounds
# the transient arrays of one block (about 1 MB)

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


def _bad_gender(label: str) -> str:
    return f"codebook gender label {label!r} is not one of {', '.join(GENDERS)} (in any case)"


def read_codebook(path) -> dict[str, dict[str, str]]:
    """Parse a UTF-8 ``column.raw_value = label`` config file.

    Spaces around the column, the raw value and the label are dropped, so
    ``gender . 1 = male`` is the key ``gender.1``.  A gender label is one of
    ``GENDERS`` in any case and is stored lower-case; any other gender label
    raises ParseError naming its line, and so does a key that repeats an
    earlier line's, naming both lines.
    """
    book: dict[str, dict[str, str]] = {}
    first_line: dict[str, int] = {}  # key -> the line it first appears on
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParseError(not_utf8(path, exc)) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line or "." not in line.split("=", 1)[0]:
            raise ParseError(f"malformed codebook entry {line!r}", line=lineno)
        key, label = line.split("=", 1)
        column, raw_value = (part.strip() for part in key.split(".", 1))
        key = f"{column}.{raw_value}"
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            raise ParseError(f"codebook key {key!r} repeats line {first}", line=lineno)
        label = label.strip()
        if column == "gender":
            if label.lower() not in GENDERS:
                raise ParseError(_bad_gender(label), line=lineno)
            label = label.lower()
        book.setdefault(column, {})[raw_value] = label
    return book


@dataclass(frozen=True)
class ColumnSchema:
    """Names of the demographic columns in a raw export.  A name of None
    means the column is not read: every row then has the unknown age (-1),
    gender ``"unknown"`` or country ``""``, as when the export lacks it."""

    age: str | None = "age"
    gender: str | None = "gender"
    country: str | None = "country"


ITEMS_ONLY = ColumnSchema(age=None, gender=None, country=None)  # what ``fit`` and ``learn`` read


class _Codes(dict):
    """Numbers each distinct label in first-seen order; local to one table."""

    def __missing__(self, label):
        code = self[label] = len(self)
        return code


def _coded(labels) -> tuple[tuple, np.ndarray]:
    """The distinct ``labels`` and each one's code (its position among them)."""
    codes = _Codes()
    per_row = np.fromiter(map(codes.__getitem__, labels), np.int64)
    return tuple(codes), per_row


@dataclass(frozen=True)
class Demographics:
    """Each row's age, and its gender and country as an int64 code into that
    column's distinct labels; a row's region is its country label's region."""

    age: np.ndarray  # int16, -1 = unknown
    gender_labels: tuple[str, ...]
    gender_codes: np.ndarray
    country_labels: tuple[str, ...]
    country_codes: np.ndarray

    @classmethod
    def from_labels(cls, age, gender, country) -> "Demographics":
        """The demographics of rows with these ages, gender labels and country labels."""
        gender_labels, gender_codes = _coded(gender)
        country_labels, country_codes = _coded(country)
        return cls(np.asarray(age, dtype=np.int16), gender_labels, gender_codes,
                   country_labels, country_codes)

    def __len__(self) -> int:
        return len(self.age)

    def __eq__(self, other) -> bool:
        """Same ages and same per-row labels, however the codes number them."""
        if not isinstance(other, Demographics):
            return NotImplemented
        return (
            np.array_equal(self.age, other.age)
            and self.gender == other.gender
            and self.country == other.country
        )

    __hash__ = None

    @property
    def region_labels(self) -> tuple[str, ...]:
        """The region of each country label, so also indexed by ``country_codes``."""
        return tuple(map(map_region, self.country_labels))

    @property
    def gender(self) -> tuple[str, ...]:
        return _decoded(self.gender_labels, self.gender_codes)

    @property
    def country(self) -> tuple[str, ...]:
        return _decoded(self.country_labels, self.country_codes)

    @property
    def region(self) -> tuple[str, ...]:
        return _decoded(self.region_labels, self.country_codes)

    def take(self, mask) -> "Demographics":
        """The rows where ``mask`` is true (nonzero)."""
        mask = np.asarray(mask, dtype=bool)
        return replace(self, age=self.age[mask], gender_codes=self.gender_codes[mask],
                       country_codes=self.country_codes[mask])


def _decoded(labels: tuple, codes: np.ndarray) -> tuple:
    """Each row's label."""
    return tuple(map(labels.__getitem__, codes.tolist()))


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
            and self.demographics == other.demographics
        )

    __hash__ = None


@dataclass(frozen=True)
class CohortFilter:
    age_range: tuple[int, int] | None = None
    genders: frozenset[str] | None = None
    regions: frozenset[str] | None = None
    require_complete: bool = False

    def __post_init__(self):
        """Raises ValidationError on an inverted age range, or on a gender or
        region label that is not one of ``GENDERS`` or ``REGIONS``."""
        if self.age_range is not None:
            lo, hi = self.age_range
            if lo > hi:
                raise ValidationError(f"age range [{lo}, {hi}] has lo > hi")
        for name, known in (("genders", GENDERS), ("regions", REGIONS)):
            labels = getattr(self, name)
            if labels is not None:
                labels = frozenset(labels)
                unknown = sorted(map(repr, labels.difference(known)))
                if unknown:
                    raise ValidationError(
                        f"unknown {name[:-1]} label{'s' if len(unknown) > 1 else ''} "
                        f"{', '.join(unknown)}; expected one of {', '.join(known)}"
                    )
                object.__setattr__(self, name, labels)


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


def _gender_label(gender_map: dict[str, str], cell: str) -> str:
    raw = cell.strip()
    if raw in gender_map:
        return gender_map[raw]
    return raw.lower() if raw.lower() in GENDERS else "unknown"


def _country_label(country_map: dict[str, str], cell: str) -> str:
    country = cell.strip()
    return country_map.get(country, country).upper()


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
    in the int16 range), genders and countries through the codebook to the
    code of their label, and the codebook's gender labels must be ``GENDERS``
    in any case (else ValidationError).  A column the schema names None is
    not converted; which columns are read changes neither the item rows nor
    the dropped rows nor any error.  A body
    with no double quote, carriage return or NUL is tokenized in blocks of
    whole lines; any other, or one in a stream that cannot seek, is read by
    ``csv.reader``, with the same result.  A file opened from a path is
    closed again; a caller's stream is left open.  Bytes that are not UTF-8
    raise ParseError naming the file.
    """
    try:
        fh = _open_text(stream)
        try:
            return _parse_text(fh, schema or ColumnSchema(), codebook)
        finally:
            if isinstance(stream, (str, os.PathLike)):
                fh.close()
            elif isinstance(fh, io.TextIOWrapper) and fh is not stream:
                fh.detach()  # closing or collecting the wrapper would close the caller's stream
    except UnicodeDecodeError as exc:
        raise ParseError(not_utf8(stream, exc)) from None


def _parse_text(fh, schema: ColumnSchema, codebook) -> ResponseTable:
    if codebook is None:
        codebook = default_codebook()
    gender_map = {}
    for raw, label in codebook.get("gender", {}).items():
        if label.lower() not in GENDERS:
            raise ValidationError(_bad_gender(label))
        gender_map[raw] = label.lower()
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

    lower = [h.lower() for h in header]

    def find_col(name: str | None) -> int | None:
        return lower.index(name.lower()) if name is not None and name.lower() in lower else None

    rows = _Rows(
        len(header),
        [item_cols[num] for num in numbers],
        find_col(schema.age),
        find_col(schema.gender),
        find_col(schema.country),
        gender_map,
        country_map,
    )
    try:
        body = fh.tell() if fh.seekable() else None
    except (AttributeError, OSError):  # no tell(), or a text stream the caller iterated
        body = None
    if body is None or not rows.read_blocks(fh, delimiter):
        if body is not None:
            rows.clear()
            fh.seek(body)
        rows.read_csv(fh, delimiter)

    demo = Demographics(
        age=np.frombuffer(rows.ages, dtype=np.int16),
        gender_labels=tuple(rows.gender_labels),
        gender_codes=np.frombuffer(rows.genders, dtype=np.int64),
        country_labels=tuple(rows.country_labels),
        country_codes=np.frombuffer(rows.countries, dtype=np.int64),
    )
    return ResponseTable(
        items=items,
        rows=np.frombuffer(rows.values, dtype=np.float64).reshape(len(rows.ages), len(items)),
        demographics=demo,
        dropped_rows=len(rows.errors),
        row_errors=tuple(rows.errors),
    )


class _Rows:
    """The data rows of one parse: where the wanted cells sit in a row of
    ``width`` fields, their per-call converters, and the columns read so far.
    Gender and country cells are read as codes into ``gender_labels`` and
    ``country_labels``.  A column that is None is not read: each row gets the
    age -1, or the code of ``"unknown"`` or ``""``.

    Two tokenizers fill it.  ``read_blocks`` handles bodies in which no csv
    quoting or line-ending rule can apply; ``read_csv`` is the csv module's
    reader and handles any body.
    """

    def __init__(self, width, item_cols, age_col, gender_col, country_col, gender_map, country_map):
        self.width = width
        self.item_cols = item_cols
        self.age_col, self.gender_col, self.country_col = age_col, gender_col, country_col
        genders = self.gender_labels = _Codes()
        countries = self.country_labels = _Codes()
        self.item_value = _Memo(_item_value).__getitem__
        self.age_value = _Memo(_age_value).__getitem__
        self.gender_value = _Memo(lambda cell: genders[_gender_label(gender_map, cell)]).__getitem__
        self.country_value = _Memo(lambda cell: countries[_country_label(country_map, cell)]).__getitem__
        self.no_gender = genders["unknown"] if gender_col is None else None
        self.no_country = countries[""] if country_col is None else None
        self.clear()

    def clear(self) -> None:
        self.values = array("d")  # item cells, row-major
        self.ages = array("h")
        self.genders = array("q")
        self.countries = array("q")
        self.errors: list[str] = []

    def read_csv(self, fh, delimiter: str) -> None:
        columns = self.item_cols
        # itemgetter of one index returns the cell itself, not a 1-tuple
        item_cells = itemgetter(*columns) if len(columns) > 1 else lambda cells: (cells[columns[0]],)
        age_col, gender_col, country_col = self.age_col, self.gender_col, self.country_col
        item_value, age_value = self.item_value, self.age_value
        gender_value, country_value = self.gender_value, self.country_value
        no_gender, no_country = self.no_gender, self.no_country
        values, ages, genders, countries, errors = (
            self.values, self.ages, self.genders, self.countries, self.errors
        )
        width = self.width

        reader = csv.reader(fh, delimiter=delimiter)
        try:
            for lineno, cells in enumerate(reader, start=2):
                if not cells:
                    continue
                if len(cells) != width:
                    errors.append(f"line {lineno}: expected {width} fields, got {len(cells)}")
                    continue
                values.extend(map(item_value, item_cells(cells)))
                ages.append(-1 if age_col is None else age_value(cells[age_col]))
                genders.append(no_gender if gender_col is None else gender_value(cells[gender_col]))
                countries.append(no_country if country_col is None else country_value(cells[country_col]))
        except csv.Error as exc:  # an over-long field, a bare "\r" in an unquoted one, or a NUL
            raise ParseError(str(exc), line=reader.line_num + 1) from None

    def read_blocks(self, fh, delimiter: str) -> bool:
        """Tokenize the body in blocks of whole lines with array operations.

        Returns False, having kept nothing, as soon as a block holds a quote,
        a carriage return or a NUL: only the csv module's reader parses those.
        """
        limit = csv.field_size_limit()  # read per call, as the csv module does
        lineno = 2
        while block := fh.read(_PARSE_BLOCK):
            if block[-1] != "\n":
                block += fh.readline()
                if block[-1] != "\n":  # the last line has no line end
                    block += "\n"
            if '"' in block or "\r" in block or "\0" in block:
                return False
            lineno = self._read_block(block, ord(delimiter), limit, lineno)
        return True

    def _read_block(self, block: str, delimiter: int, limit: int, lineno: int) -> int:
        """Append the rows of ``block``, whose first line is ``lineno``, and
        return the number of the line after it."""
        # one element per character, so that offsets index ``block`` itself
        if block.isascii():
            text = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
        else:
            text = np.frombuffer(block.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        ends = np.flatnonzero((text == delimiter) | (text == 10))  # the character after each field
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        lengths = ends - starts
        last = np.flatnonzero(text[ends] == 10)  # each line's last field
        fields = np.diff(last, prepend=-1)

        over = np.flatnonzero(lengths > max(limit, 0))  # a negative limit still passes empty fields
        if over.size:
            line = lineno + int(np.searchsorted(last, over[0]))
            raise ParseError(f"field larger than field limit ({limit})", line=line)

        blank = (fields == 1) & (lengths[last] == 0)
        full = fields == self.width
        for k in np.flatnonzero(~full & ~blank).tolist():
            self.errors.append(f"line {lineno + k}: expected {self.width} fields, got {fields[k]}")
        first = last[full & ~blank] - (self.width - 1)  # first field of each kept row

        cells = first[:, None] + np.array(self.item_cols)
        cell_starts, cell_lengths = starts[cells], lengths[cells]
        lead = text[cell_starts]  # a cell's first character, or the delimiter after an empty one
        digit = (cell_lengths == 1) & (lead >= 48) & (lead <= 57)
        values = np.where(cell_lengths == 0, np.nan, lead - 48.0)
        slow = np.flatnonzero(~digit & (cell_lengths != 0))
        if slow.size:
            flat = values.reshape(-1)
            item_value = self.item_value
            for k, a, n in zip(
                slow.tolist(), cell_starts.flat[slow].tolist(), cell_lengths.flat[slow].tolist()
            ):
                flat[k] = item_value(block[a : a + n])
        self.values.frombytes(values.tobytes())

        def column(col, convert, missing, out):
            if col is None:
                values = np.full(first.size, missing, dtype=out.typecode)
            else:
                spans = zip(starts[first + col].tolist(), ends[first + col].tolist())
                cells = [block[a:b] for a, b in spans]
                values = np.fromiter(map(convert, cells), out.typecode, count=len(cells))
            out.frombytes(values.tobytes())

        column(self.age_col, self.age_value, -1, self.ages)
        column(self.gender_col, self.gender_value, self.no_gender, self.genders)
        column(self.country_col, self.country_value, self.no_country, self.countries)
        return lineno + last.size


def _csv_fields(values) -> list[str]:
    """Each value's text as a field of a ``csv.writer`` row (not the only
    field of its row, which the csv module would quote when empty)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    fields = []
    for value in values:
        writer.writerow((value, ""))
        fields.append(out.getvalue()[:-2])  # less the "," and "\n" of the empty second field
        out.seek(0)
        out.truncate()
    return fields


_NAN_CODE = 10  # item codes 0-9 are the whole numbers 0-9, 10 every NaN; other values follow


def serialize_responses(table: ResponseTable, buf=None) -> str:
    """Canonical CSV form: zero-padded item columns, then age,gender,country,
    also written to ``buf`` (a path or a text stream) if one is given.

    Each distinct cell value is formatted once per call, into the field text
    ``csv.writer`` gives it: item values by bit pattern (a whole number 0-9
    by its digit, every NaN as one empty field), ages by value, genders and
    countries by label.  The UTF-8 bytes of those fields, each with its
    separator, form one pool.  Each block of ``_SERIALIZE_BLOCK`` rows numbers its cells,
    gathers their bytes from the pool in one array pass and decodes them, so
    only one block's cell numbers and bytes exist at a time.
    """
    header = csv_text(list(table.items) + ["age", "gender", "country"], ())
    text = "".join([header, *_serialized_rows(table)])
    if buf is not None:
        write_text(buf, text)
    return text


class _Pool:
    """Field bytes, each field's length and its first byte in ``data``."""

    def __init__(self, fields: list[bytes]):
        self.data = np.frombuffer(b"".join(fields), dtype=np.uint8)
        self.lengths = np.fromiter(map(len, fields), np.intp, count=len(fields))
        self.firsts = np.cumsum(self.lengths) - self.lengths

    def gather(self, cells: np.ndarray) -> np.ndarray:
        """The bytes of ``cells`` (field numbers), one after the other."""
        lengths = self.lengths[cells]
        ends = np.cumsum(lengths)
        # byte k of the result is pool byte k + (the cell's first pool byte - its first byte here)
        shift = self.firsts[cells]
        shift -= ends
        shift += lengths
        index = np.repeat(shift, lengths)
        index += np.arange(index.size)
        return self.data[index]


def _serialized_rows(table: ResponseTable):
    """The CSV lines of ``table``'s rows, one string per block of rows."""
    demo = table.demographics
    m = len(table.items)
    ages, age_number = np.unique(demo.age, return_inverse=True)

    # item fields 0-9 and NaN, then every age, gender label and country label
    # field; the ``{value:g}`` text of a number never needs quoting
    texts = [f"{k}," for k in range(10)] + [","]
    firsts = [len(texts)]  # the pool number of each demographic column's first field
    texts += [f + "," for f in _csv_fields("" if a < 0 else str(a) for a in ages.tolist())]
    firsts.append(len(texts))
    texts += [f + "," for f in _csv_fields(demo.gender_labels)]
    firsts.append(len(texts))
    texts += [f + "\n" for f in _csv_fields(demo.country_labels)]
    fields = [t.encode("utf-8", "surrogatepass") for t in texts]  # a lone surrogate survives
    pool = _Pool(fields)
    rare: dict[int, bytes] = {}  # the item field of any other value, by bit pattern

    for start in range(0, table.n, _SERIALIZE_BLOCK):
        stop = min(start + _SERIALIZE_BLOCK, table.n)
        values = np.ascontiguousarray(table.rows[start:stop], dtype=np.float64)
        bits = values.view(np.uint64)
        with np.errstate(invalid="ignore"):  # NaN, infinities and out-of-range values cast to junk
            digit = values.astype(np.uint8)
        cells = np.empty((stop - start, m + 3), dtype=np.intp)
        items = cells[:, :m]
        items[...] = digit
        # a value is the whole number 0-9 of its cast exactly when their bits agree (so not
        # -0.0, NaN, 0.5 or 256.0, which casts to 0) and the cast is at most 9
        other = (digit.astype(np.float64).view(np.uint64) != bits) | (digit > 9)
        block_pool = pool
        if other.any():
            nan = np.isnan(values)
            items[nan] = _NAN_CODE
            other &= ~nan
            keys, inverse = np.unique(bits[other], return_inverse=True)
            items[other] = len(fields) + inverse
            for key, value in zip(keys.tolist(), keys.view(np.float64).tolist()):
                if key not in rare:
                    rare[key] = f"{value:g},".encode()
            block_pool = _Pool(fields + [rare[key] for key in keys.tolist()])
        cells[:, m] = age_number[start:stop]
        cells[:, m + 1] = demo.gender_codes[start:stop]
        cells[:, m + 2] = demo.country_codes[start:stop]
        cells[:, m:] += firsts
        yield str(block_pool.gather(cells.reshape(-1)).data, "utf-8", "surrogatepass")


def filter_cohort(table: ResponseTable, f: CohortFilter) -> ResponseTable:
    """Rows satisfying every filter criterion; raises on an empty result."""
    demo = table.demographics
    mask = np.ones(table.n, dtype=bool)
    if f.age_range is not None:
        lo, hi = f.age_range
        mask &= (demo.age >= lo) & (demo.age <= hi)
    if f.genders is not None:
        mask &= np.fromiter(map(f.genders.__contains__, demo.gender_labels), bool)[demo.gender_codes]
    if f.regions is not None:
        mask &= np.fromiter(map(f.regions.__contains__, demo.region_labels), bool)[demo.country_codes]
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
    for counts, labels, codes in (
        (region, demo.region_labels, demo.country_codes),
        (gender, demo.gender_labels, demo.gender_codes),
    ):
        for label, count in zip(labels, np.bincount(codes, minlength=len(labels)).tolist()):
            if count:
                counts[label] += count
    age = demo.age
    age_band = {f"{lo}-{hi}": int(np.count_nonzero((age >= lo) & (age <= hi))) for lo, hi in AGE_BANDS}
    age_band["other"] = table.n - sum(age_band.values())
    return DemographicReport(n=table.n, region=region, gender=gender, age_band=age_band)
