"""The one CSV writer behind every report (``\\n`` line ends, minimal
quoting) and the reader behind every CSV input with named columns.  Every
row error reads ``<file>: row N: ...``, N counting the non-blank data rows
from 1."""
from __future__ import annotations

import csv
import io

from .errors import ValidationError


def csv_text(header, rows) -> str:
    """``header`` then each of ``rows`` as CSV text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def read_rows(buf, columns=()) -> list[dict]:
    """The rows of a CSV file as dicts, blank lines skipped; ValidationError
    names the first of ``columns`` missing from the header, or the first row
    whose cell count differs from the header's."""
    reader = csv.reader(buf)
    header = next(reader, [])
    for column in columns:
        if column not in header:
            raise ValidationError(f"no {column} column")
    rows = []
    for cells in reader:
        if not cells:
            continue
        if len(cells) != len(header):
            raise ValidationError(
                f"row {len(rows) + 1}: expected {len(header)} fields, got {len(cells)}"
            )
        rows.append(dict(zip(header, cells)))
    return rows


def number(text: str, row: int) -> float:
    """``float(text)``; ValidationError names ``row`` if that fails."""
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"row {row}: {text!r} is not a number") from None


def load_csv(path, load, *args):
    """``load(file, *args)`` on the CSV file at ``path``, with the path put in
    front of any ValidationError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return load(fh, *args)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
