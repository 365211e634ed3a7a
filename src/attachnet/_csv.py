"""The one CSV writer behind every report (``\\n`` line ends, minimal
quoting) and the reader behind every CSV input with named columns.  Every
row error reads ``<file>: row N: ...``, N counting the non-blank data rows
from 1, and every input that is not UTF-8 ``<file>: not UTF-8 text ...``."""
from __future__ import annotations

import csv
import io
import math
import os

from .errors import ValidationError


def csv_text(header, rows) -> str:
    """``header`` then each of ``rows`` as CSV text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def read_rows(buf, columns=(), key=None) -> list[dict]:
    """The rows of a CSV file as dicts, blank lines skipped; ValidationError
    names the first of ``columns`` missing from the header, the first row
    whose cell count differs from the header's, or, given ``key`` (one of
    ``columns``), the first row whose ``key`` cell repeats an earlier row's."""
    reader = csv.reader(buf)
    header = next(reader, [])
    for column in columns:
        if column not in header:
            raise ValidationError(f"no {column} column")
    rows = []
    first_row: dict[str, int] = {}  # key cell -> the row it first appears in
    for cells in reader:
        if not cells:
            continue
        row = len(rows) + 1
        if len(cells) != len(header):
            raise ValidationError(f"row {row}: expected {len(header)} fields, got {len(cells)}")
        record = dict(zip(header, cells))
        if key is not None:
            first = first_row.setdefault(record[key], row)
            if first != row:
                raise ValidationError(f"row {row}: {key} {record[key]!r} repeats row {first}")
        rows.append(record)
    return rows


def number(text: str, row: int) -> float:
    """``float(text)``; ValidationError names ``row`` if that fails or gives
    nan or an infinity (``params.read_model`` holds model JSON numbers to the
    same rule)."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"row {row}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"row {row}: {text!r} is not a finite number")
    return value


def load_csv(path, load, *args):
    """``load(file, *args)`` on the CSV file at ``path``, with the path put in
    front of any ValidationError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return load(fh, *args)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(not_utf8(path, exc)) from None


def not_utf8(source, exc: UnicodeDecodeError) -> str:
    """The message for ``source``, a path or a stream, failing to decode as
    UTF-8: a stream is named by its ``name``, if it has one.  The offset of
    the bad byte is left out: a text stream reports it within one buffered
    chunk, not within the file."""
    name = source if isinstance(source, (str, os.PathLike)) else getattr(source, "name", "input")
    return f"{name}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
