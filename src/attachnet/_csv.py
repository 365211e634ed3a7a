"""The one CSV writer behind every report (``\\n`` line ends, minimal
quoting) and the reader behind every CSV input with named columns."""
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


def read_rows(buf, columns) -> list[dict]:
    """The rows of a CSV file as dicts; ValidationError names the first of
    ``columns`` missing from its header."""
    reader = csv.DictReader(buf)
    header = reader.fieldnames or ()
    for column in columns:
        if column not in header:
            raise ValidationError(f"no {column} column")
    return list(reader)


def load_csv(path, load, *args):
    """``load(file, *args)`` on the CSV file at ``path``, with the path put in
    front of any ValidationError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return load(fh, *args)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
