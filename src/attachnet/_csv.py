"""The one CSV writer behind every report: ``\\n`` line ends, minimal quoting."""
from __future__ import annotations

import csv
import io


def csv_text(header, rows) -> str:
    """``header`` then each of ``rows`` as CSV text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()
