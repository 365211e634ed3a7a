"""In-memory spans around the benchmark's own calls into attachnet.

A span records its name, start, end, parent span and a request id (an
operation number, a replicate index or an item pair).  Spans stay in memory
and are written out once, when the run ends.  ``NULL`` has the same interface
and records nothing, so traced and untraced passes run the same code.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request=None):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "request": request,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, request=None) -> list[float]:
        """Durations of the spans called ``name`` (and with ``request``, if given)."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (request is None or s["request"] == request)
        ]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, default=str)


class _Null:
    def span(self, name, request=None):
        return nullcontext()


NULL = _Null()
