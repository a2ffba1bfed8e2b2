"""Spans around the benchmark's calls into each tricklesim layer.

A span is (name, start, end, parent); spans live in memory and are written
out once, when the run ends.  A span's self time is its duration minus the
time its child spans cover.  Untraced runs use ``NULL``, whose spans cost
one attribute lookup and record nothing.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total (inclusive) time and self time."""
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "self": own}
            for (n, s, e, p), own in zip(self.spans, self.self_times())
        ]
        with open(path, "w") as f:
            json.dump({"summary": self.summary(), "spans": spans}, f)


class _NullTracer:
    def span(self, name: str):
        return nullcontext()


NULL = _NullTracer()


@contextmanager
def rebound(tracer: Tracer, counters: dict):
    """Time the two layers reached only from inside other layers by
    rebinding their public names where the callers look them up:
    ``quadrature.quad`` (in analytics and residual) and ``csvio.write_csv``
    (in cli).  The write wrapper also counts rows and bytes."""
    from tricklesim import analytics, cli, residual

    quad, write_csv = analytics.quad, cli.write_csv

    def counted_write(path, header, rows, comment=None):
        def counting(rows):
            for row in rows:
                counters["rows"] += 1
                yield row

        with tracer.span("csvio.write_csv"):
            write_csv(path, header, counting(rows), comment)
        counters["bytes"] += os.path.getsize(path)

    traced_quad = tracer.wrap("quadrature.quad", quad)
    analytics.quad = residual.quad = traced_quad
    cli.write_csv = counted_write
    try:
        yield
    finally:
        analytics.quad = residual.quad = quad
        cli.write_csv = write_csv
