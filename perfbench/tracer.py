"""In-memory spans around the benchmark's calls into volkit's layers.

A span has a name ``<layer>.<call>``, start and end (``perf_counter``
seconds), the id of its parent span, the id of the operation it belongs to,
and optional counts recorded at the same boundary.  Spans are kept in a
list and written out once, when the run ends.  ``NullTracer`` has the same
interface and records nothing; untraced runs use it so that timing code is
identical in both modes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

ROOT_LAYER = "bench"


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op_id: str | None = None

    @contextmanager
    def op(self, op_id: str, name: str):
        """Root span of one operation; spans opened inside carry ``op_id``."""
        self._op_id = op_id
        try:
            with self.span(f"{ROOT_LAYER}.{name}") as root:
                yield root
        finally:
            self._op_id = None

    @contextmanager
    def span(self, name: str, **counts):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "op": self._op_id, "counts": dict(counts)}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span["counts"]
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def self_times(self) -> dict[str, float]:
        """Total self time per layer over spans that belong to operations.

        Self time is a span's duration minus the part its child spans cover;
        children never overlap here, so the covered part is their sum.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["op"] is None:
                continue
            layer = s["name"].split(".", 1)[0]
            out[layer] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(out)

    @staticmethod
    def span_cost_s(n: int = 20000) -> float:
        """Measured cost of recording one span, for the overhead estimate."""
        probe = Tracer()
        t0 = time.perf_counter()
        with probe.op("calibration", "calibration"):
            for _ in range(n):
                with probe.span("calibration.noop"):
                    pass
        return (time.perf_counter() - t0) / (n + 1)


class NullTracer:
    enabled = False

    @contextmanager
    def op(self, op_id: str, name: str):
        yield {}

    def span(self, name: str, **counts):
        return nullcontext({})
