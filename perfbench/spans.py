"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, run id) plus the number of mesh cells
the wrapped call processed.  Spans stay in memory until :func:`dump`
writes them out at the end of the run.  A disabled tracer records nothing,
which gives the untraced pass that the tracing overhead is measured against.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# Empty spans timed to calibrate the cost of one recorded span.
CALIBRATION_SPANS = 5000


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    cells: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; nesting follows the ``with`` blocks that open them."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, cells: int = 0):
        """Time the ``with`` body; yields the Span, or None when disabled."""
        if not self.enabled:
            yield None
            return
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else None, self.run_id, cells)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration less its children's."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
            if span.parent is not None:
                parent = self.spans[span.parent].name
                totals[parent] = totals.get(parent, 0.0) - span.duration
        return totals

    def cells(self) -> dict[str, int]:
        """Cells processed per span name."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + span.cells
        return counts

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]



def dump(tracers: list[Tracer], path: Path) -> None:
    """Write the spans of every tracer; span ids and parents are per run id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [asdict(span) for tracer in tracers for span in tracer.spans]
    path.write_text(json.dumps(spans, indent=1) + "\n")


def span_overhead() -> float:
    """Seconds one recorded span costs over a disabled one, on this machine."""
    cost = []
    for enabled in (True, False):
        tracer = Tracer("calibration", enabled)
        start = time.perf_counter()
        for _ in range(CALIBRATION_SPANS):
            with tracer.span("empty"):
                pass
        cost.append((time.perf_counter() - start) / CALIBRATION_SPANS)
    return cost[0] - cost[1]
