"""Span recorder for traced benchmark runs.

The benchmark routes every call into a library layer through
:meth:`Recorder.call`. With tracing off that is a plain call; with tracing
on it records a span (name, start, end, parent, op id) in memory. Spans are
only ever opened from the benchmark's own files, around public library
calls, so a span's self time is its duration minus the spans it encloses.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class Recorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self.counts: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float):
        """Record one observation of a per-op count (traced runs only)."""
        if self.enabled:
            self.counts[name].append(float(value))


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_seconds(spans: List[dict]) -> Dict[str, float]:
    """Median self time per call, keyed by span name."""
    own = self_times(spans)
    by_name: Dict[str, List[float]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(own[s["id"]])
    return {name: statistics.median(v) for name, v in by_name.items()}
