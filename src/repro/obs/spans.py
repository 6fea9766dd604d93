"""Timing spans: host-clock durations of runtime operations.

A span measures how long a runtime operation takes on the *host* clock
(``time.perf_counter``): prediction passes, choice resolutions,
checkpoint broadcasts and scored policy rounds.  A span is opened and
closed inside one event handler, so the simulated clock never moves
while it is open; a span records host time only.

Spans are created through :meth:`repro.obs.MetricsRegistry.span`.

Usage::

    with registry.span("runtime.predict", node=3):
        report = predictor.predict(world)
"""

from __future__ import annotations

import time
from typing import Any, Dict, Tuple


class SpanStats:
    """Accumulated measurements for one ``(name, labels)`` span key."""

    __slots__ = ("name", "labels", "count", "total_s", "min_s", "max_s")

    def __init__(self, name: str, labels: Tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def record(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else None,
            "max_s": self.max_s,
        }

    def __repr__(self) -> str:
        return f"SpanStats({self.name} count={self.count}, total={self.total_s:.6g}s)"


class Span:
    """One live measurement; use as a context manager."""

    __slots__ = ("_stats", "_t0")

    def __init__(self, stats: SpanStats) -> None:
        self._stats = stats
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stats.record(time.perf_counter() - self._t0)
        return False


__all__ = ["Span", "SpanStats"]
