"""Timing spans: host-clock durations correlated with simulated time.

A span measures how long a runtime operation takes on the *host* clock
(``time.perf_counter``) — prediction passes, choice resolutions,
checkpoint broadcasts, chaos interposition — while optionally sampling
the *simulated* clock at entry and exit so a report can say "this node
spent 1.8 host-seconds predicting across 12 passes between t=0 and
t=30 sim-seconds".

Spans are created through :meth:`repro.obs.MetricsRegistry.span`; a
disabled registry hands back the shared :data:`NULL_SPAN`, whose enter
and exit never touch the clock — the whole span layer costs one
attribute check when observability is off.

Usage::

    with registry.span("runtime.predict", clock=lambda: sim.now, node=3):
        report = predictor.predict(world)
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Tuple


class SpanStats:
    """Accumulated measurements for one ``(name, labels)`` span key."""

    __slots__ = ("name", "labels", "count", "total_s", "min_s", "max_s",
                 "last_s", "first_sim", "last_sim", "total_sim_s")

    def __init__(self, name: str, labels: Tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self.last_s = 0.0
        self.first_sim: Optional[float] = None
        self.last_sim: Optional[float] = None
        self.total_sim_s = 0.0

    def record(self, elapsed_s: float, sim_enter: Optional[float],
               sim_exit: Optional[float]) -> None:
        self.count += 1
        self.total_s += elapsed_s
        self.last_s = elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s
        if sim_enter is not None:
            if self.first_sim is None:
                self.first_sim = sim_enter
            self.last_sim = sim_exit
            if sim_exit is not None:
                self.total_sim_s += sim_exit - sim_enter

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else None,
            "max_s": self.max_s,
        }
        if self.first_sim is not None:
            out["sim_window"] = [self.first_sim, self.last_sim]
            out["total_sim_s"] = self.total_sim_s
        return out

    def __repr__(self) -> str:
        return f"SpanStats({self.name} count={self.count}, total={self.total_s:.6g}s)"


class Span:
    """One live measurement; use as a context manager (re-enterable)."""

    __slots__ = ("_stats", "_clock", "_t0", "_sim0")

    def __init__(self, stats: SpanStats, clock: Optional[Callable[[], float]] = None) -> None:
        self._stats = stats
        self._clock = clock
        self._t0 = 0.0
        self._sim0: Optional[float] = None

    def __enter__(self) -> "Span":
        self._sim0 = self._clock() if self._clock is not None else None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._t0
        sim_exit = self._clock() if self._clock is not None else None
        self._stats.record(elapsed, self._sim0, sim_exit)
        return False

    @property
    def stats(self) -> SpanStats:
        return self._stats


class _NullSpan:
    """The span of a disabled registry: enter/exit without clock reads."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    @property
    def stats(self) -> None:
        return None


NULL_SPAN = _NullSpan()


__all__ = ["Span", "SpanStats", "NULL_SPAN"]
