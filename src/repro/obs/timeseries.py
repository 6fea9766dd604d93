"""Time-series telemetry: cadenced sampling of probes.

The :class:`~repro.obs.registry.MetricsRegistry` holds *cumulative*
instruments — a 60-second throughput run ends with one committed-ops
total and no idea whether commits flowed steadily or stalled for 40
seconds under a partition.  A :class:`TelemetrySampler` closes that gap:
it reads probe callables on a fixed *simulated-time* cadence, keeps
each as a bounded in-memory :class:`Series` ring with automatic
downsampling, and optionally forwards every tick to a
:class:`~repro.obs.stream.RunStream` for live tailing.

Digest neutrality is the design constraint everything here obeys:

* sampler ticks ride the simulator's event queue on a dedicated
  ``telemetry.sample`` tag, draw **no** RNG, and never mutate service,
  network, or runtime state — the application event sequence is
  byte-identical with sampling on or off;
* nothing is appended to the trace log, so trace digests cannot move;
* host-time correlation (like spans) lives only in stream records,
  outside every digest.

``benchmarks/bench_o3_stream.py`` holds the receipts: <5% wall-time
overhead on the T1 quick workload with identical trace and decided-log
digests either way.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple


class Series:
    """A bounded time-series ring with automatic downsampling.

    Points are ``(t, value)`` pairs appended in time order.  Once
    ``max_points`` is reached the series halves its resolution: adjacent
    pairs merge (per the aggregation policy) and the sampling ``stride``
    doubles, so a fixed memory budget covers an arbitrarily long run at
    progressively coarser grain — the classic downsampling ring.

    Aggregations: ``last`` (right for cumulative counters), ``mean``
    (gauges), ``max`` / ``min`` / ``sum`` (rates and peaks).
    """

    AGGREGATIONS = ("last", "mean", "max", "min", "sum")

    __slots__ = ("name", "max_points", "agg", "stride", "_points", "_bucket")

    def __init__(self, name: str, max_points: int = 512, agg: str = "last") -> None:
        if max_points < 4:
            raise ValueError(f"max_points must be >= 4, got {max_points}")
        if agg not in self.AGGREGATIONS:
            raise ValueError(f"unknown aggregation {agg!r}; expected one of "
                             f"{self.AGGREGATIONS}")
        self.name = name
        self.max_points = max_points
        self.agg = agg
        self.stride = 1
        self._points: List[Tuple[float, float]] = []
        self._bucket: List[Tuple[float, float]] = []

    def _fold(self, bucket: List[Tuple[float, float]]) -> Tuple[float, float]:
        t = bucket[-1][0]
        values = [v for _, v in bucket]
        if self.agg == "last":
            return t, values[-1]
        if self.agg == "mean":
            return t, sum(values) / len(values)
        if self.agg == "max":
            return t, max(values)
        if self.agg == "min":
            return t, min(values)
        return t, sum(values)

    def append(self, t: float, value: float) -> None:
        self._bucket.append((t, value))
        if len(self._bucket) < self.stride:
            return
        self._points.append(self._fold(self._bucket))
        self._bucket = []
        if len(self._points) >= self.max_points:
            # Halve resolution: merge adjacent pairs, double the stride.
            merged = [
                self._fold(self._points[i:i + 2])
                for i in range(0, len(self._points), 2)
            ]
            self._points = merged
            self.stride *= 2

    def points(self) -> List[Tuple[float, float]]:
        """All retained points (including a partially-filled bucket)."""
        if self._bucket:
            return self._points + [self._fold(self._bucket)]
        return list(self._points)

    def last(self) -> Optional[Tuple[float, float]]:
        pts = self.points()
        return pts[-1] if pts else None

    def __len__(self) -> int:
        return len(self._points) + (1 if self._bucket else 0)

    def __repr__(self) -> str:
        return (f"Series({self.name!r}, points={len(self)}, "
                f"stride={self.stride}, agg={self.agg!r})")


class TelemetrySampler:
    """Cadenced sampling of probes over a simulator's virtual clock.

    Probes are zero-argument callables registered under a series name.
    :meth:`start` schedules the first tick; every tick reads all probes
    once, appends to the in-memory series, and forwards one
    consolidated reading to the attached stream.

    ``until`` bounds rescheduling so a sampler never keeps an otherwise
    drained event queue alive past the experiment horizon.
    """

    TAG = "telemetry.sample"

    def __init__(
        self,
        sim: Any,
        cadence: float = 1.0,
        stream: Optional[Any] = None,
    ) -> None:
        if cadence <= 0:
            raise ValueError(f"cadence must be positive, got {cadence!r}")
        self.sim = sim
        self.cadence = cadence
        self.stream = stream
        self.series: Dict[str, Series] = {}
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        self.samples_taken = 0
        self._running = False
        self._until: Optional[float] = None

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------

    def watch(self, name: str, probe: Callable[[], float], agg: str = "last") -> Series:
        """Register a probe callable under ``name``; returns its series."""
        if name in self.series:
            raise ValueError(f"series {name!r} already registered")
        series = Series(name, agg=agg)
        self.series[name] = series
        self._probes.append((name, probe))
        return series

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, until: Optional[float] = None) -> None:
        """Begin cadenced sampling (first tick one cadence from now)."""
        if self._running:
            return
        self._running = True
        self._until = until
        self.sim.schedule(self.cadence, self._tick, tag=self.TAG)

    def stop(self) -> None:
        """Stop sampling; the next pending tick becomes a no-op."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.sample_now()
        next_time = self.sim.now + self.cadence
        if self._until is not None and next_time > self._until:
            self._running = False
            return
        self.sim.schedule(self.cadence, self._tick, tag=self.TAG)

    def sample_now(self) -> Dict[str, float]:
        """Read every probe once at the current simulated time."""
        now = self.sim.now
        values: Dict[str, float] = {}
        for name, probe in self._probes:
            value = probe()
            values[name] = value
            self.series[name].append(now, value)
        self.samples_taken += 1
        if self.stream is not None:
            self.stream.write_sample(values, t=now)
        return values

    def snapshot(self) -> Dict[str, Any]:
        """All series as plain JSON-able dicts (name -> points/stride)."""
        return {
            name: {
                "agg": series.agg,
                "stride": series.stride,
                "points": [[round(t, 6), v] for t, v in series.points()],
            }
            for name, series in self.series.items()
        }

    def __repr__(self) -> str:
        return (f"TelemetrySampler(cadence={self.cadence}, "
                f"series={len(self.series)}, samples={self.samples_taken}, "
                f"running={self._running})")


__all__ = ["Series", "TelemetrySampler"]
