"""The discrete-event simulator core.

:class:`Simulator` owns the virtual clock, the event queue, the trace
log, and the root RNG registry.  Everything above it (network, services,
the CrystalBall runtime) schedules callbacks through it.  The simulator
is single-threaded and deterministic; the paper's live ModelNet
deployment is replaced by this substrate (see DESIGN.md section 2).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .clock import VirtualClock
from .events import EventHandle, EventQueue
from .rng import RngRegistry
from .trace import TraceLog


class SimulationError(Exception):
    """Raised on invalid scheduling requests."""


class Simulator:
    """Deterministic single-threaded discrete-event simulator."""

    def __init__(
        self,
        seed: int = 0,
        start_time: float = 0.0,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.clock = VirtualClock(start_time)
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else TraceLog()
        self.events_dispatched = 0
        # Causal tracer when causal tracing is enabled (see
        # repro.obs.causal.enable_causal_tracing); None keeps the hot
        # path at a single attribute test per send/deliver/timer.
        self.causal: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        # The scheduler owns the clock and reads its slot directly, here
        # and in schedule/schedule_at/run: several reads per message.
        return self.clock._now

    def schedule(self, delay: float, callback: Callable[[], None], tag: str = "") -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        return self.queue.push(self.clock._now + delay, callback, tag)

    def schedule_at(self, time: float, callback: Callable[[], None], tag: str = "") -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.clock._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, which is before now ({self.now!r})"
            )
        return self.queue.push(time, callback, tag)

    def every(self, period: float, action: Callable[[], None], until: float,
              tag: str) -> None:
        """Run ``action`` ``period`` seconds from now and then every
        ``period`` seconds while the next run falls no later than ``until``."""

        def tick() -> None:
            action()
            if self.clock._now + period <= until:
                self.schedule(period, tick, tag)

        self.schedule(period, tick, tag)

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a scheduled event; returns whether it was still live."""
        return self.queue.cancel(handle)

    def step(self) -> bool:
        """Dispatch the next event, advancing the clock to its timestamp.

        Returns ``False`` when the queue is empty.
        """
        try:
            time, _tag, callback = self.queue.pop()
        except IndexError:
            return False
        self.clock.advance_to(time)
        self.events_dispatched += 1
        callback()
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been dispatched in this call.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` at the end even if the queue drained earlier, so
        periodic measurements see consistent end times.  Returns the
        number of events dispatched by this call.
        """
        dispatched = 0
        # Inlined hot loop: pop_if does the peek and the pop in one heap
        # inspection, and the clock advances in place (queue times are
        # already floats); advance_to is called only to raise.
        pop_if = self.queue.pop_if
        clock = self.clock
        while max_events is None or dispatched < max_events:
            popped = pop_if(until)
            if popped is None:
                break
            time, _tag, callback = popped
            if time < clock._now:
                clock.advance_to(time)
            clock._now = time
            dispatched += 1
            callback()
        self.events_dispatched += dispatched
        if until is not None and until > self.now:
            self.clock.advance_to(until)
        return dispatched

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now!r}, pending={len(self.queue)}, "
            f"dispatched={self.events_dispatched})"
        )


__all__ = ["Simulator", "SimulationError"]
