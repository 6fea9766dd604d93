"""Causal tracing: cause links on trace records, and the graph they form.

The paper's debugging pitch is that "the consequences of a choice
surface far from where it was made": a steering decision or predicted
violation is only explainable if every message, timer fire, and choice
resolution carries *where it came from*.  This module provides that
layer:

* :class:`CausalContext` — what one in-flight message carries through
  the network: trace id, originating event id, and (for at-least-once
  retransmissions) an attempt number.
* :class:`CausalTracer` — the per-simulation authority that allocates
  event ids, tracks which event is currently executing (a stack, so
  nested dispatches chain correctly), and hands
  :class:`~repro.sim.trace.TraceLog` a *stamp* for the next record.
  Stamps live on ``TraceRecord.causal`` — **outside** ``record.data`` —
  so trace digests and prediction reports are byte-identical with
  tracing on or off.
* :class:`HappensBeforeGraph` — rebuilt from any stamped
  :class:`TraceLog`: each event linked to its cause, the cause chain
  of any event, and the lookups forensics anchors explanations with.

Tracing is opt-in (``Cluster(causal=True)`` or
:func:`enable_causal_tracing`); with it off, the hot path pays exactly
one attribute fetch + ``None`` test per send/deliver/timer.

Stamp shapes: a record that opens an event carries
``{"ev", "trace", "cause"}``, plus ``attempt`` on a retransmission and
``dup`` on a duplicated delivery; a record made inside an event without
opening one carries ``{"trace", "in"}``, and a steering explanation adds
``chain`` (see ``CrystalBallRuntime.on_inbound``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple


class CausalContext(NamedTuple):
    """The causal stamp one in-flight message carries.

    ``attempt`` distinguishes at-least-once retransmissions: retries
    keep the trace id and parent event of the original send but bump
    the attempt number.

    (A NamedTuple, not a dataclass: one is allocated per traced send,
    and tuple construction is several times cheaper.)
    """

    trace_id: int
    event_id: int
    attempt: int


class _Scope:
    """Re-usable ``with`` guard for one dispatch's causal scope.

    A hand-rolled context manager, not ``@contextmanager``: one is
    entered per delivery and timer fire, and the generator machinery
    costs several times more than two plain method calls.
    """

    __slots__ = ("_tracer", "_event_id", "_depth")

    def __init__(self, tracer: "CausalTracer", event_id: int) -> None:
        self._tracer = tracer
        self._event_id = event_id

    def __enter__(self) -> None:
        current = self._tracer._current
        self._depth = len(current)
        current.append(self._event_id)

    def __exit__(self, *exc) -> None:
        del self._tracer._current[self._depth:]


class _ResumeScope:
    """``with`` guard re-entering a past event's scope (retries)."""

    __slots__ = ("_tracer", "_event_id", "_attempt", "_depth", "_prev")

    def __init__(
        self,
        tracer: "CausalTracer",
        event_id: Optional[int],
        attempt: int,
    ) -> None:
        self._tracer = tracer
        self._event_id = event_id
        self._attempt = attempt

    def __enter__(self) -> None:
        tracer = self._tracer
        self._depth = len(tracer._current)
        self._prev = tracer._attempt
        tracer._attempt = self._attempt
        if self._event_id is not None:
            tracer._current.append(self._event_id)

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        del tracer._current[self._depth:]
        tracer._attempt = self._prev


class CausalTracer:
    """Allocates causal events and stamps trace records.

    One tracer per :class:`~repro.sim.scheduler.Simulator`; attach it
    with :func:`enable_causal_tracing`.  The tracer keeps a stack of
    currently-executing event ids: a delivery pushes its event for the
    duration of the handler, a choice resolution *appends* its event so
    later sends in the same dispatch are causally downstream of the
    choice — which is exactly what lets forensics root an explanation
    chain at the resolved choice point.

    The per-event bookkeeping is one ``(trace id, cause)`` pair in a
    list indexed by ``event_id - 1``: the tracer sits on the
    simulator's per-message hot path, and everything richer is
    reconstructed offline from the stamped trace by
    :class:`HappensBeforeGraph`.
    """

    def __init__(self) -> None:
        # No clock: event times are taken from the trace records.
        self._next_trace = 1
        self._events: List[Tuple[int, Optional[int]]] = []
        self._current: List[int] = []
        self._pending: Optional[Dict[str, Any]] = None
        self._attempt = 1

    def current_event_id(self) -> Optional[int]:
        """The event currently executing, if any."""
        return self._current[-1] if self._current else None

    # ------------------------------------------------------------------
    # Event creation (one per traced action)
    # ------------------------------------------------------------------

    def _open(self, parent: Optional[int]) -> Dict[str, Any]:
        """Allocate the next event, caused by ``parent`` (``None`` opens
        a fresh trace), and stage its stamp for the next record."""
        events = self._events
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
        else:
            trace_id = events[parent - 1][0]
        events.append((trace_id, parent))
        stamp = self._pending = {"ev": len(events), "trace": trace_id,
                                 "cause": parent}
        return stamp

    def send_event(self) -> CausalContext:
        """A message leaves the executing event; returns the context it
        carries."""
        current = self._current
        stamp = self._open(current[-1] if current else None)
        attempt = self._attempt
        if attempt != 1:
            stamp["attempt"] = attempt
        return CausalContext(stamp["trace"], stamp["ev"], attempt)

    def deliver_event(self, ctx: Optional[CausalContext], dup: bool) -> int:
        """A message arrives: open an event caused by its send.

        ``ctx`` may be ``None`` for messages sent before tracing was
        enabled; they start a fresh trace at the receiver.
        """
        stamp = self._open(None if ctx is None else ctx.event_id)
        if dup:
            stamp["dup"] = True
        if ctx is not None and ctx.attempt != 1:
            stamp["attempt"] = ctx.attempt
        return stamp["ev"]

    def drop_event(self, ctx: Optional[CausalContext]) -> int:
        """A message died (at send or delivery time)."""
        parent = ctx.event_id if ctx is not None else self.current_event_id()
        return self._open(parent)["ev"]

    def timer_event(self, parent: Optional[int]) -> int:
        """A timer fired; ``parent`` is the event that armed it."""
        return self._open(parent)["ev"]

    def choice_event(self) -> int:
        """A choice was resolved mid-dispatch.

        The event is appended to the current-execution stack, so every
        later effect of this dispatch is causally downstream of the
        choice.
        """
        event_id = self._open(self.current_event_id())["ev"]
        if self._current:
            # Join the enclosing dispatch scope; its exit truncates us.
            # A choice outside any scope must not leak as "current".
            self._current.append(event_id)
        return event_id

    def local_event(self) -> int:
        """A local lifecycle event (start/restart): opens a fresh trace."""
        return self._open(None)["ev"]

    # ------------------------------------------------------------------
    # Execution scopes
    # ------------------------------------------------------------------

    def executing(self, event_id: int) -> _Scope:
        """Mark ``event_id`` as the currently-executing event.

        Events created inside (choices) may extend the stack; exit
        truncates back so sibling dispatches never see them.
        """
        return _Scope(self, event_id)

    def resumed(self, event_id: Optional[int], attempt: int = 1) -> _ResumeScope:
        """Re-enter a past event's causal scope (retransmissions).

        Sends inside keep the original trace id and parent but carry
        ``attempt`` in their context and stamp.
        """
        return _ResumeScope(self, event_id, attempt)

    # ------------------------------------------------------------------
    # TraceLog integration (TraceLog.record consumes ``_pending``, or
    # links a record that opened no event to the executing one)
    # ------------------------------------------------------------------

    def annotate_next(self, **extra: Any) -> None:
        """Attach extra fields to the next record's causal stamp."""
        stamp: Dict[str, Any] = {}
        current = self.current_event_id()
        if current is not None:
            stamp = {"trace": self._events[current - 1][0], "in": current}
        stamp.update(extra)
        self._pending = stamp

    def chain_ids(self, event_id: Optional[int]) -> List[int]:
        """Parent-walk from the root cause down to ``event_id``."""
        chain: List[int] = []
        events = self._events
        current = event_id
        while current is not None:
            chain.append(current)
            current = events[current - 1][1] if current <= len(events) else None
        chain.reverse()
        return chain


def enable_causal_tracing(sim) -> CausalTracer:
    """Attach a fresh :class:`CausalTracer` to a simulator.

    Sets ``sim.causal`` (consulted by the transport, nodes, and the
    reliable layer) and ``sim.trace.tracer`` (so every record picks up
    its stamp).  Returns the tracer.
    """
    tracer = CausalTracer()
    sim.causal = tracer
    sim.trace.tracer = tracer
    return tracer


# ----------------------------------------------------------------------
# Happens-before graphs (rebuilt from stamped traces)
# ----------------------------------------------------------------------


@dataclass
class HBEvent:
    """One causal event as reconstructed from a stamped trace record."""

    id: int
    trace_id: int
    parent: Optional[int]
    node: Optional[int]
    time: float
    category: str
    data: Dict[str, Any]
    attempt: int = 1
    dup: bool = False

    def label(self) -> str:
        """A short human label for renderings."""
        if self.category == "net.send":
            return f"send {self.data.get('kind')}→n{self.data.get('dst')}"
        if self.category == "net.deliver":
            dup = " (dup)" if self.dup else ""
            retry = f" [attempt {self.attempt}]" if self.attempt != 1 else ""
            return f"deliver from n{self.data.get('src')}{dup}{retry}"
        if self.category == "net.drop":
            return f"drop {self.data.get('kind')} ({self.data.get('reason')})"
        if self.category == "choice.resolve":
            return f"choice {self.data.get('label')}={self.data.get('value')}"
        if self.category == "node.timer":
            return f"timer {self.data.get('name')}"
        return self.category


class HappensBeforeGraph:
    """The events of a causally-stamped :class:`TraceLog`.

    Each event links to its ``cause`` — message send→deliver, arming
    event→timer fire, dispatch→choice.  Event ids increase along every
    link, so id order is a causal order.
    """

    def __init__(self) -> None:
        self._events: Dict[int, HBEvent] = {}

    @classmethod
    def from_trace(cls, trace) -> "HappensBeforeGraph":
        """Build the graph from any iterable of stamped trace records;
        records that opened no event of their own are skipped."""
        graph = cls()
        for rec in trace:
            causal = getattr(rec, "causal", None)
            event_id = causal.get("ev") if causal else None
            if event_id is None:
                continue
            graph._events[event_id] = HBEvent(
                id=event_id,
                trace_id=causal.get("trace", 0),
                parent=causal.get("cause"),
                node=rec.node,
                time=rec.time,
                category=rec.category,
                data=dict(rec.data),
                attempt=causal.get("attempt", 1),
                dup=bool(causal.get("dup")),
            )
        return graph

    def event(self, event_id: int) -> Optional[HBEvent]:
        return self._events.get(event_id)

    def __len__(self) -> int:
        return len(self._events)

    def by_category(self, category: str) -> List[HBEvent]:
        """Every event of ``category``, in id order."""
        return sorted(
            (e for e in self._events.values() if e.category == category),
            key=lambda e: e.id,
        )

    def latest_send(
        self,
        src: Optional[int],
        dst: Optional[int],
        kind: Optional[str],
    ) -> Optional[HBEvent]:
        """The most recent ``net.send`` event matching the filters."""
        best = None
        for event in self._events.values():
            if event.category != "net.send":
                continue
            if src is not None and event.node != src:
                continue
            if dst is not None and event.data.get("dst") != dst:
                continue
            if kind is not None and event.data.get("kind") != kind:
                continue
            if best is None or event.id > best.id:
                best = event
        return best

    def chain(self, event_id: int) -> List[HBEvent]:
        """The cause-link chain from the root down to ``event_id``: what
        sequence of sends/deliveries/choices produced this event."""
        ids: List[int] = []
        current: Optional[int] = event_id
        while current is not None:
            ids.append(current)
            event = self._events.get(current)
            current = event.parent if event is not None else None
        return [self._events[i] for i in reversed(ids) if i in self._events]


__all__ = [
    "CausalContext",
    "CausalTracer",
    "HBEvent",
    "HappensBeforeGraph",
    "enable_causal_tracing",
]
