"""Causal tracing: contexts, logical clocks, and happens-before graphs.

The paper's debugging pitch is that "the consequences of a choice
surface far from where it was made": a steering decision or predicted
violation is only explainable if every message, timer fire, and choice
resolution carries *where it came from*.  This module provides that
layer:

* :class:`CausalContext` — the immutable stamp a send carries through
  the network: trace id, originating event id, Lamport clock, vector
  clock, and (for at-least-once retransmissions) an attempt number.
* :class:`CausalTracer` — the per-simulation authority that allocates
  event ids, ticks Lamport/vector clocks, tracks which event is
  currently executing (a stack, so nested dispatches chain correctly),
  and hands :class:`~repro.sim.trace.TraceLog` a *stamp* for the next
  record.  Stamps live on ``TraceRecord.causal`` — **outside**
  ``record.data`` — so trace digests and prediction reports are
  byte-identical with tracing on or off.
* :class:`HappensBeforeGraph` — rebuilt from any stamped
  :class:`TraceLog`: ancestors/descendants, concurrency tests, causal
  chains, and critical-path extraction.

Tracing is opt-in (``Cluster(causal=True)`` or
:func:`enable_causal_tracing`); with it off, the hot path pays exactly
one attribute fetch + ``None`` test per send/deliver/timer.

Clock semantics (the standard algorithms):

* Lamport: every event at node ``n`` ticks ``L[n] = max(L[n], floor) + 1``
  where ``floor`` is the stamped clock of the message being delivered
  (0 for purely local events).
* Vector: every event increments the node's own component; a delivery
  first merges the sender's stamped vector component-wise.  ``a``
  happened-before ``b`` iff ``a.vc[a.node] <= b.vc.get(a.node, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple


class CausalContext(NamedTuple):
    """The causal stamp one in-flight message carries.

    ``vc`` is the sender's vector clock at send time, frozen as a dense
    tuple indexed by node id (component ``i`` is node ``i``'s count,
    zeros for nodes not yet heard from).  ``attempt`` distinguishes
    at-least-once retransmissions: retries keep the trace id and parent
    event of the original send but bump the attempt number.

    (A NamedTuple, not a dataclass: one is allocated per traced send,
    and tuple construction is several times cheaper.)
    """

    trace_id: int
    event_id: int
    lamport: int
    vc: Tuple[int, ...]
    attempt: int = 1


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

    The per-event bookkeeping is two parallel lists indexed by
    ``event_id - 1`` (trace id and parent) instead of objects: the
    tracer sits on the simulator's per-message hot path, and everything
    richer is reconstructed offline from the stamped trace by
    :class:`HappensBeforeGraph`.
    """

    def __init__(self) -> None:
        # No clock: event times are taken from the trace records.
        self._next_trace = 1
        self.lamport: Dict[int, int] = {}
        # Per-node vector clocks as dense lists indexed by node id —
        # merges and snapshots are C-speed slice/tuple operations
        # instead of dict copies.
        self.vector: Dict[int, List[int]] = {}
        # Per-event bookkeeping, indexed by event_id - 1.
        self._trace_ids: List[int] = []
        self._parents: List[Optional[int]] = []
        self._current: List[int] = []
        self._pending: Optional[Dict[str, Any]] = None
        self._attempt = 1

    # ------------------------------------------------------------------
    # Event bookkeeping
    # ------------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Events allocated so far."""
        return len(self._trace_ids)

    def trace_of(self, event_id: int) -> int:
        """The trace id ``event_id`` belongs to."""
        return self._trace_ids[event_id - 1]

    def parent_of(self, event_id: int) -> Optional[int]:
        """The cause of ``event_id`` (``None`` for roots)."""
        return self._parents[event_id - 1]

    # ------------------------------------------------------------------
    # Event creation (one per traced action)
    # ------------------------------------------------------------------

    def current_event_id(self) -> Optional[int]:
        """The event currently executing, if any."""
        return self._current[-1] if self._current else None

    def _vc_of(self, node: int) -> List[int]:
        """The node's dense vector clock, grown to cover ``node``."""
        vc = self.vector.get(node)
        if vc is None:
            vc = self.vector[node] = [0] * (node + 1)
        elif node >= len(vc):
            vc.extend([0] * (node + 1 - len(vc)))
        return vc

    def send_event(self, src: int, dst: int, kind: str) -> CausalContext:
        """A message leaves ``src``; returns the context it carries."""
        current = self._current
        parent = current[-1] if current else None
        lamport = self.lamport
        clock = lamport.get(src, 0) + 1
        lamport[src] = clock
        vc = self.vector.get(src)
        if vc is None or src >= len(vc):
            vc = self._vc_of(src)
        vc[src] += 1
        trace_ids = self._trace_ids
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
        else:
            trace_id = trace_ids[parent - 1]
        trace_ids.append(trace_id)
        self._parents.append(parent)
        event_id = len(trace_ids)
        frozen = tuple(vc)
        stamp = {"ev": event_id, "trace": trace_id, "cause": parent,
                 "lc": clock, "vc": frozen}
        attempt = self._attempt
        if attempt != 1:
            stamp["attempt"] = attempt
        self._pending = stamp
        return CausalContext(trace_id, event_id, clock, frozen, attempt)

    def deliver_event(
        self,
        ctx: Optional[CausalContext],
        dst: int,
        dup: bool = False,
    ) -> int:
        """A message arrives at ``dst``: merge clocks, open an event.

        ``ctx`` may be ``None`` for messages sent before tracing was
        enabled; they start a fresh trace at the receiver.
        """
        lamport = self.lamport
        vc = self.vector.get(dst)
        if vc is None or dst >= len(vc):
            vc = self._vc_of(dst)
        if ctx is not None:
            sender_vc = ctx.vc
            width = len(sender_vc)
            if width > len(vc):
                vc.extend([0] * (width - len(vc)))
            # Guarded loop, not map(max, ...): most components don't
            # advance, and the per-element max() call costs ~4x this.
            for i, count in enumerate(sender_vc):
                if count > vc[i]:
                    vc[i] = count
            floor = ctx.lamport
            clock = lamport.get(dst, 0)
            if floor > clock:
                clock = floor
            clock += 1
            parent: Optional[int] = ctx.event_id
        else:
            clock = lamport.get(dst, 0) + 1
            parent = None
        lamport[dst] = clock
        vc[dst] += 1
        trace_ids = self._trace_ids
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
        else:
            trace_id = trace_ids[parent - 1]
        trace_ids.append(trace_id)
        self._parents.append(parent)
        stamp = {"ev": len(trace_ids), "trace": trace_id, "cause": parent,
                 "lc": clock, "vc": tuple(vc)}
        if dup:
            stamp["dup"] = True
        if ctx is not None and ctx.attempt != 1:
            stamp["attempt"] = ctx.attempt
        self._pending = stamp
        return len(trace_ids)

    def _simple_event(self, node: int, parent: Optional[int],
                      floor: int = 0) -> int:
        """Open a non-send event at ``node`` and stamp it."""
        lamport = self.lamport
        clock = lamport.get(node, 0)
        if floor > clock:
            clock = floor
        clock += 1
        lamport[node] = clock
        vc = self._vc_of(node)
        vc[node] += 1
        trace_ids = self._trace_ids
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
        else:
            trace_id = trace_ids[parent - 1]
        trace_ids.append(trace_id)
        self._parents.append(parent)
        event_id = len(trace_ids)
        self._pending = {"ev": event_id, "trace": trace_id, "cause": parent,
                         "lc": clock, "vc": tuple(vc)}
        return event_id

    def drop_event(self, node: int, ctx: Optional[CausalContext] = None) -> int:
        """A message died (at send or delivery time)."""
        if ctx is not None:
            return self._simple_event(node, ctx.event_id, floor=ctx.lamport)
        return self._simple_event(node, self.current_event_id())

    def timer_event(self, node: int, name: str, parent: Optional[int]) -> int:
        """A timer fired; ``parent`` is the event that armed it."""
        return self._simple_event(node, parent)

    def choice_event(self, node: int, label: str) -> int:
        """A choice was resolved mid-dispatch.

        The event is appended to the current-execution stack, so every
        later effect of this dispatch is causally downstream of the
        choice.
        """
        event_id = self._simple_event(node, self.current_event_id())
        if self._current:
            # Join the enclosing dispatch scope; its exit truncates us.
            # A choice outside any scope must not leak as "current".
            self._current.append(event_id)
        return event_id

    def local_event(self, node: int, kind: str, root: bool = False) -> int:
        """A local lifecycle event (start/restart); ``root`` events open
        a fresh trace."""
        parent = None if root else self.current_event_id()
        return self._simple_event(node, parent)

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
    # TraceLog integration
    # ------------------------------------------------------------------

    def take_stamp(self) -> Optional[Dict[str, Any]]:
        """The causal stamp for the next trace record (consumed once).

        Records that did not open their own event get an ambient
        ``{"trace", "in"}`` link to the surrounding event, which keeps
        interposer/steering records attached to the delivery that
        triggered them.
        """
        stamp = self._pending
        if stamp is not None:
            self._pending = None
            return stamp
        current = self._current
        if current:
            last = current[-1]
            return {"trace": self._trace_ids[last - 1], "in": last}
        return None

    def annotate_next(self, **extra: Any) -> None:
        """Attach extra fields to the next record's causal stamp."""
        stamp: Dict[str, Any] = {}
        current = self.current_event_id()
        if current is not None:
            stamp = {"trace": self._trace_ids[current - 1], "in": current}
        stamp.update(extra)
        self._pending = stamp

    def chain_ids(self, event_id: Optional[int]) -> List[int]:
        """Parent-walk from the root cause down to ``event_id``."""
        chain: List[int] = []
        parents = self._parents
        current = event_id
        while current is not None:
            chain.append(current)
            current = parents[current - 1] if current <= len(parents) else None
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
    lamport: int
    vc: Dict[int, int]
    data: Dict[str, Any]
    po_parent: Optional[int] = None  # previous event at the same node
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
    """The happens-before DAG of a causally-stamped :class:`TraceLog`.

    Edges are (a) the ``cause`` links stamped on each event — message
    send→deliver, arming event→timer fire, dispatch→choice — and (b)
    per-node program order.  Event ids increase along every edge, so
    iteration in id order is a topological order.
    """

    def __init__(self) -> None:
        self._events: Dict[int, HBEvent] = {}
        self._children: Dict[int, List[int]] = {}
        # Records without their own event, attached to a surrounding one.
        self.annotations: Dict[int, List[Any]] = {}

    @classmethod
    def from_trace(cls, trace) -> "HappensBeforeGraph":
        """Build the graph from any iterable of stamped trace records."""
        graph = cls()
        last_at_node: Dict[int, int] = {}
        for rec in trace:
            causal = getattr(rec, "causal", None)
            if not causal:
                continue
            event_id = causal.get("ev")
            if event_id is None:
                anchor = causal.get("in")
                if anchor is not None:
                    graph.annotations.setdefault(anchor, []).append(rec)
                continue
            raw_vc = causal.get("vc")
            if isinstance(raw_vc, dict):
                vc = {int(k): v for k, v in raw_vc.items()}
            elif raw_vc:
                # Dense form: index is the node id (zeros elided).
                vc = {i: c for i, c in enumerate(raw_vc) if c}
            else:
                vc = {}
            event = HBEvent(
                id=event_id,
                trace_id=causal.get("trace", 0),
                parent=causal.get("cause"),
                node=rec.node,
                time=rec.time,
                category=rec.category,
                lamport=causal.get("lc", 0),
                vc=vc,
                data=dict(rec.data),
                attempt=causal.get("attempt", 1),
                dup=bool(causal.get("dup")),
            )
            if rec.node is not None:
                event.po_parent = last_at_node.get(rec.node)
                last_at_node[rec.node] = event_id
            graph._events[event_id] = event
            for parent in {p for p in (event.parent, event.po_parent)
                           if p is not None}:
                graph._children.setdefault(parent, []).append(event_id)
        return graph

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def event(self, event_id: int) -> Optional[HBEvent]:
        return self._events.get(event_id)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[HBEvent]:
        return iter(sorted(self._events.values(), key=lambda e: e.id))

    def by_category(self, category: str) -> List[HBEvent]:
        return [e for e in self if e.category == category]

    def roots(self) -> List[HBEvent]:
        return [e for e in self if e.parent is None and e.po_parent is None]

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

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _parents(self, event_id: int) -> List[int]:
        event = self._events.get(event_id)
        if event is None:
            return []
        return [p for p in (event.parent, event.po_parent) if p is not None]

    def ancestors(self, event_id: int) -> Set[int]:
        """All events that happened-before ``event_id`` (cause + program
        order), excluding itself."""
        seen: Set[int] = set()
        stack = self._parents(event_id)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._parents(current))
        return seen

    def descendants(self, event_id: int) -> Set[int]:
        """All events causally after ``event_id``, excluding itself."""
        seen: Set[int] = set()
        stack = list(self._children.get(event_id, ()))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._children.get(current, ()))
        return seen

    def happens_before(self, a: int, b: int) -> bool:
        """Whether event ``a`` happened-before event ``b``."""
        ea, eb = self._events.get(a), self._events.get(b)
        if ea is None or eb is None or a == b:
            return False
        if ea.vc and eb.vc and ea.node is not None:
            own = ea.vc.get(ea.node)
            if own is not None:
                return own <= eb.vc.get(ea.node, 0) and ea.vc != eb.vc
        return a in self.ancestors(b)

    def concurrent(self, a: int, b: int) -> bool:
        """Whether two events are causally unordered."""
        if a == b:
            return False
        return not self.happens_before(a, b) and not self.happens_before(b, a)

    def chain(self, event_id: int) -> List[HBEvent]:
        """The cause-link chain from the root down to ``event_id``.

        Program order is deliberately excluded: the chain answers "what
        sequence of sends/deliveries/choices produced this event", not
        "what else did the node do in between".
        """
        ids: List[int] = []
        current: Optional[int] = event_id
        while current is not None:
            ids.append(current)
            event = self._events.get(current)
            current = event.parent if event is not None else None
        return [self._events[i] for i in reversed(ids) if i in self._events]

    def critical_path(self) -> List[HBEvent]:
        """The longest elapsed-time chain through the graph.

        Dynamic programming over id order (a topological order): the
        returned events form the cause/program-order path with maximal
        ``end.time - start.time`` — the sequence that gated the run.
        """
        best_dist: Dict[int, float] = {}
        best_pred: Dict[int, Optional[int]] = {}
        best_end, best_total = None, -1.0
        for event in self:
            dist = 0.0
            pred = None
            for parent in self._parents(event.id):
                parent_event = self._events.get(parent)
                if parent_event is None:
                    continue
                candidate = best_dist.get(parent, 0.0) + max(
                    0.0, event.time - parent_event.time
                )
                if candidate > dist:
                    dist, pred = candidate, parent
            best_dist[event.id] = dist
            best_pred[event.id] = pred
            if dist > best_total:
                best_total, best_end = dist, event.id
        path: List[HBEvent] = []
        current = best_end
        while current is not None:
            path.append(self._events[current])
            current = best_pred.get(current)
        path.reverse()
        return path


__all__ = [
    "CausalContext",
    "CausalTracer",
    "HBEvent",
    "HappensBeforeGraph",
    "enable_causal_tracing",
]
