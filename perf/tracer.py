"""Span tracer installed from outside the program.

Nothing in ``src/`` knows about this file.  :meth:`Tracer.install`
replaces the entry points listed in :data:`METHODS` (class attributes)
and :data:`FUNCTIONS` (module functions, rebound in every ``repro``
namespace that imported them) with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``(id, parent, trace, op, start, end, tag)``.  The root of a
trace is one dispatched simulator event (op ``sim.event``) or, where no
simulator runs, the outermost wrapped call (``mc.explorer.bfs``); every
span below it carries the root's id as ``trace``.  A span's *self time*
is its duration minus the part its child spans cover, so self times add
up to the time spent inside any span.

Aggregates per op are always kept.  Raw spans are kept up to
``max_spans`` and the rest are counted in ``dropped``.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

MAX_SPANS = 200_000

# (op, "module:Class", attribute).  Private attributes appear where the
# layer's boundary is one: the transport's delivery callback, the node's
# dispatch entry, the runtime's per-candidate scoring.
METHODS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.schedule", "repro.sim.scheduler:Simulator", "schedule"),
    ("sim.schedule", "repro.sim.scheduler:Simulator", "schedule_at"),
    ("net.transport.send", "repro.net.transport:Network", "send"),
    ("net.transport.send_many", "repro.net.transport:Network", "send_many"),
    ("net.transport.deliver", "repro.net.transport:Network", "_deliver"),
    ("net.transport.deliver", "repro.net.transport:Network", "_deliver_batch"),
    ("net.topology.link", "repro.net.topology:Topology", "link"),
    ("chaos.faults.apply", "repro.chaos.faults:LinkChaos", "apply"),
    ("statemachine.node.dispatch", "repro.statemachine.node:Node", "_on_message"),
    ("statemachine.node.timer", "repro.statemachine.node:Node", "_fire_timer"),
    ("runtime.resolve", "repro.runtime.controller:CrystalBallRuntime", "resolve_choice"),
    ("runtime.score", "repro.runtime.controller:CrystalBallRuntime", "_score_candidate"),
    ("runtime.inbound", "repro.runtime.controller:CrystalBallRuntime", "on_inbound"),
    ("runtime.checkpoint.broadcast", "repro.runtime.controller:CrystalBallRuntime",
     "broadcast_checkpoint"),
    ("model.state_model.update", "repro.model.state_model:StateModel", "update"),
    ("mc.explorer.bfs", "repro.mc.explorer:Explorer", "bfs"),
    ("mc.explorer.successors", "repro.mc.explorer:Explorer", "successors"),
    ("mc.explorer.enabled_actions", "repro.mc.explorer:Explorer", "enabled_actions"),
    ("mc.explorer.check", "repro.mc.explorer:Explorer", "check"),
    ("mc.world.evolve", "repro.mc.world:WorldState", "evolve"),
    ("mc.world.digest", "repro.mc.world:WorldState", "digest"),
    ("mc.predict", "repro.mc.consequence:ConsequencePredictor", "predict"),
    ("obs.registry.span", "repro.obs.registry:MetricsRegistry", "span"),
)

# (op, function name in repro.statemachine.serialization, rebind in the
# defining module too).  freeze and snapshot_value recurse through their
# own module's globals, so rebinding them there would wrap every level
# of the recursion; digest is rebound there because the throughput
# experiment imports it at call time.
SERIALIZATION = "repro.statemachine.serialization"
FUNCTIONS: Tuple[Tuple[str, str, bool], ...] = (
    ("statemachine.serialization.digest", "digest", True),
    ("statemachine.serialization.digest", "freeze", False),
    ("statemachine.serialization.digest", "digest_of_frozen", False),
    ("statemachine.serialization.snapshot", "snapshot_value", False),
    ("statemachine.serialization.snapshot", "checkpoint_state", False),
    ("statemachine.serialization.snapshot", "restore_state", False),
)

# Ops with wrappers of their own (see install), listed so that a layer
# table always has a row for them, zero or not.
SPECIAL_OPS = (
    "sim.run", "sim.event", "sim.trace.record",
    "net.membership.handler", "apps.paxos.handler", "apps.randtree.handler",
    "apps.gossip.handler",
)
OPS = tuple(dict.fromkeys(
    SPECIAL_OPS + tuple(op for op, _, _ in METHODS) + tuple(op for op, _, _ in FUNCTIONS)
))

def import_all_repro() -> None:
    """Import every ``repro`` module, so every namespace that binds a
    traced function exists before :meth:`Tracer.install` scans them."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def handler_op(fn: Callable) -> str:
    """``apps.<family>.handler`` / ``net.membership.handler`` from the
    module that defines a message or timer handler."""
    parts = fn.__module__.split(".")[1:]
    return ".".join(parts[:2] + ["handler"])


class Tracer:
    """Aggregates and raw spans for one traced repetition."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.aggregates: Dict[str, List[float]] = {op: [0, 0.0, 0.0] for op in OPS}
        self.stack: List[list] = []  # open frames: [child seconds, span id, tag]
        self.spans: List[tuple] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._zero()

    def _zero(self) -> None:
        self.next_id = 0
        self.trace = -1  # id of the root span everything open belongs to
        self.event: Optional[tuple] = None  # (frame, start) of the open sim.event
        self.dropped = 0
        self.root_seconds = 0.0  # time covered by spans that had no parent
        self.transitions = 0  # successor worlds returned by Explorer.successors

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (called where the measured
        window opens, so set-up spans are not in the table)."""
        if self.stack:
            raise RuntimeError("tracer reset inside an open span")
        for aggregate in self.aggregates.values():
            aggregate[:] = [0, 0.0, 0.0]
        del self.spans[:]
        self._zero()

    def table(self) -> Dict[str, Dict[str, float]]:
        """``{op: {calls, self_s, total_s, us_per_call}}`` for every op."""
        rows = {}
        for op, (calls, self_s, total_s) in sorted(self.aggregates.items()):
            rows[op] = {
                "calls": calls,
                "self_s": self_s,
                "total_s": total_s,
                "us_per_call": 1e6 * self_s / calls if calls else 0.0,
            }
        return rows

    def write_spans(self, path: str) -> None:
        """Raw spans as JSON lines, times in seconds from the earliest span."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, trace, op, start, end, tag in self.spans:
                record = {"id": span_id, "parent": parent, "trace": trace, "op": op,
                          "start": round(start - origin, 7), "end": round(end - origin, 7)}
                if tag:
                    record["tag"] = tag
                handle.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _aggregate(self, op: str) -> List[float]:
        return self.aggregates.setdefault(op, [0, 0.0, 0.0])

    def _open(self, tag: str = "") -> list:
        span_id = self.next_id
        self.next_id = span_id + 1
        if not self.stack:
            self.trace = span_id
        frame = [0.0, span_id, tag]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, aggregate: List[float], op: str,
               start: float, end: float, count: int = 1) -> None:
        stack = self.stack
        stack.pop()
        took = end - start
        aggregate[0] += count
        aggregate[1] += took - frame[0]
        aggregate[2] += took
        if stack:
            parent = stack[-1]
            parent[0] += took
            parent_id = parent[1]
        else:
            self.root_seconds += took
            parent_id = -1
        if len(self.spans) < self.max_spans:
            self.spans.append((frame[1], parent_id, self.trace, op, start, end, frame[2]))
        else:
            self.dropped += 1

    def wrap(self, fn: Callable, op: str, count: int = 1) -> Callable:
        """``fn`` timed as one span of ``op`` per call."""
        aggregate = self._aggregate(op)
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            frame = open_span()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame, aggregate, op, start, perf_counter(), count)

        return traced

    def _wrap_handler(self, fn: Callable, pick: Callable) -> Callable:
        """``Service.invoke_handler`` / ``fire_timer``: the op is named
        after the module of the handler that will run."""
        aggregates: Dict[Any, Tuple[str, List[float]]] = {}
        open_span, close_span = self._open, self._close

        def traced(service, *args, **kwargs):
            handler = pick(service, *args)
            if handler is None:  # no such timer: the program raises its own error
                return fn(service, *args, **kwargs)
            known = aggregates.get(handler)
            if known is None:
                op = handler_op(handler)
                known = aggregates[handler] = (op, self._aggregate(op))
            frame = open_span()
            start = perf_counter()
            try:
                return fn(service, *args, **kwargs)
            finally:
                close_span(frame, known[1], known[0], start, perf_counter())

        return traced

    def _wrap_run(self, fn: Callable) -> Callable:
        """``Simulator.run``; closes the event span its loop left open."""
        aggregate, events = self._aggregate("sim.run"), self._aggregate("sim.event")

        def traced(*args, **kwargs):
            frame = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close_event(events, end)
                self._close(frame, aggregate, "sim.run", start, end)

        return traced

    def _close_event(self, events: List[float], now: float) -> None:
        if self.event is not None:
            frame, start = self.event
            self.event = None
            self._close(frame, events, "sim.event", start, now)
            self.trace = self.stack[0][1]  # back to the enclosing sim.run

    def _wrap_pop(self, fn: Callable) -> Callable:
        """``EventQueue.pop_if``, the run loop's only call between two
        events: the previous event's span ends where it is entered and
        the next one starts where it returns, so the pop itself stays in
        ``sim.run``'s self time."""
        events = self._aggregate("sim.event")

        def traced(queue, max_time=None):
            self._close_event(events, perf_counter())
            popped = fn(queue, max_time)
            if popped is not None and self.stack:
                frame = self._open(popped[1])
                self.trace = frame[1]
                self.event = (frame, perf_counter())
            return popped

        return traced

    def _wrap_record(self, fn: Callable) -> Callable:
        """``TraceLog.record``: a span per record made.  A call on a
        disabled log returns at its first test and stays with its caller."""
        timed = self.wrap(fn, "sim.trace.record")

        def traced(log, *args, **kwargs):
            if log.enabled:
                return timed(log, *args, **kwargs)
            return fn(log, *args, **kwargs)

        return traced

    def _wrap_successors(self, fn: Callable) -> Callable:
        timed = self.wrap(fn, "mc.explorer.successors")

        def traced(*args, **kwargs):
            worlds = timed(*args, **kwargs)
            self.transitions += len(worlds)
            return worlds

        return traced

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patched.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        """Wrap every entry point.  Call before the world is built: bound
        methods handed out at construction keep the function they saw."""
        import_all_repro()
        for op, target, name in METHODS:
            module, _, cls = target.partition(":")
            owner = getattr(importlib.import_module(module), cls)
            if op == "mc.explorer.successors":
                self._patch(owner, name, self._wrap_successors)
            else:
                self._patch(owner, name, lambda fn, op=op: self.wrap(fn, op))

        from repro.obs.spans import Span
        from repro.sim.events import EventQueue
        from repro.sim.scheduler import Simulator
        from repro.sim.trace import TraceLog
        from repro.statemachine.service import Service

        # Entering and leaving a registry span is part of its cost; only
        # the creation counts as a call.
        for name in ("__enter__", "__exit__"):
            self._patch(Span, name, lambda fn: self.wrap(fn, "obs.registry.span", count=0))
        self._patch(Simulator, "run", self._wrap_run)
        self._patch(EventQueue, "pop_if", self._wrap_pop)
        self._patch(TraceLog, "record", self._wrap_record)
        self._patch(Service, "invoke_handler",
                    lambda fn: self._wrap_handler(fn, lambda service, spec, *_: spec.fn))
        self._patch(Service, "fire_timer",
                    lambda fn: self._wrap_handler(
                        fn, lambda service, name, *_: service._timer_handlers.get(name)))

        serialization = sys.modules[SERIALIZATION]
        namespaces = [module for name, module in sorted(sys.modules.items())
                      if name.startswith("repro.") and module is not None]
        for op, name, in_defining_module in FUNCTIONS:
            original = getattr(serialization, name)
            traced = self.wrap(original, op)
            for module in namespaces:
                if module is serialization and not in_defining_module:
                    continue
                if module.__dict__.get(name) is original:
                    self._patch(module, name, lambda fn, traced=traced: traced)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


__all__ = ["MAX_SPANS", "METHODS", "FUNCTIONS", "OPS", "Tracer", "handler_op",
           "import_all_repro"]
