"""Execution contexts for services.

A service's downcalls (send, timers, choices, randomness, tracing) all
flow through its bound context, which makes the same handler code
runnable in two worlds:

* :class:`LiveContext` — attached to a real :class:`~repro.statemachine.node.Node`
  in the simulation: sends go to the network, choices to the node's
  resolver.
* :class:`SandboxContext` — used by the model checker: effects are
  *collected* instead of executed, and choices are replayed from a
  script; a choice beyond the script raises :class:`ChoiceRequested` so
  the explorer can branch on each candidate.

This mirrors the CrystalBall architecture, where the same state-machine
code runs both live and inside consequence prediction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..choice.choicepoint import ChoiceError, ChoicePoint
from ..sim.rng import derive_seed
from .handlers import HandlerSpec


class ChoiceRequested(Exception):
    """A sandboxed handler reached an unscripted choice.

    Carries the choice point and the script consumed so far; the
    explorer extends the script with each candidate and re-runs.  It
    also carries whether the run had read the clock: the explorer trusts
    only clock-free steps, and a branch family past its variant bound is
    never re-run to find out.
    """

    def __init__(self, point: ChoicePoint, consumed: List[Any], time_read: bool) -> None:
        super().__init__(f"unscripted choice {point.label!r} at node {point.node_id}")
        self.point = point
        self.consumed = consumed
        self.time_read = time_read


@dataclass
class Effects:
    """What a sandboxed handler invocation did."""

    sent: List[Tuple[int, Any]] = field(default_factory=list)
    timers_set: List[Tuple[str, float, Any]] = field(default_factory=list)
    timers_cancelled: List[str] = field(default_factory=list)


class Context:
    """Downcall interface every service context implements."""

    def now(self) -> float:
        raise NotImplementedError

    def send(self, dst: int, msg: Any) -> None:
        raise NotImplementedError

    def broadcast(self, dsts, msg: Any) -> None:
        """Send ``msg`` to each destination; contexts with a batched
        fast path override this, others get the equivalent loop."""
        for dst in dsts:
            self.send(dst, msg)

    def set_timer(self, name: str, delay: float, payload: Any = None) -> None:
        raise NotImplementedError

    def cancel_timer(self, name: str) -> None:
        raise NotImplementedError

    def choose(self, point: ChoicePoint) -> Any:
        raise NotImplementedError

    def choose_handler(self, src: int, msg: Any, specs: List[HandlerSpec]) -> HandlerSpec:
        raise NotImplementedError

    def random(self, stream: str) -> random.Random:
        raise NotImplementedError

    def record(self, category: str, **data: Any) -> None:
        raise NotImplementedError


class LiveContext(Context):
    """Context bound to a live node in the simulation."""

    def __init__(self, node) -> None:
        self.node = node
        # The four downcalls the node implements itself are bound, not
        # wrapped: a service's send reaches Node.send_out in one frame.
        self.send = node.send_out
        self.broadcast = node.broadcast_out
        self.set_timer = node.set_timer
        self.cancel_timer = node.cancel_timer
        self._streams: Dict[str, random.Random] = {}

    def now(self) -> float:
        # clock_skew is chaos-injected: the service's view of time can
        # drift from simulated truth, but scheduling stays exact.
        return self.node.sim.now + self.node.clock_skew

    def choose(self, point: ChoicePoint) -> Any:
        value = self.node.resolve_choice(point)
        # The choice event joins the current execution scope (see
        # CausalTracer.choice_event): everything this dispatch does
        # after the resolution is causally downstream of the choice,
        # so forensics can root explanation chains at choice points.
        tracer = self.node.sim.causal
        if tracer is not None:
            tracer.choice_event()
        self.record("choice.resolve", label=point.label, value=_compact(value),
                    n_candidates=len(point.candidates))
        return value

    def choose_handler(self, src: int, msg: Any, specs: List[HandlerSpec]) -> HandlerSpec:
        point = ChoicePoint(
            label=f"handler:{type(msg).__name__}",
            candidates=list(specs),
            node_id=self.node.node_id,
            info={"src": src, "msg": msg},
        )
        spec = self.node.resolve_choice(point)
        tracer = self.node.sim.causal
        if tracer is not None:
            tracer.choice_event()
        self.record("choice.handler", label=point.label, value=spec.name)
        return spec

    def random(self, stream: str) -> random.Random:
        # The registry hands out one object per name for the whole run,
        # so the node-scoped name is formatted once per stream.
        found = self._streams.get(stream)
        if found is None:
            found = self._streams[stream] = self.node.sim.rng.stream(
                f"node{self.node.node_id}.{stream}")
        return found

    def record(self, category: str, **data: Any) -> None:
        trace = self.node.sim.trace
        if trace.enabled:
            trace.record(self.node.sim.now, category, node=self.node.node_id, **data)


class SandboxContext(Context):
    """Context used inside model-checker exploration.

    ``choice_script`` is the sequence of values to return from
    successive ``choose`` calls (handler choices included); running past
    its end raises :class:`ChoiceRequested`.
    """

    def __init__(
        self,
        node_id: int,
        now: float = 0.0,
        choice_script: Optional[List[Any]] = None,
        rng_seed: int = 0,
    ) -> None:
        self.node_id = node_id
        self._now = now
        self.effects = Effects()
        self._script = list(choice_script or [])
        self._consumed: List[Any] = []
        self._rng_seed = rng_seed
        # Whether the handler observed the clock; the explorer's sleep
        # sets only trust clock-free handler runs, and its search memo
        # serves a clock-reading run only at the time it ran at.
        self.time_read = False

    def now(self) -> float:
        self.time_read = True
        return self._now

    def send(self, dst: int, msg: Any) -> None:
        self.effects.sent.append((dst, msg))

    def set_timer(self, name: str, delay: float, payload: Any = None) -> None:
        self.effects.timers_set.append((name, delay, payload))

    def cancel_timer(self, name: str) -> None:
        self.effects.timers_cancelled.append(name)

    def choose(self, point: ChoicePoint) -> Any:
        if self._script:
            value = self._script.pop(0)
            if value not in point.candidates:
                raise ChoiceError(
                    f"scripted value {value!r} not among candidates of {point.label!r}"
                )
            self._consumed.append(value)
            return value
        raise ChoiceRequested(point, list(self._consumed), self.time_read)

    def choose_handler(self, src: int, msg: Any, specs: List[HandlerSpec]) -> HandlerSpec:
        point = ChoicePoint(
            label=f"handler:{type(msg).__name__}",
            candidates=list(specs),
            node_id=self.node_id,
            info={"src": src},
        )
        return self.choose(point)

    def random(self, stream: str) -> random.Random:
        # Fresh deterministic stream per invocation: exploration must be
        # replayable, and draws must not leak between explored branches.
        return random.Random(derive_seed(self._rng_seed, f"sandbox:{self.node_id}:{stream}"))

    def record(self, category: str, **data: Any) -> None:
        # Exploration is silent; the explorer traces at a higher level.
        return None


def _compact(value: Any) -> Any:
    """Shrink a choice value for tracing (handler specs become names)."""
    if isinstance(value, HandlerSpec):
        return value.name
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    return type(value).__name__


__all__ = [
    "Context",
    "LiveContext",
    "SandboxContext",
    "Effects",
    "ChoiceRequested",
]
