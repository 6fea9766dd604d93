"""The two events a handler runs on: a message delivery and a timer firing.

A live node records the dispatch it is running as one of these
(:class:`~repro.statemachine.node.DispatchRecord`) and the model checker
steps the same values; ``dispatch`` enters the service as a node does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from .serialization import freeze


def _memoized_key(action: Any, build) -> Tuple:
    """Cache an action's key on the (frozen) instance.

    Keys are consulted repeatedly on the prediction hot path (causal
    frontiers, report indexing, steering dedup); the payload ``freeze``
    should run once per action object, not once per consultation.
    """
    key = getattr(action, "_key", None)
    if key is None:
        key = build()
        object.__setattr__(action, "_key", key)
    return key


@dataclass(frozen=True)
class DeliverAction:
    """Deliver a message to ``dst``: to the applicable handler named
    ``handler``, or, with ``handler`` None, to the one the context picks."""

    src: int
    dst: int
    msg: Any
    handler: Optional[str] = None

    def key(self) -> Tuple:
        """Stable identity (used by steering filters and dedup)."""
        return _memoized_key(
            self, lambda: ("deliver", self.src, self.dst, freeze(self.msg), self.handler)
        )

    def describe(self) -> str:
        return f"deliver {type(self.msg).__name__} {self.src}->{self.dst} via {self.handler}"

    def dispatch(self, service) -> None:
        service.deliver(self.src, self.msg, self.handler)


@dataclass(frozen=True)
class TimerAction:
    """Fire a pending timer at ``node``."""

    node: int
    name: str
    payload: Any = None

    def key(self) -> Tuple:
        return _memoized_key(
            self, lambda: ("timer", self.node, self.name, freeze(self.payload))
        )

    def describe(self) -> str:
        return f"timer {self.name} at {self.node}"

    def dispatch(self, service) -> None:
        service.fire_timer(self.name, self.payload)


__all__ = ["DeliverAction", "TimerAction"]
