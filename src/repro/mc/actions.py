"""Actions the explorer can take from a world state.

Enabled actions mirror what can happen next in the real deployment:
delivering an in-flight message to one of its applicable handlers or
firing a pending timer (the events a live node dispatches, defined in
:mod:`repro.statemachine.events`), or dropping a message (universally
possible under the fault model, and exactly what execution steering
exploits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from ..statemachine.events import DeliverAction, TimerAction, _memoized_key
from ..statemachine.serialization import freeze


@dataclass(frozen=True)
class DropAction:
    """Lose an in-flight message (fault-model action)."""

    src: int
    dst: int
    msg: Any

    def key(self) -> Tuple:
        return _memoized_key(
            self, lambda: ("drop", self.src, self.dst, freeze(self.msg))
        )

    def describe(self) -> str:
        return f"drop {type(self.msg).__name__} {self.src}->{self.dst}"


Action = Any  # union of the dataclasses above


__all__ = [
    "DeliverAction",
    "TimerAction",
    "DropAction",
    "Action",
]
