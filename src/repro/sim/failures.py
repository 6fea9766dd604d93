"""Node liveness registry and failure injection.

The case study in the paper fails an entire subtree of the overlay
(about half the nodes) and lets it rejoin.  :class:`LivenessRegistry`
is the single source of truth for which nodes are up: the network
consults it before delivering, and services consult it before acting.
Observers (e.g. a service's failure detector) can subscribe to
transitions.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Optional, Set

Observer = Callable[[int, bool], None]


class LivenessRegistry:
    """Tracks which node ids are currently up.

    Nodes are up by default; :meth:`fail` and :meth:`recover` flip the
    state and notify observers with ``(node_id, is_up)``.  ``trace`` (a
    :class:`~repro.sim.trace.TraceLog`, attached by the network) is
    where misbehaving observers are reported; :attr:`crash_counts`
    records how many times each node has failed, which crash-recovery
    experiments read to distinguish first boots from re-incarnations.
    """

    def __init__(self, trace=None) -> None:
        self._down: Set[int] = set()
        self._observers: List[Observer] = []
        self.trace = trace
        self.clock: Optional[Callable[[], float]] = None
        self.crash_counts: Counter = Counter()
        self.notify_errors = 0

    def is_up(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently up."""
        return node_id not in self._down

    @property
    def down_nodes(self) -> Set[int]:
        """A copy of the set of currently-failed node ids."""
        return set(self._down)

    def fail(self, node_id: int) -> None:
        """Mark ``node_id`` as crashed; no-op if already down."""
        if node_id in self._down:
            return
        self._down.add(node_id)
        self.crash_counts[node_id] += 1
        self._notify(node_id, False)

    def recover(self, node_id: int) -> None:
        """Mark ``node_id`` as up again; no-op if already up."""
        if node_id not in self._down:
            return
        self._down.discard(node_id)
        self._notify(node_id, True)

    def subscribe(self, observer: Observer) -> None:
        """Register a callback invoked as ``observer(node_id, is_up)``."""
        self._observers.append(observer)

    def _notify(self, node_id: int, is_up: bool) -> None:
        # One raising observer (a buggy failure detector) must not wedge
        # the registry or starve observers registered after it: the
        # error is traced and notification continues.
        for observer in list(self._observers):
            try:
                observer(node_id, is_up)
            except Exception as exc:  # noqa: BLE001 — isolate observers
                self.notify_errors += 1
                if self.trace is not None:
                    now = self.clock() if self.clock is not None else 0.0
                    self.trace.record(
                        now, "liveness.observer_error", node=node_id,
                        is_up=is_up, error=f"{type(exc).__name__}: {exc}",
                    )

    def __repr__(self) -> str:
        return f"LivenessRegistry(down={sorted(self._down)})"


__all__ = ["LivenessRegistry"]
