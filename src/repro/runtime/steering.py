"""Execution steering: event filters.

"If consequence prediction does not find any new inconsistencies due to
execution steering, the controller installs an event filter into the
runtime.  In case of messages, the event filter works by dropping the
offending message and breaking the connection with the message sender"
(Section 2).  :func:`steer` is the one place a predicted violation
becomes a filter; :class:`SteeringModule` holds the installed filters,
and the runtime consults it on every inbound message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..mc import DeliverAction, PredictionReport, WorldState, violated_properties
from ..obs import MetricsRegistry
from ..statemachine.serialization import freeze

# Sim-seconds a filter stays live after the prediction that installed
# or last refreshed it.
FILTER_TTL = 10.0


@dataclass
class EventFilter:
    """Drop inbound messages from ``src`` whose frozen form is ``msg_key``."""

    src: int
    msg_key: Tuple
    expires_at: float
    reason: str = ""
    # The predicted violation path (action descriptions) that caused
    # this filter: the forensics layer renders it as the predicted
    # continuation of a steering explanation.
    predicted_path: Tuple[str, ...] = ()


class SteeringModule:
    """Holds and evaluates the node's installed event filters.

    Counters live in a :class:`~repro.obs.MetricsRegistry` (a private
    one by default; pass a shared registry plus ``node`` label to
    aggregate per cluster).  A filtered message and a new filter are
    counted once, as ``runtime.steered_messages`` and
    ``runtime.filters_installed``: the runtime's ``stats`` reads the
    same counters.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        node: Optional[int] = None,
    ) -> None:
        self._filters: List[EventFilter] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        labels = {} if node is None else {"node": node}
        self._filtered = self.metrics.counter("runtime.steered_messages", **labels)
        self._installed = self.metrics.counter("runtime.filters_installed", **labels)
        self._refreshed = self.metrics.counter("steering.refreshed", **labels)

    @property
    def filtered_count(self) -> int:
        """Messages dropped by a live filter so far."""
        return self._filtered.value

    def install(self, event_filter: EventFilter) -> bool:
        """Install one filter (duplicates by (src, key) are refreshed).

        Returns ``True`` when a *new* filter was added, ``False`` when
        an existing filter merely had its TTL refreshed — callers
        counting installations must not count refreshes.
        """
        for existing in self._filters:
            if (existing.src, existing.msg_key) == (event_filter.src, event_filter.msg_key):
                existing.expires_at = max(existing.expires_at, event_filter.expires_at)
                existing.reason = event_filter.reason
                if event_filter.predicted_path:
                    existing.predicted_path = event_filter.predicted_path
                self._refreshed.inc()
                return False
        self._filters.append(event_filter)
        self._installed.inc()
        return True

    def matches(self, src: int, msg: Any, now: float) -> Optional[EventFilter]:
        """The first live filter matching this inbound message, if any."""
        self.prune(now)
        for event_filter in self._filters:
            if event_filter.src == src and freeze(msg) == event_filter.msg_key:
                self._filtered.inc()
                return event_filter
        return None

    def prune(self, now: float) -> None:
        """Drop expired filters."""
        self._filters = [f for f in self._filters if f.expires_at > now]

    @property
    def active_filters(self) -> List[EventFilter]:
        """Currently-installed filters (possibly including expired ones
        not yet pruned)."""
        return list(self._filters)

    def snapshot(self) -> dict:
        """Refreshes and the active-filter count, for metrics sections
        (filtered messages and new filters are in the runtime's
        ``stats``)."""
        return {
            "refreshed": self._refreshed.value,
            "active_filters": len(self._filters),
        }

    def __len__(self) -> int:
        return len(self._filters)


def steer(runtime: Any, report: PredictionReport, world: WorldState) -> None:
    """Turn one prediction round's predicted violations into filters.

    ``runtime`` supplies the node, ``properties``, ``steering`` (its
    :class:`SteeringModule`, which counts new filters) and
    ``resolver``.  CrystalBall "checks whether it is safe to steer
    execution away from the possible inconsistency": dropping a message
    and breaking a connection only *remove* behaviours, so steering is
    safe exactly when the present state satisfies every property;
    otherwise it traces ``runtime.steer_impossible``.
    """
    unsafe = [o for o in report.outcomes if not o.is_safe]
    if not unsafe:
        return
    node = runtime.node
    now = node.sim.now
    if violated_properties(world, runtime.properties):
        node.sim.trace.record(
            now, "runtime.steer_impossible", node=node.node_id, unsafe=len(unsafe),
        )
        return
    for outcome in unsafe:
        for violation in outcome.violations:
            # We can only prevent events at this node: filter the last
            # inbound delivery to us on the violating path.
            action = next((
                a for a in reversed(violation.path)
                if isinstance(a, DeliverAction) and a.dst == node.node_id
            ), None)
            if action is None:
                continue
            newly_installed = runtime.steering.install(EventFilter(
                src=action.src,
                msg_key=freeze(action.msg),
                expires_at=now + FILTER_TTL,
                reason=violation.property_name,
                predicted_path=tuple(a.describe() for a in violation.path),
            ))
            # A repeated prediction only refreshes the filter's TTL.  A
            # new filter changes what deliveries reach the service, so
            # rankings distilled without it are no longer trustworthy.
            if newly_installed:
                runtime.resolver.invalidate("steering")
            node.sim.trace.record(
                now, "runtime.filter_installed", node=node.node_id,
                src=action.src, msg=type(action.msg).__name__,
                reason=violation.property_name,
            )


__all__ = ["EventFilter", "FILTER_TTL", "SteeringModule", "steer"]
