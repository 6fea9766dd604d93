"""Paxos safety properties, each written once and used by every
checker: live probes and fuzz targets over :func:`~repro.mc.cluster_view`,
the explorer over the worlds it reaches.  Each reads every replica, up
or down: a crashed replica's decisions still count.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ...mc.properties import SafetyProperty


def _one_value_per_instance(world: Any) -> bool:
    decided: Dict[Any, tuple] = {}
    for node_id in world.node_ids:
        for instance, value in world.state_of(node_id).get("chosen", {}).items():
            value = tuple(value)
            if decided.setdefault(instance, value) != value:
                return False
    return True


def _executed_once(world: Any) -> bool:
    # A command chosen in two instances (recovery re-proposes it) must
    # still apply once.  Commands are tuples: the log is hashed as is.
    for node_id in world.node_ids:
        executed = world.state_of(node_id).get("executed", ())
        if len(executed) != len(set(executed)):
            return False
    return True


def _accepted_coherent(world: Any) -> bool:
    # Precursors of an agreement break, a delivery or two ahead of it:
    # an accepted value conflicting with one chosen elsewhere, or two
    # values accepted at one (instance, ballot).
    chosen: Dict[int, tuple] = {}
    for node_id in world.node_ids:
        for instance, value in world.state_of(node_id).get("chosen", {}).items():
            chosen[int(instance)] = tuple(value)
    seen: Dict[Tuple[int, Any], tuple] = {}
    for node_id in world.node_ids:
        for instance, acc in world.state_of(node_id).get("accepted", {}).items():
            instance = int(instance)
            ballot, value = acc[0], tuple(acc[1])
            if instance in chosen and value != chosen[instance]:
                return False
            if seen.setdefault((instance, ballot), value) != value:
                return False
    return True


#: No instance is decided differently at two replicas.
AGREEMENT = SafetyProperty("paxos-agreement", _one_value_per_instance)
#: No replica's in-order execution sequence applies a command twice.
AT_MOST_ONCE = SafetyProperty("paxos-at-most-once", _executed_once)
#: The near-violation canary the fuzzer climbs toward agreement breaks.
ACCEPTED_COHERENT = SafetyProperty("near:accepted-coherent", _accepted_coherent)
#: What a run must never break: checked by T1's probes and A7's sweep.
SAFETY = (AGREEMENT, AT_MOST_ONCE)


__all__ = [
    "ACCEPTED_COHERENT",
    "AGREEMENT",
    "AT_MOST_ONCE",
    "SAFETY",
]
