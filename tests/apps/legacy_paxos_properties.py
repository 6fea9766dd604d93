"""The Paxos safety predicates as they were before they compared by
identity and skipped a log that is a prefix of one already checked.

``_one_value_per_instance`` and ``_accepted_coherent`` compared every
value element by element, and ``_executed_once`` hashed every replica's
whole ``executed`` log.  They are kept here, and only here, as the
oracle: the current predicates must give the same verdict on every
world.  They are the old bodies verbatim.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple


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
