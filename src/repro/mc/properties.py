"""Safety properties over world states.

"Systems such as MaceMC and CrystalBall already contain the ability to
specify safety and liveness properties" (Section 3.2).  A
:class:`SafetyProperty` is a named predicate over a
:class:`~repro.mc.world.WorldState`; the explorer evaluates the full
set at every state it visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List

Predicate = Callable[[Any], bool]


@dataclass(frozen=True)
class SafetyProperty:
    """A predicate that must hold in every reachable state."""

    name: str
    predicate: Predicate

    def holds(self, world: Any) -> bool:
        """Whether the property holds in ``world``."""
        return bool(self.predicate(world))


def violated_properties(world: Any, properties: Iterable[SafetyProperty]) -> List[str]:
    """Names of all properties violated in ``world``."""
    return [prop.name for prop in properties if not prop.holds(world)]


def _live_pairs(world: Any):
    """``(node_id, state)`` pairs of the world's live nodes, hoisted
    out of the per-pair loops (one attribute walk per check, not per
    predicate call)."""
    node_states = getattr(world, "node_states", None)
    if node_states is None:
        return [(nid, world.state_of(nid)) for nid in world.live_nodes()]
    down = world.down
    if down:
        return [(nid, s) for nid, s in node_states.items() if nid not in down]
    return list(node_states.items())


def _incremental_basis(world: Any, name: str):
    """``(changed_node_ids, own_cache)`` when ``world`` differs from a
    parent world that already satisfied property ``name``, else
    ``(None, own_cache)``.

    Built on the bookkeeping :class:`~repro.mc.world.WorldState`
    maintains (``_prop_parent``/``_changed_nodes``/``_prop_cache``); any
    world-like object without it simply gets the full scan.  Sound
    because worlds evolved from a parent share every unchanged node's
    state dict by reference: a per-node (or per-pair) predicate can only
    change its verdict at a changed node.
    """
    cache = getattr(world, "_prop_cache", None)
    parent = getattr(world, "_prop_parent", None)
    changed = getattr(world, "_changed_nodes", None)
    if parent is None or changed is None:
        return None, cache
    if getattr(parent, "_prop_cache", {}).get(name) is not True:
        return None, cache
    return changed, cache


def all_nodes(predicate: Callable[[int, dict], bool], name: str) -> SafetyProperty:
    """Property: ``predicate(node_id, state)`` holds at every live node.

    Evaluation is incremental where possible: if the world's parent
    satisfied the property and only some nodes' states changed, only
    the changed nodes are re-checked.
    """

    def check(world: Any) -> bool:
        changed, cache = _incremental_basis(world, name)
        if cache is not None and name in cache:
            return cache[name]
        if changed is not None:
            result = all(
                predicate(nid, world.state_of(nid)) for nid in changed
                if world.is_up(nid) and nid in world.node_states
            )
        else:
            result = all(predicate(nid, s) for nid, s in _live_pairs(world))
        if cache is not None:
            cache[name] = result
        return result

    return SafetyProperty(name=name, predicate=check)


def pairwise(predicate: Callable[[int, dict, int, dict], bool], name: str) -> SafetyProperty:
    """Property: ``predicate`` holds for every ordered pair of live nodes.

    This is the shape of CrystalBall's cross-node consistency
    properties (e.g. "if b lists a as a child, a's parent is b").

    Evaluation is incremental where possible: a world whose parent
    satisfied the property and which differs only in some nodes'
    states re-checks only the ordered pairs involving a changed node —
    O(changed * live) predicate calls instead of O(live^2).
    """

    def check(world: Any) -> bool:
        changed, cache = _incremental_basis(world, name)
        if cache is not None and name in cache:
            return cache[name]
        states = _live_pairs(world)
        result = True
        if changed is not None:
            for c in changed:
                if not world.is_up(c) or c not in world.node_states:
                    continue
                sc = world.state_of(c)
                for other, so in states:
                    if other == c:
                        continue
                    if not predicate(c, sc, other, so) or not predicate(other, so, c, sc):
                        result = False
                        break
                if not result:
                    break
        else:
            for a, sa in states:
                for b, sb in states:
                    if a == b:
                        continue
                    if not predicate(a, sa, b, sb):
                        result = False
                        break
                if not result:
                    break
        if cache is not None:
            cache[name] = result
        return result

    return SafetyProperty(name=name, predicate=check)


__all__ = ["SafetyProperty", "violated_properties", "all_nodes", "pairwise"]
