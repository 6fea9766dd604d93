"""Cross-round memoization of consequence-prediction chains.

The steady-state prediction loop re-explores the full causal chain of
every enabled action each period even though consecutive snapshot
worlds are nearly identical — the same amortize-across-invocations
insight behind the paper's Section 3.4 "choices based on previous
similar scenarios" fast path, applied to exploration itself instead of
choice resolution.

A :class:`ChainMemo` caches, per initial action key, the outcome of
one chain exploration together with its *causal footprint*: digests of
exactly the world inputs the chain read —

* the states of every node it materialized (plus the down set);
* the property-verdict environment its safety checks depended on;
* the root's time and the network-model delays, when the chain
  observed the clock;
* the ``(key, delay)`` sequence of root timers it re-armed or fired;
* the root's in-flight-message and pending-timer key sequences
  restricted to the chain's event universe (order matters: scan order
  determines action order, which determines report serialization).

On the next round the footprint is re-evaluated against the new root;
if every component matches, the cached outcome is *rebased* onto the
new root by replaying stored per-world deltas (changed node states,
event multiset diffs), producing worlds byte-identical — digest for
digest — to what a fresh exploration would have built.  Anything else
is a miss and the chain is re-explored.

Budget accounting stays deterministic: an entry records the budget it
ran under, whether it was truncated, and the maximum in-progress state
count at any budget check; it is reused only for budgets that provably
take the identical truncation path.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from .actions import Action
from .explorer import Explorer, Violation
from .world import InFlightMessage, PendingTimer, WorldState

ENV_NONE = 0
ENV_STATES = 1
ENV_WORLD = 2

# Chains kept per initial action: distinct footprints (budgets, roots)
# of the same action coexist up to this many, oldest dropped first.
_VARIANTS_PER_ACTION = 4


class ChainRecorder:
    """Collects the causal footprint of one chain exploration.

    Installed on the :class:`~repro.mc.explorer.Explorer` as
    ``explorer.recorder`` for the duration of a single chain; the
    explorer's materialization, enumeration, delay, and rearm paths
    feed it, and ``_explore_chain`` feeds the event universe and the
    budget-accounting fields.
    """

    __slots__ = ("nodes", "events", "rearms", "delays", "time_read",
                 "truncated", "max_pending")

    def __init__(self) -> None:
        self.nodes: Set[int] = set()
        self.events: Set[Tuple] = set()
        self.rearms: Set[Tuple[int, str]] = set()
        self.delays: List[Tuple[int, int, int, float]] = []
        self.time_read = False
        self.truncated = False
        # Highest outcome.states seen at a budget check with work still
        # stacked; any budget strictly above it provably never truncates.
        self.max_pending = -1


@dataclass(frozen=True)
class Footprint:
    """What a cached chain read, as a recomputable specification."""

    nodes: Tuple[int, ...]
    env_level: int
    prop_gates: Tuple[str, ...]
    time_read: bool
    rearms: FrozenSet[Tuple[int, str]]
    events: FrozenSet[Tuple]
    delays: Tuple[Tuple[int, int, int, float], ...]


@dataclass
class _WorldPatch:
    """Delta from a root world to one stored chain world."""

    states: Dict[int, Dict[str, Any]]
    # Memo cells of ``states`` (WorldState._cells), shared by every
    # rebase: a patched state is frozen at most once, if ever.
    cells: Dict[int, List[Optional[int]]]
    removed_msgs: Tuple[Tuple, ...]
    added_msgs: Tuple[InFlightMessage, ...]
    removed_timers: Tuple[Tuple[Tuple, float], ...]
    added_timers: Tuple[PendingTimer, ...]
    dt: float
    ddepth: int


@dataclass
class _CachedChain:
    """One memoized chain exploration."""

    footprint: Footprint
    value: Tuple
    budget_given: int
    truncated: bool
    max_pending: int
    states: int
    leaf_patches: Tuple[_WorldPatch, ...]
    violations: Tuple[Tuple[str, Tuple[Action, ...], _WorldPatch], ...]


# ----------------------------------------------------------------------
# Footprint evaluation
# ----------------------------------------------------------------------

def _ordered_msg_keys(world: WorldState) -> List[Tuple]:
    return world.memo("_memo_msg_keys", lambda w: [m.key() for m in w.inflight])


def _ordered_timer_keys(world: WorldState) -> List[Tuple]:
    return world.memo("_memo_timer_keys", lambda w: [t.key() for t in w.timers])


def _states_env(world: WorldState) -> Tuple:
    """Hash of every node state plus the down set."""
    return world.memo("_memo_env", lambda w: (
        tuple((nid, w._node_part(nid)) for nid in sorted(w.node_states)),
        tuple(sorted(w.down)),
    ))


def footprint_value(root: WorldState, fp: Footprint) -> Tuple:
    """Evaluate a footprint specification against a root world.

    Computed identically at store time (against the old root) and at
    lookup time (against the new root); equality of the two values is
    the reuse condition (property gates and delay drift are checked
    separately — they are predicates, not values).
    """
    parts: List[Any] = [root.down]
    node_states = root.node_states
    parts.append(tuple(
        (nid, root._node_part(nid) if nid in node_states else None)
        for nid in fp.nodes
    ))
    if fp.env_level == ENV_STATES:
        parts.append(_states_env(root))
    elif fp.env_level == ENV_WORLD:
        parts.append((root.digest(), root.time))
    if fp.time_read:
        parts.append(root.time)
    if fp.rearms:
        rearms = fp.rearms
        parts.append(tuple(
            (t.key(), t.delay) for t in root.timers if (t.node, t.name) in rearms
        ))
    if fp.events:
        events = fp.events
        parts.append(tuple(k for k in _ordered_msg_keys(root) if k in events))
        parts.append(tuple(k for k in _ordered_timer_keys(root) if k in events))
    return tuple(parts)


def _gates_open(root: WorldState, fp: Footprint) -> bool:
    """Whether every gated property verdict holds at the new root."""
    if not fp.prop_gates:
        return True
    cache = getattr(root, "_prop_cache", None)
    if not cache:
        return False
    return all(cache.get(name) is True for name in fp.prop_gates)


def _delays_match(fp: Footprint, network_model) -> bool:
    """Re-verify recorded delivery delays against the (possibly
    mutated) network model — only needed when the chain read time."""
    if not fp.time_read or not fp.delays:
        return True
    if network_model is None:
        return True
    transfer_time = network_model.transfer_time
    for src, dst, size, delay in fp.delays:
        if transfer_time(src, dst, size) != delay:
            return False
    return True


# ----------------------------------------------------------------------
# World patching
# ----------------------------------------------------------------------

def _timer_id(timer: PendingTimer) -> Tuple:
    return (timer.key(), timer.delay)


def _multiset_delta(before: List, after: List, identity) -> Tuple[Tuple, Tuple]:
    """``(identities removed, items added)`` taking ``before`` to ``after``."""
    had = Counter(map(identity, before))
    has = Counter(map(identity, after))
    added: List[Any] = []
    pending = has - had
    if pending:
        # Reverse scan: chain-created events sit at the tail, and an
        # identity present in both root and chain worlds must resolve to
        # the chain's instances (last occurrences), preserving list order.
        for item in reversed(after):
            ident = identity(item)
            if pending.get(ident, 0) > 0:
                pending[ident] -= 1
                added.append(item)
        added.reverse()
    return tuple((had - has).elements()), tuple(added)


def _make_patch(root: WorldState, world: WorldState) -> _WorldPatch:
    """Delta that rebuilds ``world`` from ``root`` (or any root whose
    footprint-relevant parts are identical)."""
    root_states = root.node_states
    states = {
        nid: s for nid, s in world.node_states.items()
        if root_states.get(nid) is not s
    }
    world_cells = world._node_cells()
    removed_msgs, added_msgs = _multiset_delta(
        root.inflight, world.inflight, InFlightMessage.key)
    removed_timers, added_timers = _multiset_delta(root.timers, world.timers, _timer_id)
    return _WorldPatch(
        states=states,
        cells={nid: world_cells[nid] for nid in states},
        removed_msgs=removed_msgs,
        added_msgs=added_msgs,
        removed_timers=removed_timers,
        added_timers=added_timers,
        dt=world.time - root.time,
        ddepth=world.depth - root.depth,
    )


def _pop_matching(items: List, identity, wanted: Tuple) -> Any:
    for index, item in enumerate(items):
        if identity(item) == wanted:
            return items.pop(index)
    raise LookupError(f"event to remove not in root: {wanted!r}")


def _apply_patch(root: WorldState, patch: _WorldPatch) -> WorldState:
    """Rebase a stored chain world onto a new root.

    Produces a world digest-identical to what re-exploring the chain
    from ``root`` would have built, at O(delta) cost: the rebased
    world's digest is the root's adjusted by the patch's parts.
    """
    inflight = list(root.inflight)
    left = [_pop_matching(inflight, InFlightMessage.key, key)
            for key in patch.removed_msgs]
    inflight.extend(patch.added_msgs)
    timers = list(root.timers)
    left += [_pop_matching(timers, _timer_id, tid) for tid in patch.removed_timers]
    timers.extend(patch.added_timers)
    world = root._derive(patch.states, inflight, timers, left,
                         patch.added_msgs + patch.added_timers, cells=patch.cells)
    world._prop_parent = None
    world.time = root.time + patch.dt
    world.depth = root.depth + patch.ddepth
    return world


# ----------------------------------------------------------------------
# The memo
# ----------------------------------------------------------------------

class ChainMemo:
    """LRU cache of chain explorations keyed by initial action.

    ``bind()`` ties the memo to an exploration configuration and
    flushes it when the configuration changes; ``invalidate()`` is the
    hook for external world-model changes (topology, chaos, steering
    installs) that footprints cannot see.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, List[_CachedChain]]" = OrderedDict()
        self._count = 0
        self._config: Optional[Tuple] = None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0
        self.invalidation_reasons: Dict[str, int] = {}
        self.rebase_errors = 0

    def __len__(self) -> int:
        return self._count

    def bind(self, config: Tuple) -> None:
        """Flush if the exploration configuration changed."""
        if self._config is not None and self._config != config:
            self.invalidate()
        self._config = config

    def invalidate(self, reason: str = "") -> None:
        """Drop every entry (topology/chaos/steering changed)."""
        if self._entries:
            self.invalidations += 1
            if reason:
                self.invalidation_reasons[reason] = (
                    self.invalidation_reasons.get(reason, 0) + 1
                )
        self._entries.clear()
        self._count = 0

    # -- read path ------------------------------------------------------

    def lookup(
        self,
        root: WorldState,
        action: Action,
        budget: int,
        explorer: Explorer,
    ) -> Optional[Tuple[int, List[Violation], List[WorldState]]]:
        """``(states, violations, leaf_worlds)`` rebased onto ``root``
        if a cached chain's footprint matches, else ``None``."""
        key = action.key()
        chains = self._entries.get(key)
        if chains:
            self._entries.move_to_end(key)
        for chain in reversed(chains or ()):  # newest first
            if not (budget == chain.budget_given
                    or (not chain.truncated and budget > chain.max_pending)):
                continue
            fp = chain.footprint
            if not _gates_open(root, fp):
                continue
            if footprint_value(root, fp) != chain.value:
                continue
            if not _delays_match(fp, explorer.network_model):
                continue
            rebased = self._rebase(root, chain)
            if rebased is None:
                continue
            self.hits += 1
            return rebased
        self.misses += 1
        return None

    def _rebase(
        self, root: WorldState, chain: _CachedChain
    ) -> Optional[Tuple[int, List[Violation], List[WorldState]]]:
        try:
            violations = [
                Violation(property_name=name, path=path,
                          world=_apply_patch(root, patch))
                for name, path, patch in chain.violations
            ]
            leaves = [_apply_patch(root, patch) for patch in chain.leaf_patches]
        except Exception:
            # A footprint mismatch the value comparison failed to catch
            # would be a bug; degrade to a miss rather than crash the
            # prediction loop, and count it so tests can assert zero.
            self.rebase_errors += 1
            return None
        return chain.states, violations, leaves

    # -- write path -----------------------------------------------------

    def store(
        self,
        root: WorldState,
        action: Action,
        budget: int,
        outcome,
        recorder: ChainRecorder,
        explorer: Explorer,
    ) -> None:
        """Memoize a freshly explored chain with its footprint."""
        env = ENV_NONE
        gates: List[str] = []
        cache = getattr(root, "_prop_cache", {})
        violated = {v.property_name for v in outcome.violations}
        for prop in explorer.properties:
            scope = getattr(prop, "scope", "world")
            if scope == "nodes":
                # Chains downstream of a violated per-node property do
                # full scans; so do chains rooted where the verdict was
                # not already True.  Either escalates to the full-state
                # environment; otherwise the root verdict is the gate.
                if cache.get(prop.name) is True and prop.name not in violated:
                    gates.append(prop.name)
                else:
                    env = max(env, ENV_STATES)
            elif scope == "states":
                env = max(env, ENV_STATES)
            else:
                env = max(env, ENV_WORLD)
        fp = Footprint(
            nodes=tuple(sorted(recorder.nodes)),
            env_level=env,
            prop_gates=tuple(gates),
            time_read=recorder.time_read,
            rearms=frozenset(recorder.rearms),
            events=frozenset(recorder.events),
            delays=tuple(recorder.delays),
        )
        chain = _CachedChain(
            footprint=fp,
            value=footprint_value(root, fp),
            budget_given=budget,
            truncated=recorder.truncated,
            max_pending=recorder.max_pending,
            states=outcome.states,
            leaf_patches=tuple(
                _make_patch(root, world) for world in outcome.leaf_worlds
            ),
            violations=tuple(
                (v.property_name, v.path, _make_patch(root, v.world))
                for v in outcome.violations
            ),
        )
        key = action.key()
        chains = self._entries.get(key)
        if chains is None:
            chains = self._entries[key] = []
        chains.append(chain)
        self._count += 1
        self._entries.move_to_end(key)
        while len(chains) > _VARIANTS_PER_ACTION:
            chains.pop(0)
            self._count -= 1
            self.evictions += 1
        while self._count > self.max_entries and len(self._entries) > 1:
            old_key, old_chains = self._entries.popitem(last=False)
            if old_key == key:
                # Never evict the entry just stored; put it back.
                self._entries[old_key] = old_chains
                self._entries.move_to_end(old_key)
                break
            self._count -= len(old_chains)
            self.evictions += len(old_chains)
        self.stores += 1

    # -- reporting ------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Memo effectiveness counters, JSON-able."""
        return {
            "entries": self._count,
            "actions": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "invalidation_reasons": dict(self.invalidation_reasons),
            "rebase_errors": self.rebase_errors,
            "hit_rate": self.hit_rate,
        }


__all__ = ["ChainMemo", "ChainRecorder", "Footprint", "footprint_value"]
