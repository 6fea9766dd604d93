"""World states for model checking.

A :class:`WorldState` is CrystalBall's unit of exploration: the
checkpointed service state of every known node, the set of in-flight
messages, the pending timers, and which nodes are down.  Worlds are
plain data, cloneable, and hashable via a stable digest so the explorer
can recognize revisits.

Time in a world is an *estimate*: when the explorer is given a network
model it advances ``time`` by predicted delivery delays, turning the
model checker into a simulator (Section 3.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..statemachine.events import TimerAction
from ..statemachine.serialization import digest_of_frozen, freeze, snapshot_value


_MASK = (1 << 64) - 1


def _part(domain: str, frozen_value: Any) -> int:
    """64-bit hash of one part of a world.  A digest is the *sum* of its
    parts, so each is hashed with its domain (``"node"``, ``"msg"``,
    ``"timer"``, ``"down"``): a message and a timer with equal fields,
    or one state held by two different nodes, are different parts."""
    return int(digest_of_frozen((domain, frozen_value)), 16)


def _down_part(down: FrozenSet[int]) -> int:
    return _part("down", tuple(sorted(down)))


class _Event:
    """Memoized identity of an immutable message or timer: worlds along
    an exploration path share event objects, so each payload is frozen
    and hashed once per object lifetime instead of once per world visit."""

    _domain: str

    def key(self) -> Tuple:
        """Canonical identity used for matching and digests."""
        key = getattr(self, "_key", None)
        if key is None:
            key = self._identity()
            object.__setattr__(self, "_key", key)
        return key

    def part(self) -> int:
        """Hash of :meth:`key` (world-digest building block)."""
        cached = getattr(self, "_part", None)
        if cached is None:
            cached = _part(self._domain, self.key())
            object.__setattr__(self, "_part", cached)
        return cached


@dataclass(frozen=True)
class InFlightMessage(_Event):
    """A message sent but not yet delivered."""

    src: int
    dst: int
    msg: Any
    _domain = "msg"

    def _identity(self) -> Tuple:
        return (self.src, self.dst, freeze(self.msg))


@dataclass(frozen=True)
class PendingTimer(_Event):
    """An armed timer in some node's runtime.

    ``delay`` is the interval it was armed with, kept for performance
    estimation; in exploration any pending timer may fire next.
    """

    node: int
    name: str
    payload: Any
    delay: float = 0.0
    _domain = "timer"

    def _identity(self) -> Tuple:
        return (self.node, self.name, freeze(self.payload))

    def action(self) -> TimerAction:
        """The firing of this timer, built once per timer object, so
        the worlds that share the timer share its action and its key."""
        action = getattr(self, "_action", None)
        if action is None:
            action = TimerAction(node=self.node, name=self.name, payload=self.payload)
            object.__setattr__(self, "_action", action)
        return action


class WorldState:
    """A global snapshot: node states + in-flight events."""

    def __init__(
        self,
        node_states: Dict[int, Dict[str, Any]],
        inflight: Iterable[InFlightMessage] = (),
        timers: Iterable[PendingTimer] = (),
        down: Iterable[int] = (),
        time: float = 0.0,
        depth: int = 0,
        copy_states: bool = True,
    ) -> None:
        # State dicts inside a world are treated as immutable: services
        # are *restored* from them and copy a field before they first
        # read it, so nothing writes to them.  ``copy_states=False``
        # lets internal paths (clone/evolve, checkpoints) share them,
        # keeping successor generation O(changed node) instead of
        # O(all nodes).
        if copy_states:
            self.node_states = {
                nid: snapshot_value(state) for nid, state in node_states.items()
            }
        else:
            self.node_states = dict(node_states)
        self.inflight: List[InFlightMessage] = list(inflight)
        self.timers: List[PendingTimer] = list(timers)
        self.down: FrozenSet[int] = frozenset(down)
        self.time = time
        self.depth = depth
        # Digest bookkeeping (see digest()), built on first use, so a
        # world may be edited in place (``world.inflight.append``) until
        # it is first digested or evolved.  _cells is the per-node part
        # table, node id -> one-slot cell [part or None]: a cell is the
        # memo of one state-dict *object*, handed down to every successor
        # that keeps that dict, so whichever world freezes the state
        # first fills it for all of them.  _sum is ``(acc, owed)``: the
        # sum mod 2^64 of every event part, the down part and the part
        # of every node not in ``owed``; None until this world or an
        # ancestor is digested, so worlds nobody digests hash nothing.
        self._cells: Optional[Dict[int, List[Optional[int]]]] = None
        self._sum: Optional[Tuple[int, Tuple[int, ...]]] = None
        # Incremental property checking (see properties.pairwise):
        # _prop_parent is the world this one was evolved from,
        # _changed_nodes the ids whose state dicts differ from it, and
        # _prop_cache memoizes property verdicts by name.  with_down()
        # clears the parent link (the live set changed, so per-node
        # deltas no longer describe the difference).
        self._prop_cache: Dict[str, bool] = {}
        self._prop_parent: Optional["WorldState"] = None
        self._changed_nodes: set = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def node_ids(self) -> List[int]:
        """Known node ids, ascending."""
        return sorted(self.node_states)

    def state_of(self, node_id: int) -> Dict[str, Any]:
        """Checkpoint dict of one node (live reference, do not mutate)."""
        return self.node_states[node_id]

    def is_up(self, node_id: int) -> bool:
        """Whether the node is up in this world."""
        return node_id not in self.down

    def live_nodes(self) -> List[int]:
        """Known node ids that are up."""
        return [nid for nid in self.node_ids if nid not in self.down]

    def memo(self, slot: str, build: Callable[["WorldState"], Any]) -> Any:
        """``build(self)``, computed once and kept on this world — sound
        because a world is frozen once exploration reads it (the contract
        digesting already relies on)."""
        try:
            return self.__dict__[slot]
        except KeyError:
            value = self.__dict__[slot] = build(self)
            return value

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------

    def _derive(
        self,
        replaced: Dict[int, Dict[str, Any]],
        inflight: List[InFlightMessage],
        timers: List[PendingTimer],
        left: Iterable[Any] = (),
        arrived: Iterable[Any] = (),
    ) -> "WorldState":
        """A world that differs from this one by the given delta.

        ``replaced`` maps node ids to their new state dicts, ``inflight``
        and ``timers`` are the new event lists, ``left``/``arrived`` the
        events in only one of the two worlds.  The digest sum follows
        the delta: parts that left are subtracted, parts that arrived
        added, the replaced nodes owed until :meth:`digest` is called.
        """
        table = self._node_cells()
        summed = self._sum
        if summed is not None:
            acc, owed = summed
            for event in left:
                acc -= event.part()
            for event in arrived:
                acc += event.part()
            for nid in replaced:
                if nid not in owed:
                    if nid in table:
                        acc -= table[nid][0]
                    owed += (nid,)
            summed = (acc & _MASK, owed)
        successor = WorldState(self.node_states, inflight, timers, self.down,
                               self.time, self.depth, copy_states=False)
        if replaced:
            successor.node_states.update(replaced)
            table = dict(table)
            for nid in replaced:
                table[nid] = [None]
        successor._cells = table
        successor._sum = summed
        successor._prop_parent = self
        return successor

    def clone(self) -> "WorldState":
        """Copy (state dicts, messages and timers are immutable and shared)."""
        return self._derive({}, self.inflight, self.timers)

    def evolve(
        self,
        node_id: Optional[int] = None,
        new_state: Optional[Dict[str, Any]] = None,
        remove_inflight: Optional[InFlightMessage] = None,
        add_inflight: Iterable[InFlightMessage] = (),
        remove_timers: Iterable[Tuple[int, str]] = (),
        add_timers: Iterable[PendingTimer] = (),
        time_delta: float = 0.0,
        copy_state: bool = True,
    ) -> "WorldState":
        """Return a successor world with the given deltas applied.

        ``remove_inflight`` removes one instance matching by key (a
        multiset removal); ``remove_timers`` removes all timers with the
        given ``(node, name)``; ``add_timers`` then re-arms (so a re-armed
        timer supersedes its predecessor, matching live semantics).

        ``copy_state=False`` adopts ``new_state`` without snapshotting;
        only pass it for a checkpoint, a dict nothing will mutate: a
        ``Service.checkpoint()`` result, or a sandbox step's hand-over
        (``Explorer.sandbox_step``), whose untouched fields are shared
        with the world it stepped from.

        A ``new_state`` that *is* the node's current dict (what a sandbox
        step hands back when it changed nothing) replaces nothing: the
        node owes no digest part, keeps its cell and is not among the
        changed nodes incremental property checks revisit.
        """
        left: List[Any] = []
        inflight = self.inflight
        if remove_inflight is not None:
            target = remove_inflight.key()
            for index, message in enumerate(inflight):
                if message.key() == target:
                    inflight = inflight[:index] + inflight[index + 1:]
                    left.append(message)
                    break
            else:
                raise ValueError(f"message not in flight: {remove_inflight!r}")
        arrived: List[Any] = list(add_inflight)
        if arrived:
            inflight = inflight + arrived
        timers = self.timers
        added = list(add_timers)
        superseded = set(remove_timers)
        if added:
            superseded.update((t.node, t.name) for t in added)
        if superseded:
            # One pass; the node test first, since most timers belong to
            # other nodes and then need no (node, name) tuple.
            nodes = {node for node, _ in superseded}
            timers = []
            for timer in self.timers:
                if timer.node in nodes and (timer.node, timer.name) in superseded:
                    left.append(timer)
                else:
                    timers.append(timer)
            timers += added
            arrived += added
        replaced = {}
        if (node_id is not None and new_state is not None
                and new_state is not self.node_states.get(node_id)):
            replaced[node_id] = snapshot_value(new_state) if copy_state else new_state
        successor = self._derive(replaced, inflight, timers, left, arrived)
        successor._changed_nodes.update(replaced)
        successor.time = self.time + time_delta
        successor.depth = self.depth + 1
        return successor

    def with_down(self, down: Iterable[int]) -> "WorldState":
        """Copy of this world with a different down-set."""
        successor = self.clone()
        successor.down = frozenset(down)
        successor._prop_parent = None
        if successor._sum is not None:
            acc, owed = successor._sum
            acc += _down_part(successor.down) - _down_part(self.down)
            successor._sum = (acc & _MASK, owed)
        return successor

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    def _node_cells(self) -> Dict[int, List[Optional[int]]]:
        table = self._cells
        if table is None:
            table = self._cells = {nid: [None] for nid in self.node_states}
        return table

    def _node_part(self, node_id: int) -> int:
        """Hash of ``(node_id, state)``, memoized in the state's cell."""
        cell = self._node_cells()[node_id]
        part = cell[0]
        if part is None:
            part = cell[0] = _part("node", (node_id, freeze(self.node_states[node_id])))
        return part

    def digest(self) -> str:
        """Stable hex digest for visited-state tracking.

        An additive multiset hash: the sum mod 2^64 of one 64-bit part
        per ``(node id, state)``, per in-flight message, per pending
        timer, and one for the down-set (time and depth are
        bookkeeping, not protocol state).  A sum, not XOR, so two
        identical in-flight messages differ from none.  A successor
        inherits its parent's sum adjusted by its delta (see
        :meth:`_derive`), and only here is a changed node's state
        frozen and hashed — once per distinct state dict.
        """
        summed = self._sum
        if summed is None:
            acc = _down_part(self.down)
            for event in self.inflight:
                acc += event.part()
            for event in self.timers:
                acc += event.part()
            owed: Iterable[int] = self.node_states
        else:
            acc, owed = summed
        for nid in owed:
            acc += self._node_part(nid)
        acc &= _MASK
        self._sum = (acc, ())
        return f"{acc:016x}"

    def recompute_digest(self) -> str:
        """Digest recomputed from scratch, bypassing every cache.

        Test/debug oracle for the incremental-digest invariant:
        ``world.digest() == world.recompute_digest()`` must hold after
        any sequence of :meth:`evolve`/:meth:`with_down` steps.
        """
        return WorldState(
            self.node_states,
            [InFlightMessage(m.src, m.dst, m.msg) for m in self.inflight],
            [PendingTimer(t.node, t.name, t.payload, t.delay) for t in self.timers],
            self.down, copy_states=False,
        ).digest()

    def __repr__(self) -> str:
        return (
            f"WorldState(nodes={len(self.node_states)}, inflight={len(self.inflight)}, "
            f"timers={len(self.timers)}, down={sorted(self.down)}, depth={self.depth})"
        )


def world_from_services(services, node_hosts=None, time: float = 0.0) -> WorldState:
    """A read-only view of live service instances as a world; given
    their hosting nodes, also their pending timers and which are down.

    Zero-copy: each state is :meth:`Service.live_state`, so the view —
    and every world explored from it, since a step shares the fields
    its handler does not touch — is valid until the simulation next
    advances.  Worlds never mutate their states, and a service restored
    from one copies a field before it first reads it.  The digest
    equals that of a world built from ``checkpoint()`` copies.
    """
    node_states = {service.node_id: service.live_state() for service in services}
    timers: List[PendingTimer] = []
    down: List[int] = []
    for host in node_hosts or ():
        if not host.is_up:
            down.append(host.node_id)
        for name, deadline, payload in host.pending_timers():
            timers.append(
                PendingTimer(node=host.node_id, name=name, payload=payload,
                             delay=max(0.0, deadline - time))
            )
    return WorldState(node_states=node_states, timers=timers, down=down, time=time,
                      copy_states=False)


def cluster_view(cluster) -> WorldState:
    """:func:`world_from_services` over a running
    :class:`~repro.statemachine.Cluster` at the simulator's clock."""
    return world_from_services(cluster.services, cluster.nodes, time=cluster.sim.now)


__all__ = [
    "InFlightMessage",
    "PendingTimer",
    "WorldState",
    "cluster_view",
    "digest_of_frozen",
    "world_from_services",
]
