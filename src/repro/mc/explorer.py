"""Explicit-state exploration of world states.

The :class:`Explorer` enumerates what can happen next from a world
(deliveries per applicable handler, timer firings, optional drops and
generic-node injections), computes successor worlds by running the real
handler code in a sandbox, and performs bounded BFS with visited-state
hashing.  Exposed choices inside handlers are *branching points*: every
candidate value yields its own successor (Section 3.1's
non-deterministic automaton semantics).

Given a :class:`~repro.model.NetworkModel`, successor worlds advance
their time estimate by predicted delivery delays — "integrating this
information into a state-space exploration algorithm turns a model
checker into a simulator" (Section 3.3.2).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..statemachine.context import ChoiceRequested, SandboxContext
from ..statemachine.service import Service
from .actions import Action, DeliverAction, DropAction, InjectAction, TimerAction
from .properties import SafetyProperty, violated_properties
from .world import InFlightMessage, PendingTimer, WorldState

ServiceFactory = Callable[[int], Service]

DEFAULT_STEP_TIME = 0.05


class ExplorationError(Exception):
    """Raised on malformed exploration requests."""


@dataclass
class Violation:
    """A safety property violated along an explored path."""

    property_name: str
    path: Tuple[Action, ...]
    world: WorldState

    @property
    def initial_action(self) -> Action:
        """The first action of the violating path (what steering must avoid)."""
        return self.path[0]

    def describe(self) -> str:
        steps = " ; ".join(a.describe() for a in self.path)
        return f"{self.property_name} after [{steps}]"


@dataclass
class ExplorationResult:
    """Outcome of a bounded BFS.

    ``pruned`` counts enabled actions the search skipped because a
    sleep set showed their successors were already reached, ``reused``
    the deliver/timer steps whose successors were built from the
    search's memo instead of running the handler: together they say why
    ``transitions`` is below an unreduced search's.
    """

    states_explored: int = 0
    transitions: int = 0
    violations: List[Violation] = field(default_factory=list)
    max_depth: int = 0
    truncated: bool = False
    pruned: int = 0
    reused: int = 0

    @property
    def found_violation(self) -> bool:
        return bool(self.violations)


class ServicePool:
    """Per-node service instances reused across materializations.

    The seed hot path re-ran the factory (plus a full ``restore``) once
    per in-flight message just to list applicable handlers.  The pool
    runs the factory once per node and re-installs checkpoints via
    ``restore()`` on every use.  Aliasing rule: ``restore_state``
    deep-copies, so a pooled instance never holds references into world
    state dicts — it is exactly as isolated as a fresh instance, as
    long as services keep all dispatch-mutable state in
    ``state_fields`` (the same contract checkpointing already demands).
    """

    def __init__(self, factory: ServiceFactory) -> None:
        self.factory = factory
        self._instances: Dict[int, Service] = {}
        # The state dict an instance currently mirrors, while no caller
        # may have mutated it since (read-only acquires only).
        self._clean: Dict[int, Optional[Dict[str, Any]]] = {}
        self.factory_calls = 0
        self.restores = 0
        self.restores_skipped = 0

    def acquire(self, world: WorldState, node_id: int, readonly: bool = False) -> Service:
        """A service for ``node_id`` restored to its state in ``world``.

        ``readonly`` promises the caller only *reads* the service (e.g.
        listing applicable handlers — guards must not mutate state, the
        same contract exploration already demands).  Consecutive
        acquires against the same state dict then skip the restore;
        a non-readonly acquire marks the instance dirty.
        """
        service = self._instances.get(node_id)
        if service is None:
            service = self.factory(node_id)
            self._instances[node_id] = service
            self.factory_calls += 1
        service.ctx = None
        state = world.state_of(node_id)
        if self._clean.get(node_id) is state:
            self.restores_skipped += 1
        else:
            service.restore(state)
            self.restores += 1
        self._clean[node_id] = state if readonly else None
        return service

    @property
    def hit_rate(self) -> float:
        """Fraction of acquires that skipped the restore (clean hits)."""
        total = self.restores + self.restores_skipped
        return self.restores_skipped / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Pool effectiveness counters, JSON-able."""
        return {
            "factory_calls": self.factory_calls,
            "restores": self.restores,
            "restores_skipped": self.restores_skipped,
            "hit_rate": self.hit_rate,
        }


class Explorer:
    """Enumerates and applies enabled actions over world states."""

    def __init__(
        self,
        service_factory: ServiceFactory,
        properties: Iterable[SafetyProperty] = (),
        network_model: Optional[object] = None,
        include_drops: bool = False,
        generic_node: Optional[object] = None,
        rng_seed: int = 0,
        max_choice_variants: int = 64,
        service_pooling: bool = True,
    ) -> None:
        self.service_factory = service_factory
        self.properties = list(properties)
        self.network_model = network_model
        self.include_drops = include_drops
        self.generic_node = generic_node
        self.rng_seed = rng_seed
        self.max_choice_variants = max_choice_variants
        self.pool: Optional[ServicePool] = (
            ServicePool(service_factory) if service_pooling else None
        )

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def materialize(
        self, world: WorldState, node_id: int, readonly: bool = False
    ) -> Service:
        """Instantiate the node's service from its checkpoint in ``world``."""
        if self.pool is not None:
            return self.pool.acquire(world, node_id, readonly=readonly)
        service = self.service_factory(node_id)
        service.restore(world.state_of(node_id))
        return service

    # ------------------------------------------------------------------
    # Enabled actions
    # ------------------------------------------------------------------

    def enabled_actions(
        self,
        world: WorldState,
        only_event_keys: Optional[set] = None,
    ) -> List[Action]:
        """All actions possible from ``world``, in deterministic order.

        ``only_event_keys`` restricts enumeration to actions consuming
        one of the given event keys (message/timer ``key()`` tuples).
        Consequence prediction passes its causal frontier here so
        non-frontier destinations never materialize; generic-node
        injections consume no event and are skipped under a filter.
        """
        actions: List[Action] = []
        seen_messages = set()
        # Message and timer keys are structurally disjoint (a message
        # key is (src, dst:int, payload); a timer key is (node,
        # name:str, payload)), so the filter splits once and whole
        # scans are skipped when the frontier has no key of that kind.
        msg_filter = timer_filter = None
        if only_event_keys is not None:
            msg_filter = {k for k in only_event_keys if type(k[1]) is int}
            timer_filter = only_event_keys - msg_filter
        # Each destination materializes once per world, shared across
        # all its in-flight messages (guards must not mutate state).
        materialized: Dict[int, Service] = {}
        if msg_filter is None or msg_filter:
            for message in world.inflight:
                key = message.key()
                if key in seen_messages:
                    continue  # identical duplicates are equivalent to explore once
                seen_messages.add(key)
                if msg_filter is not None and key not in msg_filter:
                    continue
                if not world.is_up(message.dst) or message.dst not in world.node_states:
                    continue
                service = materialized.get(message.dst)
                if service is None:
                    service = self.materialize(world, message.dst, readonly=True)
                    materialized[message.dst] = service
                for spec in service.applicable_handlers(message.src, message.msg):
                    actions.append(
                        DeliverAction(src=message.src, dst=message.dst,
                                      msg=message.msg, handler=spec.name)
                    )
        if timer_filter is None or timer_filter:
            for timer in world.timers:
                if timer_filter is not None and timer.key() not in timer_filter:
                    continue
                if world.is_up(timer.node) and timer.node in world.node_states:
                    actions.append(TimerAction(node=timer.node, name=timer.name, payload=timer.payload))
        if self.include_drops and (msg_filter is None or msg_filter):
            seen_messages.clear()
            for message in world.inflight:
                key = message.key()
                if key in seen_messages:
                    continue
                seen_messages.add(key)
                if msg_filter is not None and key not in msg_filter:
                    continue
                actions.append(DropAction(src=message.src, dst=message.dst, msg=message.msg))
        if self.generic_node is not None and only_event_keys is None:
            for src, dst, msg in self.generic_node.possible_messages(world.live_nodes()):
                actions.append(InjectAction(src=src, dst=dst, msg=msg))
        return actions

    # ------------------------------------------------------------------
    # Applying actions
    # ------------------------------------------------------------------

    def successors(self, world: WorldState, action: Action) -> List[WorldState]:
        """All successor worlds of applying ``action`` (one per inner
        choice-script variant)."""
        if isinstance(action, DeliverAction):
            return self._apply_handler(world, action, action.dst, _deliver)
        if isinstance(action, TimerAction):
            return self._apply_handler(world, action, action.node, _fire)
        if isinstance(action, DropAction):
            return [
                world.evolve(
                    remove_inflight=InFlightMessage(action.src, action.dst, action.msg),
                    time_delta=0.0,
                )
            ]
        if isinstance(action, InjectAction):
            return [
                world.evolve(
                    add_inflight=[InFlightMessage(action.src, action.dst, action.msg)],
                    time_delta=0.0,
                )
            ]
        raise ExplorationError(f"unknown action type {type(action).__name__}")

    def _delivery_delay(self, src: int, dst: int, msg: Any) -> float:
        if self.network_model is None:
            return DEFAULT_STEP_TIME
        size = msg.wire_size() if hasattr(msg, "wire_size") else 1024
        return self.network_model.transfer_time(src, dst, size)

    def _consumed(self, world: WorldState, action: Action) -> Tuple[
            Optional[InFlightMessage], Tuple[Tuple[int, str], ...], float]:
        """What a deliver or timer step takes out of ``world`` besides
        its handler's own effects — ``(message, fired timers)`` — and
        the time it advances."""
        if isinstance(action, DeliverAction):
            removed = InFlightMessage(action.src, action.dst, action.msg)
            return removed, (), self._delivery_delay(action.src, action.dst, action.msg)
        timer = _first_timers(world).get((action.node, action.name))
        if timer is None:
            raise ExplorationError(f"timer not pending: {action!r}")
        return None, ((timer.node, timer.name),), max(timer.delay, 0.0) or DEFAULT_STEP_TIME

    def _apply_handler(
        self,
        world: WorldState,
        action: Action,
        node_id: int,
        run: Callable[[Action, Service], None],
    ) -> List[WorldState]:
        removed, fired, delay = self._consumed(world, action)
        variants, _ = self._invoke_variants(world, node_id, partial(run, action))
        return [
            self._build_successor(world, node_id, checkpoint, effects,
                                  remove_inflight=removed, remove_timers_extra=fired,
                                  time_delta=delay)
            for checkpoint, effects in variants
        ]

    def _expand(
        self,
        world: WorldState,
        action: Action,
        memo: Dict[Tuple, Any],
        result: ExplorationResult,
    ) -> Tuple[List[WorldState], Optional[int]]:
        """``successors(world, action)`` for :meth:`_search`, and the node
        the step acted on — ``None`` for a step dependent with every
        action: a drop, an injection, or a handler that read the clock.

        ``memo`` maps ``(node, id(node's state dict), action key)`` to
        ``(that state dict, steps)``: a handler is a function of its
        node's state and its message unless it reads the clock, so a
        clock-free run's checkpoints, their digest cells and the events
        they create serve every later world holding the same state dict.
        The entry keeps the dict alive, so its id is not reused.
        """
        if isinstance(action, DeliverAction):
            node_id, run = action.dst, _deliver
        elif isinstance(action, TimerAction):
            node_id, run = action.node, _fire
        else:
            return self.successors(world, action), None
        removed, fired, delay = self._consumed(world, action)
        state = world.state_of(node_id)
        key = (node_id, id(state), action.key())
        entry = memo.get(key)
        if entry is not None:
            result.reused += 1
            steps, time_read = entry[1], False
        else:
            variants, time_read = self._invoke_variants(world, node_id, partial(run, action))
            steps = [(checkpoint, [None]) + _effect_events(node_id, effects)
                     for checkpoint, effects in variants]
            if not time_read:
                memo[key] = (state, steps)
        successors = []
        for checkpoint, cell, sent, cancelled, armed in steps:
            successor = world.evolve(
                node_id=node_id, new_state=checkpoint, remove_inflight=removed,
                add_inflight=sent, remove_timers=[*cancelled, *fired], add_timers=armed,
                time_delta=delay, copy_state=False,
            )
            # The checkpoint's digest cell goes with it (see
            # WorldState._cells): the first of these worlds to be
            # digested hashes the state for all of them.
            successor._cells[node_id] = cell
            successors.append(successor)
        return successors, None if time_read else node_id

    def _invoke_variants(
        self,
        world: WorldState,
        node_id: int,
        invoke: Callable[[Service], None],
    ) -> Tuple[List[Tuple[Dict[str, Any], Any]], bool]:
        """Run a handler under every inner choice-script variant.

        Each exposed choice reached inside the handler multiplies the
        branches (bounded by ``max_choice_variants``).  Returns a list
        of ``(new_checkpoint, effects)`` and whether any run read the
        clock.
        """
        results: List[Tuple[Dict[str, Any], Any]] = []
        stack: List[List[Any]] = [[]]
        expansions = 0
        time_read = False
        while stack:
            script = stack.pop()
            service = self.materialize(world, node_id)
            ctx = SandboxContext(
                node_id, now=world.time, choice_script=list(script),
                rng_seed=self.rng_seed,
            )
            service.ctx = ctx
            branched = False
            try:
                invoke(service)
            except ChoiceRequested as request:
                branched = True
                expansions += 1
                # Past the bound, the branch family is dropped entirely.
                if expansions <= self.max_choice_variants:
                    for candidate in reversed(request.point.candidates):
                        stack.append(list(request.consumed) + [candidate])
            time_read = time_read or ctx.time_read
            if not branched:
                results.append((service.checkpoint(), ctx.effects))
        return results, time_read

    def _build_successor(
        self,
        world: WorldState,
        node_id: int,
        checkpoint: Dict[str, Any],
        effects,
        remove_inflight: Optional[InFlightMessage] = None,
        remove_timers_extra: Iterable[Tuple[int, str]] = (),
        time_delta: float = DEFAULT_STEP_TIME,
    ) -> WorldState:
        add_inflight, remove_timers, add_timers = _effect_events(node_id, effects)
        remove_timers.extend(remove_timers_extra)
        # checkpoint comes from Service.checkpoint(), already a fresh
        # deep copy nothing else aliases, so the world adopts it as-is.
        return world.evolve(
            node_id=node_id,
            new_state=checkpoint,
            remove_inflight=remove_inflight,
            add_inflight=add_inflight,
            remove_timers=remove_timers,
            add_timers=add_timers,
            time_delta=time_delta,
            copy_state=False,
        )

    # ------------------------------------------------------------------
    # Property checking and search
    # ------------------------------------------------------------------

    def check(self, world: WorldState) -> List[str]:
        """Names of properties violated in ``world``."""
        names = violated_properties(world, self.properties)
        # Verdicts are cached on the world itself now; successors read
        # this world's cache, never its ancestry, so the parent link
        # can go (keeps retained evolve chains bounded).
        world._prop_parent = None
        return names

    def bfs(
        self,
        root: WorldState,
        max_depth: int = 5,
        max_states: int = 10_000,
    ) -> ExplorationResult:
        """Bounded breadth-first exploration from ``root``.

        Evaluates every safety property in every visited state; returns
        counts, violations (with their paths), and whether the state
        budget truncated the search.
        """
        result = ExplorationResult()
        for world, path in self._search(root, max_depth, max_states, result):
            for name in self.check(world):
                result.violations.append(Violation(property_name=name, path=path, world=world))
        return result

    def _search(
        self,
        root: WorldState,
        max_depth: int,
        max_states: int,
        result: ExplorationResult,
    ) -> Iterator[Tuple[WorldState, Tuple[Action, ...]]]:
        """Bounded breadth-first search: yields every state the first
        time it is found, ``root`` first, with the path that found it,
        and keeps ``result``'s counters.

        Sleep sets skip the second side of a diamond.  Two deliver or
        timer steps are independent when they act on different nodes
        and neither handler read the clock: either order then reaches
        the same world.  A successor's sleep set holds the steps already
        taken (or asleep) at its parent that are independent of the step
        that made it; a state found again before it is expanded keeps
        only what every way in put to sleep.  An action asleep at a state
        leads only to states found before that state is expanded, so the
        search finds the same states in the same order as without sleep
        sets — and reports the same violations with the same paths.
        """
        key = root.digest()
        visited = {key}
        # Sleep sets of found states that will be expanded, by digest:
        # action key -> the node the action acts on.
        asleep: Dict[str, Dict[Tuple, int]] = {key: {}}
        memo: Dict[Tuple, Any] = {}
        result.states_explored = 1
        yield root, ()
        frontier: deque = deque([(root, (), key)])
        while frontier:
            world, path, key = frontier.popleft()
            sleep = asleep.pop(key, None)
            relative_depth = world.depth - root.depth
            result.max_depth = max(result.max_depth, relative_depth)
            if relative_depth >= max_depth:
                continue
            # Successors at the depth bound are never expanded.
            expands = relative_depth + 1 < max_depth
            # Clock-free deliver/timer steps taken here so far, plus the
            # sleep set: what a successor may inherit.
            taken = dict(sleep)
            for action in self.enabled_actions(world):
                if sleep and action.key() in sleep:
                    result.pruned += 1
                    continue
                successors, node = self._expand(world, action, memo, result)
                inherited = None
                for successor in successors:
                    result.transitions += 1
                    found = successor.digest()
                    if found in visited:
                        pending = asleep.get(found)
                        if pending:
                            if inherited is None:
                                inherited = _inherit(taken, node)
                            asleep[found] = {k: n for k, n in pending.items() if k in inherited}
                        continue
                    if result.states_explored >= max_states:
                        result.truncated = True
                        return
                    visited.add(found)
                    result.states_explored += 1
                    new_path = path + (action,)
                    yield successor, new_path
                    if expands:
                        if inherited is None:
                            inherited = _inherit(taken, node)
                        asleep[found] = inherited
                    frontier.append((successor, new_path, found))
                if node is not None:
                    taken[action.key()] = node


def _deliver(action: DeliverAction, service: Service) -> None:
    specs = [s for s in service.applicable_handlers(action.src, action.msg)
             if s.name == action.handler]
    if not specs:
        # Guard no longer passes after restoration drift; treat the
        # delivery as a no-op rather than crashing exploration.
        return
    service.invoke_handler(specs[0], action.src, action.msg)


def _fire(action: TimerAction, service: Service) -> None:
    service.fire_timer(action.name, action.payload)


def _effect_events(node_id: int, effects) -> Tuple[
        List[InFlightMessage], List[Tuple[int, str]], List[PendingTimer]]:
    """A handler run's effects as world events of ``node_id``: the
    messages it sent, the timers it cancelled, the timers it armed."""
    return (
        [InFlightMessage(src=node_id, dst=dst, msg=msg) for dst, msg in effects.sent],
        [(node_id, name) for name in effects.timers_cancelled],
        [PendingTimer(node=node_id, name=name, payload=payload, delay=delay)
         for name, delay, payload in effects.timers_set],
    )


def _inherit(taken: Dict[Tuple, int], node: Optional[int]) -> Dict[Tuple, int]:
    """The sleep set a step at ``node`` hands its successors: the
    actions of ``taken`` at other nodes (none after a dependent step)."""
    if node is None:
        return {}
    return {key: other for key, other in taken.items() if other != node}


def _message_key_counter(world: WorldState) -> Counter:
    """Multiset of in-flight message keys, once per world: ``after`` for
    one edge and ``before`` for every outgoing edge of that successor."""
    return world.memo("_msg_key_counter", lambda w: Counter(m.key() for m in w.inflight))


def _timer_key_set(world: WorldState) -> set:
    return world.memo("_timer_key_set", lambda w: {t.key() for t in w.timers})


def _first_timers(world: WorldState) -> Dict[Tuple[int, str], PendingTimer]:
    """``(node, name) -> first pending timer``: one pass per expanded
    world, not one per timer action."""
    return world.memo(
        "_first_timers", lambda w: {(t.node, t.name): t for t in reversed(w.timers)})


def created_event_keys(before: WorldState, after: WorldState) -> set:
    """Keys of messages/timers present in ``after`` but not ``before``.

    Used by consequence prediction to follow causal chains: the events
    an action *created* are exactly what its chain may consume next.
    """
    created = set((_message_key_counter(after) - _message_key_counter(before)).keys())
    before_timers = _timer_key_set(before)
    created.update(k for k in _timer_key_set(after) if k not in before_timers)
    return created


def consumed_event_key(action: Action) -> Optional[Tuple]:
    """The event key an action consumes (``None`` for injections).

    Derived from the action's memoized ``key()`` (whose last payload
    component is the frozen message/timer payload), so the payload is
    frozen at most once per action object.
    """
    if isinstance(action, (DeliverAction, DropAction)):
        return (action.src, action.dst, action.key()[3])
    if isinstance(action, TimerAction):
        return (action.node, action.name, action.key()[3])
    return None


__all__ = [
    "Explorer",
    "ServicePool",
    "ExplorationError",
    "ExplorationResult",
    "Violation",
    "ServiceFactory",
    "created_event_keys",
    "consumed_event_key",
    "DEFAULT_STEP_TIME",
]
