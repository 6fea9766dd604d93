"""Explicit-state exploration of world states.

The :class:`Explorer` enumerates what can happen next from a world
(deliveries per applicable handler, timer firings and optional drops),
computes successor worlds by running the real handler code in a
sandbox, and performs bounded BFS with visited-state hashing.  Exposed
choices inside handlers are *branching points*: every candidate value
yields its own successor (Section 3.1's non-deterministic automaton
semantics).

Given a :class:`~repro.model.NetworkModel`, successor worlds advance
their time estimate by predicted delivery delays — "integrating this
information into a state-space exploration algorithm turns a model
checker into a simulator" (Section 3.3.2).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..statemachine.context import ChoiceRequested, Effects, SandboxContext
from ..statemachine.serialization import encode_frozen, unchanged
from ..statemachine.service import Service
from .actions import Action, DeliverAction, DropAction, TimerAction
from .properties import SafetyProperty, violated_properties
from .world import InFlightMessage, PendingTimer, WorldState

ServiceFactory = Callable[[int], Service]

DEFAULT_STEP_TIME = 0.05
# Choice-script expansions one handler step may make before the rest of
# its branch families are dropped (see Explorer._invoke_variants).
MAX_CHOICE_VARIANTS = 64


class ExplorationError(Exception):
    """Raised on malformed exploration requests."""


@dataclass
class Violation:
    """A safety property violated along an explored path."""

    property_name: str
    path: Tuple[Action, ...]
    world: WorldState

    def describe(self) -> str:
        steps = " ; ".join(a.describe() for a in self.path)
        return f"{self.property_name} after [{steps}]"


@dataclass
class ExplorationResult:
    """Outcome of a bounded BFS.

    ``pruned`` counts enabled actions the search skipped because a
    sleep set showed their successors were already reached, ``reused``
    the deliver/timer steps whose successors were built from the
    search's memo instead of running the handler (a step that read the
    clock only at the world time it first ran at): together they say
    why ``transitions`` is below an unreduced search's and why it runs
    fewer handlers.

    ``max_depth`` is the deepest level, relative to the root, that the
    search dequeued for expansion, or the depth bound itself when a
    complete (untruncated) search found a state at the bound.
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

    The pool runs the factory once per node, makes the instance a
    sandbox instance (``defer_copies()``) and re-installs checkpoints
    via ``restore()`` on every use but a read-only re-acquire of the
    same state dict.  Aliasing rule: a pooled instance holds a world's
    state values only until it first reads a field, which copies that
    field, so it never writes to a world state dict — it is exactly as
    isolated as a fresh instance, as long as services keep all
    dispatch-mutable state in ``state_fields`` (the same contract
    checkpointing already demands).  A sandbox step hands its copies
    over as the new checkpoint; the next acquire restores the instance
    before it runs again.
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

    def acquire(self, node_id: int, state: Dict[str, Any], readonly: bool = False) -> Service:
        """A service for ``node_id`` restored to ``state``.

        ``readonly`` promises the caller only *reads* the service (e.g.
        listing applicable handlers — guards must not mutate state, the
        same contract exploration already demands).  Consecutive
        acquires against the same state dict then skip the restore;
        a non-readonly acquire marks the instance dirty.
        """
        service = self._instances.get(node_id)
        if service is None:
            service = self.factory(node_id)
            service.defer_copies()
            self._instances[node_id] = service
            self.factory_calls += 1
        service.ctx = None
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


class Explorer:
    """Enumerates and applies enabled actions over world states."""

    def __init__(
        self,
        service_factory: ServiceFactory,
        properties: Iterable[SafetyProperty] = (),
        network_model: Optional[object] = None,
        include_drops: bool = False,
        rng_seed: int = 0,
    ) -> None:
        self.service_factory = service_factory
        self.properties = list(properties)
        self.network_model = network_model
        self.include_drops = include_drops
        self.rng_seed = rng_seed
        self.pool = ServicePool(service_factory)

    # ------------------------------------------------------------------
    # Materialization and the sandbox step
    # ------------------------------------------------------------------

    def materialize(
        self, node_id: int, state: Dict[str, Any], readonly: bool = False
    ) -> Service:
        """The node's service, restored to the checkpoint ``state``."""
        return self.pool.acquire(node_id, state, readonly)

    def sandbox_step(
        self,
        node_id: int,
        state: Dict[str, Any],
        event: Action,
        now: float,
        script: List[Any],
    ) -> Tuple[Dict[str, Any], Effects, bool]:
        """One sandboxed run of a deliver or timer ``event`` at
        ``node_id`` from the checkpoint ``state``, entering the service
        as a live node does, with the clock at ``now`` and choices
        answered from ``script``.  Returns ``(checkpoint, effects,
        whether the handler read the clock)``, or raises
        :class:`ChoiceRequested` at the first choice past ``script``.

        The checkpoint is the service's ``live_state()``, not a copy:
        the fields the handler touched are its own copies (see
        :meth:`Service.defer_copies`), the rest are ``state``'s values.
        The pool restores the instance before its next use, so it never
        writes to what it handed over.  A step that leaves the state as
        it found it (see :func:`~repro.statemachine.serialization.unchanged`)
        returns the same dict, ``state`` itself, so a world evolved with
        it keeps the node's state and digest part.
        """
        service = self.materialize(node_id, state)
        ctx = service.ctx = SandboxContext(
            node_id, now=now, choice_script=script, rng_seed=self.rng_seed)
        event.dispatch(service)
        checkpoint = service.live_state()
        if unchanged(checkpoint, state):
            checkpoint = state
        return checkpoint, ctx.effects, ctx.time_read

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
        non-frontier destinations never materialize.
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
                    service = self.materialize(
                        message.dst, world.state_of(message.dst), readonly=True)
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
                    actions.append(timer.action())
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
        return actions

    # ------------------------------------------------------------------
    # Applying actions
    # ------------------------------------------------------------------

    def successors(self, world: WorldState, action: Action) -> List[WorldState]:
        """All successor worlds of applying ``action`` (one per inner
        choice-script variant)."""
        if isinstance(action, (DeliverAction, DropAction)):
            _require_inflight(world, action)
        if isinstance(action, (DeliverAction, TimerAction)):
            return self._expand(world, action, None, None)[0]
        if isinstance(action, DropAction):
            message = InFlightMessage(action.src, action.dst, action.msg)
            return [world.evolve(remove_inflight=message)]
        raise ExplorationError(f"unknown action type {type(action).__name__}")

    def _delivery_delay(self, src: int, dst: int, msg: Any) -> float:
        if self.network_model is None:
            return DEFAULT_STEP_TIME
        size = msg.wire_size() if hasattr(msg, "wire_size") else 1024
        return self.network_model.transfer_time(src, dst, size)

    def _expand(
        self,
        world: WorldState,
        action: Action,
        memo: Optional[Dict[Tuple, Any]],
        result: Optional[ExplorationResult],
    ) -> Tuple[List[WorldState], Optional[int]]:
        """``successors(world, action)``, and the node the step acted on
        — ``None`` for a step dependent with every action: a drop or a
        handler that read the clock.  The one builder of
        deliver and timer successors, for :meth:`successors` and
        :meth:`_search` alike.

        The search passes a ``memo`` (and the ``result`` that counts its
        hits); it maps ``(node, id(node's state dict), action key)`` to
        ``(that state dict, steps, by_time, made_of)``.  A handler is a
        function of its node's state, its event, the clock it reads and
        its choice script (the sandbox's random streams are fixed), so a
        clock-free run's checkpoints, their digest cells and the events
        they create serve every later world holding the same state dict
        (``by_time`` and ``made_of`` are ``None``).  A run that read the
        clock serves only worlds at the same ``world.time``, the ``now``
        it read, and is kept only when every variant handed back the
        state dict itself, so its entry holds nothing but effect lists:
        ``by_time`` maps each time it ran at to its steps, and a later run
        whose effects are made of the first run's very objects
        (``made_of``, see :func:`_same_objects`) shares its ``steps``.
        The entry keeps the dict alive, so its id is not reused.

        A step that hands back ``state`` itself (it changed nothing, see
        :meth:`sandbox_step`) keeps the parent's digest cell: the
        successor's digest is the parent's adjusted by its events only.
        In the search, a timer step that also re-arms only the timer it
        fired, unchanged, is the identity on the world (see
        :func:`_self_loop`): its successor is ``world`` itself, already
        visited, and nothing is built.
        """
        # What the step takes out of the world besides its handler's own
        # effects (the message, or the fired timer), and the time it takes.
        if isinstance(action, DeliverAction):
            node_id, fired, timer = action.dst, (), None
            removed = InFlightMessage(action.src, action.dst, action.msg)
            delay = self._delivery_delay(action.src, action.dst, action.msg)
        elif isinstance(action, TimerAction):
            node_id, removed = action.node, None
            timer = _first_timers(world).get((action.node, action.name))
            if timer is None:
                raise ExplorationError(f"timer not pending: {action!r}")
            fired = ((timer.node, timer.name),)
            delay = max(timer.delay, 0.0) or DEFAULT_STEP_TIME
        else:
            return self.successors(world, action), None
        state = world.state_of(node_id)
        key = entry = steps = None
        if memo is not None:
            key = (node_id, id(state), action.key())
            entry = memo.get(key)
        if entry is not None:
            by_time = entry[2]
            time_read = by_time is not None
            steps = by_time.get(world.time) if time_read else entry[1]
        if steps is not None:
            result.reused += 1
        else:
            variants, time_read = self._invoke_variants(node_id, state, action, world.time)
            kept = (key is not None and time_read
                    and all(checkpoint is state for checkpoint, _ in variants))
            made_of = _effect_objects(variants) if kept else None
            if kept and entry is not None and _same_objects(made_of, entry[3]):
                steps = entry[1]
            else:
                steps = [(checkpoint, [None]) + effect_events(node_id, effects)
                         for checkpoint, effects in variants]
            if key is not None and not time_read:
                memo[key] = (state, steps, None, None)
            elif kept:
                if entry is None:
                    entry = memo[key] = (state, steps, {}, made_of)
                entry[2][world.time] = steps
        node = None if time_read else node_id
        # Successors() callers read the successor's time and depth, so
        # only the search, which reads its digest, may get ``world`` back.
        if memo is not None and timer is not None and _self_loop(world, state, timer, steps):
            return [world], node
        successors = []
        for checkpoint, cell, sent, cancelled, armed in steps:
            successor = world.evolve(
                node_id=node_id, new_state=checkpoint, remove_inflight=removed,
                add_inflight=sent, remove_timers=[*cancelled, *fired], add_timers=armed,
                time_delta=delay, copy_state=False,
            )
            # The checkpoint's digest cell goes with it (see
            # WorldState._cells): the first of these worlds to be
            # digested hashes the state for all of them.  An unchanged
            # state kept its cell, in a table the successor shares.
            if checkpoint is not state:
                successor._cells[node_id] = cell
            successors.append(successor)
        return successors, node

    def _invoke_variants(
        self,
        node_id: int,
        state: Dict[str, Any],
        event: Action,
        now: float,
    ) -> Tuple[List[Tuple[Dict[str, Any], Effects]], bool]:
        """Run a handler step under every inner choice-script variant.

        Each exposed choice reached inside the handler multiplies the
        branches (bounded by :data:`MAX_CHOICE_VARIANTS`).  Returns a
        list of ``(new_checkpoint, effects)`` and whether any run read
        the clock.
        """
        results: List[Tuple[Dict[str, Any], Effects]] = []
        stack: List[List[Any]] = [[]]
        expansions = 0
        time_read = False
        while stack:
            try:
                checkpoint, effects, read = self.sandbox_step(
                    node_id, state, event, now, stack.pop())
            except ChoiceRequested as request:
                expansions += 1
                # Past the bound, the branch family is dropped entirely.
                if expansions <= MAX_CHOICE_VARIANTS:
                    for candidate in reversed(request.point.candidates):
                        stack.append(list(request.consumed) + [candidate])
                time_read = time_read or request.time_read
                continue
            time_read = time_read or read
            results.append((checkpoint, effects))
        return results, time_read

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
        # Only states that will be expanded are queued: one at the depth
        # bound is yielded (checked) when found, then dropped.
        frontier: deque = deque([(root, (), key)])
        reached_bound = False
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
                    if not expands:
                        reached_bound = True
                        continue
                    if inherited is None:
                        inherited = _inherit(taken, node)
                    asleep[found] = inherited
                    frontier.append((successor, new_path, found))
                if node is not None:
                    taken[action.key()] = node
        # The bound level was checked as found and never queued; an
        # unreduced search would dequeue it last, after everything above.
        if reached_bound:
            result.max_depth = max_depth


def effect_events(node_id: int, effects: Effects) -> Tuple[
        List[InFlightMessage], List[Tuple[int, str]], List[PendingTimer]]:
    """A handler run's effects as world events of ``node_id``: the
    messages it sent, the timers it cancelled, the timers it armed."""
    return (
        [InFlightMessage(src=node_id, dst=dst, msg=msg) for dst, msg in effects.sent],
        [(node_id, name) for name in effects.timers_cancelled],
        [PendingTimer(node=node_id, name=name, payload=payload, delay=delay)
         for name, delay, payload in effects.timers_set],
    )


def _effect_objects(variants: List[Tuple[Dict[str, Any], Effects]]) -> Tuple[List[int], List[Any]]:
    """What a step's effects are made of: how many sends, armings and
    cancels each variant made, and every object in them, in order."""
    shape: List[int] = []
    objects: List[Any] = []
    for _, effects in variants:
        shape += (len(effects.sent), len(effects.timers_set), len(effects.timers_cancelled))
        for item in (*effects.sent, *effects.timers_set):
            objects.extend(item)
        objects.extend(effects.timers_cancelled)
    return shape, objects


def _same_objects(a: Tuple[List[int], List[Any]], b: Tuple[List[int], List[Any]]) -> bool:
    """Whether two steps' effects are made of the very same objects
    (:func:`_effect_objects`): then the events built from one are the
    other's.  ``==`` would not do, as it lets ``1``, ``1.0`` and
    ``True`` stand for one another where digests tell them apart."""
    return (a[0] == b[0] and len(a[1]) == len(b[1])
            and all(x is y for x, y in zip(a[1], b[1])))


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


def _require_inflight(world: WorldState, action: Action) -> None:
    """Reject a deliver or drop of a message ``world`` does not hold,
    before any handler runs."""
    if not _message_key_counter(world)[consumed_event_key(action)]:
        raise ExplorationError(f"message not in flight: {action!r}")


def _timer_key_set(world: WorldState) -> set:
    return world.memo("_timer_key_set", lambda w: {t.key() for t in w.timers})


def _first_timers(world: WorldState) -> Dict[Tuple[int, str], PendingTimer]:
    """``(node, name) -> first pending timer``: one pass per expanded
    world, not one per timer action."""
    return world.memo(
        "_first_timers", lambda w: {(t.node, t.name): t for t in reversed(w.timers)})


def _self_loop(world: WorldState, state: Dict[str, Any], timer: PendingTimer,
               steps: List[Tuple]) -> bool:
    """Whether firing ``timer`` at ``state`` leads back to ``world``
    (``steps`` as :meth:`Explorer._expand` builds them): one variant
    that hands back ``state`` itself, sends and cancels nothing and arms
    one timer whose ``key()`` encodes like the fired timer's, in a world
    that holds one pending timer per ``(node, name)``, as arming on a
    live node supersedes.  The evolve would then take out the fired
    timer alone and put in one of equal digest part, which is hashed
    from that encoding, and keep the node's state dict: the same world
    but for time and depth, which the digest leaves out.

    Equal keys are not enough: ``==`` takes a payload of ``True`` for
    one of ``1``, and their encodings, hence their parts, differ.  Equal
    keys whose frozen payload (``key()[2]``) is one object encode alike
    without encoding; comparing encodings, not parts, hashes nothing."""
    if len(steps) != 1:
        return False
    checkpoint, _, sent, cancelled, armed = steps[0]
    if not (checkpoint is state and not sent and not cancelled and len(armed) == 1):
        return False
    fired, rearmed = timer.key(), armed[0].key()
    return (rearmed == fired
            and (rearmed[2] is fired[2] or encode_frozen(rearmed) == encode_frozen(fired))
            and len(_first_timers(world)) == len(world.timers))


def created_event_keys(before: WorldState, after: WorldState) -> set:
    """Keys of messages/timers present in ``after`` but not ``before``.

    Used by consequence prediction to follow causal chains: the events
    an action *created* are exactly what its chain may consume next.
    """
    created = set((_message_key_counter(after) - _message_key_counter(before)).keys())
    before_timers = _timer_key_set(before)
    created.update(k for k in _timer_key_set(after) if k not in before_timers)
    return created


def consumed_event_key(action: Action) -> Tuple:
    """The event key an action consumes: the in-flight message of a
    deliver or drop, the pending timer of a timer firing.

    Derived from the action's memoized ``key()`` (whose last payload
    component is the frozen message/timer payload), so the payload is
    frozen at most once per action object.
    """
    if isinstance(action, (DeliverAction, DropAction)):
        return (action.src, action.dst, action.key()[3])
    return (action.node, action.name, action.key()[3])


__all__ = [
    "Explorer",
    "ServicePool",
    "ExplorationError",
    "ExplorationResult",
    "Violation",
    "ServiceFactory",
    "created_event_keys",
    "consumed_event_key",
    "effect_events",
    "DEFAULT_STEP_TIME",
    "MAX_CHOICE_VARIANTS",
]
