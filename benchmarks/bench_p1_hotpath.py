"""P1 — the prediction hot path: incremental digests and service pooling.

The paper's pitch is that consequence prediction "is fast enough to
look several levels of state space into the future fairly quickly"
(Section 2).  This bench measures the end-to-end prediction pipeline
(depth-4 consequence prediction over a 16-node snapshot, then digesting
every leaf world for visited-state/steering dedup) against a faithful
re-creation of the seed implementation:

* ``SeedExplorer`` — no service pool, one ``factory() + restore()``
  per in-flight message in ``enabled_actions``, every enumeration a
  full scan (no causal-frontier filter), every checkpoint snapshotted
  into its successor world;
* ``SeedPredictor`` — the seed chain exploration, re-freezing message
  and timer payloads on every causal-frontier operation;
* ``seed_randtree_properties`` — the seed property set: full O(n^2)
  pairwise and O(n) per-node rescans in every visited state;
* ``seed_digest`` — the seed world digest: a full ``freeze`` of every
  node state on every call, events sorted by ``repr``.

The baseline is *conservative*: it still rides the memoized
``InFlightMessage.key()`` inside ``evolve()``'s removal scan, so the
true seed was slower than what we compare against.

Asserts the optimized predictor produces a report byte-identical to
the seed's (violations, states, leaf-world digests) and that the
optimized pipeline is >= 3x faster (>= 2x in quick mode, for noisy CI
runners).  Results land in ``BENCH_P1.json``.
"""

import os
import time
from collections import Counter

from repro.apps.randtree import (
    Heartbeat,
    Join,
    RandTreeConfig,
    make_exposed_factory,
    randtree_properties,
)
from repro.choice.resolvers import RandomResolver
from repro.mc import (
    ConsequencePredictor,
    DeliverAction,
    DropAction,
    Explorer,
    InFlightMessage,
    InjectAction,
    TimerAction,
    Violation,
    world_from_services,
)
from repro.apps.randtree.common import child_parent_consistent, degree_bound, no_self_loop
from repro.mc.properties import SafetyProperty
from repro.mc.world import digest_of_frozen
from repro.statemachine import Cluster
from repro.statemachine.serialization import freeze, snapshot_value

from conftest import print_table, record_metrics

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

N_NODES = 16
CHAIN_DEPTH = 4
BUDGET = 50_000
N_JOINERS = 5
REPEATS = 3 if QUICK else 5
MIN_SPEEDUP = 2.0 if QUICK else 3.0


# ----------------------------------------------------------------------
# Seed (pre-PR) implementation, re-created for an honest baseline
# ----------------------------------------------------------------------

def _seed_message_key(message):
    return (message.src, message.dst, freeze(message.msg))


def _seed_timer_key(timer):
    return (timer.node, timer.name, freeze(timer.payload))


def seed_digest(world) -> str:
    """The seed world digest: full freeze of everything, repr-sorted."""
    states = tuple(
        (nid, freeze(world.node_states[nid])) for nid in sorted(world.node_states)
    )
    messages = tuple(sorted((_seed_message_key(m) for m in world.inflight), key=repr))
    timers = tuple(sorted((_seed_timer_key(t) for t in world.timers), key=repr))
    return digest_of_frozen((states, messages, timers, tuple(sorted(world.down))))


def _seed_created_event_keys(before, after):
    before_msgs = Counter(_seed_message_key(m) for m in before.inflight)
    after_msgs = Counter(_seed_message_key(m) for m in after.inflight)
    created = set((after_msgs - before_msgs).keys())
    before_timers = {_seed_timer_key(t) for t in before.timers}
    for timer in after.timers:
        if _seed_timer_key(timer) not in before_timers:
            created.add(_seed_timer_key(timer))
    return created


def _seed_consumed_event_key(action):
    if isinstance(action, (DeliverAction, DropAction)):
        return (action.src, action.dst, freeze(action.msg))
    if isinstance(action, TimerAction):
        return (action.node, action.name, freeze(action.payload))
    return None


def seed_randtree_properties(config):
    """The pre-PR RandTree property set: a full O(n^2) pairwise rescan
    and full per-node scans in every visited state, no verdict caching."""

    def pairwise_check(world):
        live = world.live_nodes()
        for a in live:
            for b in live:
                if a == b:
                    continue
                if not child_parent_consistent(
                    a, world.state_of(a), b, world.state_of(b)
                ):
                    return False
        return True

    def full_scan(rule):
        return lambda world: all(
            rule(nid, world.state_of(nid)) for nid in world.live_nodes()
        )

    return [
        SafetyProperty(name="child-parent-consistency", predicate=pairwise_check),
        SafetyProperty(name="degree-bound", predicate=full_scan(degree_bound(config))),
        SafetyProperty(name="no-self-loops", predicate=full_scan(no_self_loop)),
    ]


class SeedExplorer(Explorer):
    """Seed materialization: factory + restore once per message."""

    def __init__(self, *args, **kwargs):
        kwargs["service_pooling"] = False
        super().__init__(*args, **kwargs)

    def _build_successor(self, world, node_id, checkpoint, effects, **kwargs):
        # The seed snapshotted the checkpoint into the successor world
        # (one more deep copy than the optimized adopt-as-is path).
        return super()._build_successor(
            world, node_id, snapshot_value(checkpoint), effects, **kwargs
        )

    def enabled_actions(self, world):
        actions = []
        seen_messages = set()
        for message in world.inflight:
            key = _seed_message_key(message)
            if key in seen_messages:
                continue
            seen_messages.add(key)
            if not world.is_up(message.dst) or message.dst not in world.node_states:
                continue
            service = self.materialize(world, message.dst)
            for spec in service.applicable_handlers(message.src, message.msg):
                actions.append(
                    DeliverAction(src=message.src, dst=message.dst,
                                  msg=message.msg, handler=spec.name)
                )
        for timer in world.timers:
            if world.is_up(timer.node) and timer.node in world.node_states:
                actions.append(
                    TimerAction(node=timer.node, name=timer.name, payload=timer.payload)
                )
        if self.include_drops:
            seen_messages.clear()
            for message in world.inflight:
                key = _seed_message_key(message)
                if key in seen_messages:
                    continue
                seen_messages.add(key)
                actions.append(
                    DropAction(src=message.src, dst=message.dst, msg=message.msg)
                )
        if self.generic_node is not None:
            for src, dst, msg in self.generic_node.possible_messages(world.live_nodes()):
                actions.append(InjectAction(src=src, dst=dst, msg=msg))
        return actions


class SeedPredictor:
    """The seed ConsequencePredictor, verbatim control flow."""

    def __init__(self, explorer, chain_depth=4, budget=2_000):
        self.explorer = explorer
        self.chain_depth = chain_depth
        self.budget = budget

    def predict(self, world):
        from repro.mc import PredictionReport

        report = PredictionReport()
        for action in self.explorer.enabled_actions(world):
            remaining = self.budget - report.total_states
            if remaining <= 0:
                report.budget_exhausted = True
                break
            outcome = self._explore_chain(world, action, remaining)
            report.outcomes.append(outcome)
            report.total_states += outcome.states
        return report

    def _explore_chain(self, root, action, budget):
        from repro.mc import ActionOutcome

        outcome = ActionOutcome(action=action)
        stack = []
        for successor in self.explorer.successors(root, action):
            outcome.states += 1
            path = (action,)
            for name in self.explorer.check(successor):
                outcome.violations.append(
                    Violation(property_name=name, path=path, world=successor)
                )
            frontier = _seed_created_event_keys(root, successor)
            stack.append((successor, frontier, path, 1))
        while stack:
            if outcome.states >= budget:
                break
            world, frontier, path, depth = stack.pop()
            if depth >= self.chain_depth or not frontier:
                outcome.leaf_worlds.append(world)
                continue
            causal_actions = [
                a for a in self.explorer.enabled_actions(world)
                if _seed_consumed_event_key(a) in frontier
            ]
            if not causal_actions:
                outcome.leaf_worlds.append(world)
                continue
            for causal in causal_actions:
                consumed = _seed_consumed_event_key(causal)
                for successor in self.explorer.successors(world, causal):
                    outcome.states += 1
                    new_path = path + (causal,)
                    for name in self.explorer.check(successor):
                        outcome.violations.append(
                            Violation(property_name=name, path=new_path, world=successor)
                        )
                    new_frontier = (frontier - {consumed}) | _seed_created_event_keys(
                        world, successor
                    )
                    stack.append((successor, new_frontier, new_path, depth + 1))
        return outcome


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------

def build_snapshot(n=N_NODES, seed=1):
    """A settled n-node tree with a burst of concurrent re-joins in
    flight — each join cascades level by level, giving depth-4 chains —
    plus the steady-state heartbeat traffic a live tree always carries
    (every joined child has a beacon to its parent in flight)."""
    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    cluster = Cluster(n, factory, seed=seed,
                      resolver_factory=lambda nid: RandomResolver(seed))
    cluster.start_all()
    cluster.run(until=20.0)
    world = world_from_services(cluster.services, cluster.nodes, time=cluster.sim.now)
    for joiner in range(3, 3 + N_JOINERS):
        world.inflight.append(InFlightMessage(joiner, 0, Join(joiner=joiner)))
    for nid in world.node_ids:
        state = world.state_of(nid)
        parent = state.get("parent")
        if state.get("joined") and parent is not None and parent != nid:
            world.inflight.append(InFlightMessage(nid, parent, Heartbeat()))
    return factory, world, config


def _violation_signature(report):
    return sorted(
        (v.property_name, tuple(a.key() for a in v.path))
        for o in report.outcomes for v in o.violations
    )


def _leaf_digests(report):
    return sorted(w.digest() for o in report.outcomes for w in o.leaf_worlds)


def _timed(fn, repeats=REPEATS):
    """Best-of-N wall time and the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_p1_prediction_pipeline_speedup():
    factory, world, config = build_snapshot()
    properties = randtree_properties(config)

    def seed_pipeline():
        explorer = SeedExplorer(factory, properties=seed_randtree_properties(config))
        predictor = SeedPredictor(explorer, chain_depth=CHAIN_DEPTH, budget=BUDGET)
        report = predictor.predict(world)
        digests = sorted(
            seed_digest(w) for o in report.outcomes for w in o.leaf_worlds
        )
        return report, digests

    def fast_pipeline():
        explorer = Explorer(factory, properties=properties)
        predictor = ConsequencePredictor(
            explorer, chain_depth=CHAIN_DEPTH, budget=BUDGET,
        )
        world.digest()  # warm the root's per-node digest cache
        report = predictor.predict(world)
        digests = _leaf_digests(report)
        return report, digests

    seed_time, (seed_report, _) = _timed(seed_pipeline)
    serial_time, (serial_report, serial_digests) = _timed(fast_pipeline)

    # Identical exploration results across both implementations.
    assert seed_report.total_states == serial_report.total_states
    assert _violation_signature(seed_report) == _violation_signature(serial_report)
    assert _leaf_digests(seed_report) == serial_digests

    speedup = seed_time / serial_time
    print_table(
        f"P1: depth-{CHAIN_DEPTH} prediction pipeline, {N_NODES}-node world "
        f"({serial_report.total_states} states)",
        ("implementation", "seconds", "speedup"),
        [
            ("seed (pre-PR)", f"{seed_time:.3f}", "1.0x"),
            ("incremental+pooled", f"{serial_time:.3f}", f"{speedup:.1f}x"),
        ],
    )
    record_metrics(
        "P1",
        nodes=N_NODES,
        chain_depth=CHAIN_DEPTH,
        states=serial_report.total_states,
        violations=len(_violation_signature(serial_report)),
        seed_seconds=round(seed_time, 4),
        serial_seconds=round(serial_time, 4),
        speedup=round(speedup, 2),
        quick_mode=QUICK,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"hot-path speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor"
    )


def test_p1_incremental_digest_matches_and_wins():
    """Incremental digests agree with full recomputation and beat the
    seed digest on an evolve-heavy sequence."""
    factory, world, config = build_snapshot()
    explorer = Explorer(factory, properties=randtree_properties(config))

    # A chain of successors, as BFS/steering would digest them.
    worlds = [world]
    frontier = world
    for _ in range(30 if QUICK else 120):
        actions = explorer.enabled_actions(frontier)
        if not actions:
            break
        successors = explorer.successors(frontier, actions[0])
        if not successors:
            break
        frontier = successors[0]
        worlds.append(frontier)

    def incremental():
        worlds[0].digest()
        return [w.digest() for w in worlds]

    def seed():
        return [seed_digest(w) for w in worlds]

    fast_time, fast_digests = _timed(incremental)
    slow_time, _ = _timed(seed)
    for w, d in zip(worlds, fast_digests):
        assert w.recompute_digest() == d
    digest_speedup = slow_time / fast_time
    print_table(
        f"P1: digesting a {len(worlds)}-world evolve chain",
        ("implementation", "seconds", "speedup"),
        [
            ("seed full freeze", f"{slow_time:.4f}", "1.0x"),
            ("incremental combine", f"{fast_time:.4f}", f"{digest_speedup:.1f}x"),
        ],
    )
    record_metrics(
        "P1",
        digest_chain_len=len(worlds),
        digest_speedup=round(digest_speedup, 2),
    )
    assert digest_speedup > 1.0
