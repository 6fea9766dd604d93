"""Cross-round chain memoization: hits, footprints, and determinism.

The contract under test: a :class:`~repro.mc.ChainMemo`-backed
predictor must produce reports byte-identical (``report.digest()``)
to a memo-free predictor on *every* round, hitting the cache whenever
the causal footprint of a chain is unchanged and re-exploring when it
is not.
"""

from dataclasses import dataclass

from repro.mc import (
    ChainMemo,
    ConsequencePredictor,
    Explorer,
    InFlightMessage,
    PendingTimer,
    SafetyProperty,
    WorldState,
)
from repro.mc.properties import all_nodes
from repro.statemachine import Message, Service, msg_handler, timer_handler
from repro.statemachine.serialization import snapshot_value

from .conftest import Token, TokenService


def fresh(world):
    """A new world with equal content and no caches: what the next
    prediction round would snapshot."""
    return WorldState(
        node_states={nid: snapshot_value(s) for nid, s in world.node_states.items()},
        inflight=[InFlightMessage(m.src, m.dst, m.msg) for m in world.inflight],
        timers=[PendingTimer(t.node, t.name, t.payload, t.delay) for t in world.timers],
        down=set(world.down),
        time=world.time,
        depth=world.depth,
        copy_states=False,
    )


def token_world(factory, inflight=(), timers=(), n=3, extra_nodes=()):
    states = {i: factory(i).checkpoint() for i in range(n)}
    for nid in extra_nodes:
        states[nid] = factory(nid).checkpoint()
    return WorldState(node_states=states, inflight=inflight, timers=timers)


def predictors(factory, memo, properties=(), chain_depth=3, budget=500):
    """A memoized predictor and its memo-free twin."""
    on = ConsequencePredictor(
        Explorer(factory, properties=list(properties)),
        chain_depth=chain_depth, budget=budget, memo=memo,
    )
    off = ConsequencePredictor(
        Explorer(factory, properties=list(properties)),
        chain_depth=chain_depth, budget=budget,
    )
    return on, off


def assert_identical(on, off, world):
    """Predict with both; the memoized report must match byte for byte."""
    report_off = off.predict(fresh(world))
    report_on = on.predict(fresh(world))
    assert report_on.digest() == report_off.digest()
    return report_on


def test_identical_rounds_hit(token_factory):
    world = token_world(
        token_factory,
        inflight=[InFlightMessage(0, 1, Token(value=1))],
        timers=[PendingTimer(0, "kick", None, 1.0)],
    )
    memo = ChainMemo()
    on, off = predictors(token_factory, memo)
    first = assert_identical(on, off, world)
    assert first.memo_hits == 0
    assert first.memo_misses == len(first.outcomes)
    second = assert_identical(on, off, world)
    assert second.memo_hits == len(second.outcomes)
    assert second.memo_misses == 0
    assert memo.snapshot()["rebase_errors"] == 0


def test_rebase_derives_digests_from_a_digested_root(token_factory):
    """A root whose digest is known hands its sum to every rebased
    world by delta; one that was never digested leaves them to sum from
    scratch.  Either way: the memo-free report, and the oracle."""
    world = token_world(
        token_factory,
        inflight=[InFlightMessage(0, 1, Token(value=1))],
        timers=[PendingTimer(0, "kick", None, 1.0)],
    )
    memo = ChainMemo()
    on, off = predictors(token_factory, memo)
    assert_identical(on, off, world)
    expected = off.predict(fresh(world)).digest()
    for digested in (True, False):
        root = fresh(world)
        if digested:
            root.digest()
        report = on.predict(root)
        assert report.memo_hits == len(report.outcomes) > 0
        leaves = [w for o in report.outcomes for w in o.leaf_worlds]
        assert leaves and all(w.digest() == w.recompute_digest() for w in leaves)
        assert report.digest() == expected
    assert memo.snapshot()["rebase_errors"] == 0


def test_touched_node_change_misses(token_factory):
    world = token_world(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    memo = ChainMemo()
    on, off = predictors(token_factory, memo)
    assert_identical(on, off, world)
    # Node 1 receives the message: its chain read node 1's state.
    world.node_states[1] = dict(world.node_states[1], total=7)
    report = assert_identical(on, off, world)
    assert report.memo_misses >= 1


def test_untouched_node_change_still_hits(token_factory):
    # Node 9 exists in the world but is outside the 3-node token ring:
    # no chain ever materializes it, so its state is not in any
    # footprint.
    world = token_world(
        token_factory,
        inflight=[InFlightMessage(0, 1, Token(value=1))],
        extra_nodes=(9,),
    )
    memo = ChainMemo()
    on, off = predictors(token_factory, memo)
    assert_identical(on, off, world)
    world.node_states[9] = dict(world.node_states[9], total=42)
    report = assert_identical(on, off, world)
    assert report.memo_hits == len(report.outcomes)


def test_world_scope_property_escalates_to_full_miss(token_factory):
    # A hand-rolled property (scope "world") may read anything, so any
    # world change — even an unread node — must invalidate.
    prop = SafetyProperty("anything", lambda w: True)
    world = token_world(
        token_factory,
        inflight=[InFlightMessage(0, 1, Token(value=1))],
        extra_nodes=(9,),
    )
    memo = ChainMemo()
    on, off = predictors(token_factory, memo, properties=[prop])
    assert_identical(on, off, world)
    world.node_states[9] = dict(world.node_states[9], total=42)
    report = assert_identical(on, off, world)
    assert report.memo_hits == 0


def test_nodes_scope_property_gates_on_root_verdict(token_factory):
    prop = all_nodes(lambda nid, s: s["total"] <= 5, "small-totals")
    world = token_world(
        token_factory,
        inflight=[InFlightMessage(0, 1, Token(value=1))],
        extra_nodes=(9,),
    )
    memo = ChainMemo()
    on, off = predictors(token_factory, memo, properties=[prop])
    assert_identical(on, off, world)
    # Verdict unchanged (still True everywhere): reuse is sound.
    report = assert_identical(on, off, world)
    assert report.memo_hits == len(report.outcomes)
    # Verdict flips at an unread node: the gate closes, chains re-run.
    world.node_states[9] = dict(world.node_states[9], total=99)
    report = assert_identical(on, off, world)
    assert report.memo_hits == 0


def test_budget_change_stays_deterministic(token_factory):
    world = token_world(
        token_factory,
        inflight=[InFlightMessage(i, (i + 1) % 3, Token(value=1)) for i in range(3)],
    )
    memo = ChainMemo()
    # Warm with an ample budget, then predict under a budget tight
    # enough to truncate: the memoized run must match a memo-free run
    # at the tight budget exactly (reuse only when the truncation path
    # provably agrees).
    on_wide, off_wide = predictors(token_factory, memo, chain_depth=4, budget=500)
    assert_identical(on_wide, off_wide, world)
    on_tight, off_tight = predictors(token_factory, memo, chain_depth=4, budget=7)
    tight = assert_identical(on_tight, off_tight, world)
    assert tight.budget_exhausted
    # And the tight rounds themselves memoize deterministically.
    assert_identical(on_tight, off_tight, world)


def test_invalidate_flushes(token_factory):
    world = token_world(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    memo = ChainMemo()
    on, off = predictors(token_factory, memo)
    assert_identical(on, off, world)
    memo.invalidate("topology")
    report = assert_identical(on, off, world)
    assert report.memo_hits == 0
    assert memo.snapshot()["invalidations"] == 1


def test_config_change_flushes(token_factory):
    world = token_world(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    memo = ChainMemo()
    on, off = predictors(token_factory, memo, chain_depth=3)
    assert_identical(on, off, world)
    assert len(memo) > 0
    # Same memo bound to a different exploration configuration: stale
    # entries would be wrong, so binding flushes.
    on2, off2 = predictors(token_factory, memo, chain_depth=2)
    report = assert_identical(on2, off2, world)
    assert report.memo_hits == 0


def test_lru_eviction_bounds_entries(token_factory):
    world = token_world(
        token_factory,
        inflight=[InFlightMessage(i, (i + 1) % 3, Token(value=i)) for i in range(3)],
        timers=[PendingTimer(i, "kick", None, 1.0) for i in range(3)],
    )
    memo = ChainMemo(max_entries=2)
    on, off = predictors(token_factory, memo)
    assert_identical(on, off, world)
    snap = memo.snapshot()
    assert snap["entries"] <= 2
    assert snap["evictions"] > 0
    # A bounded memo is still correct, just less effective.
    assert_identical(on, off, world)


@dataclass
class Stamp(Message):
    pass


class ClockService(Service):
    """Records the time it saw a message: chains read the clock."""

    state_fields = ("seen_at",)

    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen_at = -1.0

    @msg_handler(Stamp)
    def on_stamp(self, src, msg):
        self.seen_at = self.now()


def test_time_read_in_footprint():
    factory = lambda nid: ClockService(nid)
    world = token_world(factory, inflight=[InFlightMessage(0, 1, Stamp())], n=2)
    memo = ChainMemo()
    on, off = predictors(factory, memo)
    assert_identical(on, off, world)
    report = assert_identical(on, off, world)
    assert report.memo_hits == len(report.outcomes)
    # The chain read ``now()``: a different root time must re-explore
    # (the stamped state embeds the clock).
    world.time = 3.5
    report = assert_identical(on, off, world)
    assert report.memo_hits == 0


class RearmService(Service):
    """A periodic timer: firing it re-arms it with the same cadence."""

    state_fields = ("ticks",)

    def __init__(self, node_id):
        super().__init__(node_id)
        self.ticks = 0

    @timer_handler("tick")
    def on_tick(self, payload):
        self.ticks += 1
        self.set_timer("tick", 1.0)


def test_rearm_footprint_sees_root_timer_delay():
    factory = lambda nid: RearmService(nid)
    memo = ChainMemo()
    on, off = predictors(factory, memo, chain_depth=2)
    world = token_world(factory, timers=[PendingTimer(0, "tick", None, 1.0)], n=1)
    assert_identical(on, off, world)
    report = assert_identical(on, off, world)
    assert report.memo_hits == len(report.outcomes)
    # Same timer key, different armed delay: the successor's timer set
    # differs (the fired instance is removed by (key, delay)), so the
    # cached chain must not be reused.
    world2 = token_world(factory, timers=[PendingTimer(0, "tick", None, 2.0)], n=1)
    report = assert_identical(on, off, world2)
    assert report.memo_misses >= 1


def test_snapshot_counters(token_factory):
    world = token_world(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    memo = ChainMemo()
    on, off = predictors(token_factory, memo)
    assert_identical(on, off, world)
    assert_identical(on, off, world)
    snap = memo.snapshot()
    assert snap["stores"] == snap["misses"]
    assert snap["hits"] > 0
    assert snap["hit_rate"] == snap["hits"] / (snap["hits"] + snap["misses"])
    assert set(snap) == {
        "entries", "actions", "hits", "misses", "stores", "evictions",
        "invalidations", "invalidation_reasons", "rebase_errors", "hit_rate",
    }


def test_invalidation_reasons_counted(token_factory):
    world = token_world(token_factory, inflight=[InFlightMessage(0, 1, Token(value=1))])
    memo = ChainMemo()
    on, off = predictors(token_factory, memo)
    assert_identical(on, off, world)
    memo.invalidate("liveness")
    assert_identical(on, off, world)
    memo.invalidate("liveness")
    memo.invalidate("topology:link")  # empty memo: nothing dropped, not counted
    assert_identical(on, off, world)
    memo.invalidate("topology:link")
    snap = memo.snapshot()
    assert snap["invalidation_reasons"] == {"liveness": 2, "topology:link": 1}
