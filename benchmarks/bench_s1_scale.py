"""S1 — simulator scale: hot-loop rework, sparse topologies, partial
views.

The scheduler/transport rework targets 1,000+ node worlds: slim event
entries and batched tombstone compaction in :class:`EventQueue`, a
``pop_if`` dispatch loop, memoized per-pair delivery tags, a cached
loss stream, trace records gated behind ``TraceLog.enabled``, and
``send_many`` collapsing a k-peer broadcast into one queue insertion.

This bench measures four things:

* **Hot loop** — a 16-node broadcast storm, with tracing on and off
  (the configuration 1k-node runs actually use): deliveries per wall
  second, recorded with no wall-clock floor.  The delivery count is
  pinned: a faster loop that dropped or duplicated a message fails.
  Wall-clock comparisons against another commit belong to ``perf/``.
* **Scaling curve** — ViewGossip over grouped (lazy) transit-stub
  topologies at n = 16 / 128 / 1,000 / 4,096: events/sec and per-node
  build memory (tracemalloc).  Quick mode stops at 128.
* **Safety at 1k** — gossip coverage 1.0 and the RandTree safety
  properties over partial views at n = 1,000 (128 quick).
* **Prediction tick** — a neighborhood-scoped CrystalBall prediction
  round at n = 1,000 stays under one second.

Byte-identity is pinned: the canonical 16-node gossip and
RandTree+CrystalBall workloads and a depth-3 prediction report must
reproduce the digests captured on the seed commit.  Results land in
``BENCH_S1.json``.
"""

import os
import time
import tracemalloc

from repro.apps.gossip import (
    GossipConfig,
    coverage,
    make_exposed_gossip_factory,
    make_view_gossip_factory,
)
from repro.apps.randtree import (
    RandTreeConfig,
    make_balance_objective,
    make_exposed_factory,
    make_view_randtree_factory,
    randtree_properties,
    tree_depths,
    unattached_nodes,
)
from repro.apps.randtree.common import child_parent_consistent, no_self_loop
from repro.choice.resolvers import RandomResolver
from repro.mc import ConsequencePredictor, Explorer, world_from_services
from repro.net import Network, ViewConfig, full_mesh, transit_stub
from repro.runtime import CrystalBallRuntime, install_crystalball
from repro.sim import Simulator
from repro.sim.trace import trace_digest
from repro.statemachine import Cluster

from conftest import print_table, record_metrics

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

HOTLOOP_NODES = 16
HOTLOOP_SIM_SECONDS = 1.0 if QUICK else 2.0
HOTLOOP_PERIOD = 0.02
# Deliveries of the storm, equal in the seed implementation and in the
# reworked loop with tracing on and off.
HOTLOOP_DELIVERIES = 11_760 if QUICK else 23_760
REPEATS = 2 if QUICK else 3

# World sizes for the scaling curve: n -> (n_stubs, stub_size).
SHAPES = {16: (4, 4), 128: (8, 16), 1000: (25, 40), 4096: (64, 64)}
CURVE_SIZES = [16, 128] if QUICK else [16, 128, 1000, 4096]
SAFETY_N = 128 if QUICK else 1000
PREDICTION_N = 128 if QUICK else 1000

# Trace digests of the canonical 16-node workloads, captured on the
# seed commit (f459e1a) before the hot-loop rework landed.  These runs
# must stay byte-identical forever.
SEED_GOSSIP_DIGEST = (
    "d634529e0c3ca3c1d73fe7845d875fb80e509a4b622981d4b0392f7f9fc70866"
)
SEED_TREE_DIGEST = (
    "5682992cfef63679defa1ee008d6acbd1eb3ffb9732cb20dab27a6f450a740e2"
)
# World digests feed the report digest, and their values changed with
# the additive multiset hash.  The same report dumped with the digest it
# replaced still hashes to the seed's "3ba33229c4e12a08":
# tests/mc/test_digest_equivalence.py.
SEED_PREDICTION_DIGEST = "7e8ee6a61a5eff26"


# ----------------------------------------------------------------------
# Hot loop: 16-node broadcast storm
# ----------------------------------------------------------------------


def _run_hotloop(trace_enabled: bool):
    """``(wall seconds, deliveries)`` of one storm: every node
    broadcasts to every other node each period through ``send_many``."""
    sim = Simulator(seed=1)
    sim.trace.enabled = trace_enabled
    net = Network(sim, full_mesh(HOTLOOP_NODES, latency=0.01))
    delivered = [0]
    for i in range(HOTLOOP_NODES):
        net.attach(i, lambda src, dst, payload: delivered.__setitem__(
            0, delivered[0] + 1))
    peers = {i: [p for p in range(HOTLOOP_NODES) if p != i]
             for i in range(HOTLOOP_NODES)}

    def make_tick(node_id: int):
        def tick() -> None:
            net.send_many(node_id, peers[node_id], "ping")
            sim.schedule(HOTLOOP_PERIOD, tick, tag=f"tick:{node_id}")
        return tick

    for i in range(HOTLOOP_NODES):
        sim.schedule(HOTLOOP_PERIOD, make_tick(i), tag=f"tick:{i}")
    start = time.perf_counter()
    sim.run(until=HOTLOOP_SIM_SECONDS)
    return time.perf_counter() - start, delivered[0]


def _best_of(fn, repeats=REPEATS):
    best_time, result = float("inf"), None
    for _ in range(repeats):
        elapsed, result = fn()
        best_time = min(best_time, elapsed)
    return best_time, result


def test_s1_hotloop_rate():
    traced_time, traced_delivered = _best_of(lambda: _run_hotloop(True))
    dark_time, dark_delivered = _best_of(lambda: _run_hotloop(False))

    # Same work with tracing on and off, and the recorded count.
    assert traced_delivered == dark_delivered == HOTLOOP_DELIVERIES

    traced_rate = traced_delivered / traced_time
    dark_rate = dark_delivered / dark_time
    print_table(
        f"S1: {HOTLOOP_NODES}-node broadcast storm, "
        f"{dark_delivered} deliveries over {HOTLOOP_SIM_SECONDS}s simulated",
        ("trace", "seconds", "deliveries/sec"),
        [
            ("on", f"{traced_time:.3f}", f"{traced_rate:,.0f}"),
            ("off", f"{dark_time:.3f}", f"{dark_rate:,.0f}"),
        ],
    )
    record_metrics(
        "S1",
        hotloop_nodes=HOTLOOP_NODES,
        hotloop_deliveries=dark_delivered,
        traced_deliveries_per_sec=round(traced_rate),
        events_per_sec=round(dark_rate),
        quick_mode=QUICK,
    )


# ----------------------------------------------------------------------
# Scaling curve: world size vs events/sec and per-node memory
# ----------------------------------------------------------------------


def _view_cluster(n: int, seed: int = 2, rumor_count: int = 2) -> Cluster:
    import random as _random

    n_stubs, stub_size = SHAPES[n]
    topology = transit_stub(rng=_random.Random(seed), n_stubs=n_stubs,
                            stub_size=stub_size)
    config = GossipConfig(n=n, rumor_count=rumor_count, publish_interval=0.1)
    factory = make_view_gossip_factory(config, ViewConfig())
    cluster = Cluster(n, factory, topology=topology, seed=seed,
                      resolver_factory=lambda nid: RandomResolver(seed))
    cluster.sim.trace.enabled = False
    return cluster


def test_s1_world_size_curve():
    # REPRO_BENCH_STREAM=path streams the sweep live: one shared
    # RunStream across all world sizes, per-second sampler curves per
    # size plus an ``s1.world`` event as each data point lands — the
    # long 1k/4k builds stop being a silent 25 s gap.
    stream_path = os.environ.get("REPRO_BENCH_STREAM")
    run_stream = None
    if stream_path:
        from repro.obs import RunStream

        run_stream = RunStream(stream_path, kind="s1",
                               config={"sizes": list(CURVE_SIZES)})
    rows = []
    curve = {}
    for n in CURVE_SIZES:
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        cluster = _view_cluster(n)
        cluster.start_all()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        per_node_kib = (after - before) / n / 1024.0

        if run_stream is not None:
            from repro.obs import TelemetrySampler

            sampler = TelemetrySampler(cluster.sim, cadence=1.0,
                                       stream=run_stream)
            sampler.watch(f"n{n}.events",
                          lambda: cluster.sim.events_dispatched)
            sampler.watch(f"n{n}.messages",
                          lambda: cluster.network.messages_sent)
            sampler.start(until=5.0)
        start = time.perf_counter()
        dispatched = cluster.run(until=5.0)
        wall = time.perf_counter() - start
        events_per_sec = dispatched / wall
        rows.append((n, dispatched, f"{wall:.2f}",
                     f"{events_per_sec:,.0f}", f"{per_node_kib:.1f}"))
        curve[str(n)] = {
            "events": dispatched,
            "wall_seconds": round(wall, 3),
            "events_per_sec": round(events_per_sec),
            "per_node_kib": round(per_node_kib, 1),
        }
        if run_stream is not None:
            run_stream.write_event(
                "s1.world", t=float(n), nodes=n, **curve[str(n)],
            )
        # The overlay itself must be healthy at every size.
        assert all(svc.active for svc in cluster.services)

    if run_stream is not None:
        run_stream.write_summary(t=float(CURVE_SIZES[-1]), curve=curve)
    print_table(
        "S1: world-size scaling (ViewGossip over grouped transit-stub)",
        ("nodes", "events", "wall s", "events/sec", "KiB/node"),
        rows,
    )
    record_metrics("S1", world_size_curve=curve)
    if len(CURVE_SIZES) >= 3:
        # Per-node build memory must not balloon with world size: the
        # sparse topology + partial views keep it within a small factor
        # across a 256x node-count spread (full mode: 16 -> 4096).
        kibs = [curve[str(n)]["per_node_kib"] for n in CURVE_SIZES]
        assert max(kibs) <= max(8.0 * min(kibs), 64.0)


# ----------------------------------------------------------------------
# Safety at scale
# ----------------------------------------------------------------------


def test_s1_gossip_safe_at_scale():
    cluster = _view_cluster(SAFETY_N, seed=3, rumor_count=2)
    cluster.start_all()
    deadline = 60.0
    now = 0.0
    cov = 0.0
    while now < deadline:
        now = min(now + 10.0, deadline)
        cluster.run(until=now)
        cov = coverage(cluster.services, 2)
        if cov == 1.0:
            break
    record_metrics("S1", gossip_nodes=SAFETY_N, gossip_coverage=cov,
                   gossip_sim_seconds=now)
    assert cov == 1.0, f"coverage {cov} after {now} simulated seconds"


def test_s1_randtree_safe_at_scale():
    import random as _random

    n = SAFETY_N
    n_stubs, stub_size = SHAPES[128] if n == 128 else SHAPES[1000]
    topology = transit_stub(rng=_random.Random(4), n_stubs=n_stubs,
                            stub_size=stub_size)
    factory = make_view_randtree_factory(RandTreeConfig(), ViewConfig())
    cluster = Cluster(n, factory, topology=topology, seed=4,
                      resolver_factory=lambda nid: RandomResolver(4))
    cluster.sim.trace.enabled = False
    cluster.start_all()

    deadline = 120.0
    now = 0.0
    states = {}
    while now < deadline:
        now = min(now + 20.0, deadline)
        cluster.run(until=now)
        states = {s.node_id: s.checkpoint() for s in cluster.services}
        if not unattached_nodes(states, root=0):
            break

    unattached = unattached_nodes(states, root=0)
    assert unattached == set(), (
        f"{len(unattached)} nodes unattached after {now} simulated seconds"
    )
    for nid, state in states.items():
        assert no_self_loop(nid, state)
    items = sorted(states.items())
    for a, sa in items:
        for b, sb in items:
            if a < b:
                assert child_parent_consistent(a, sa, b, sb)
    depths = tree_depths(states, root=0)
    record_metrics("S1", randtree_nodes=n, randtree_sim_seconds=now,
                   randtree_max_depth=max(depths.values()))


# ----------------------------------------------------------------------
# Neighborhood-scoped prediction tick
# ----------------------------------------------------------------------


def test_s1_prediction_tick_subsecond():
    n = PREDICTION_N
    cluster = _view_cluster(n, seed=5, rumor_count=3)
    config = GossipConfig(n=n, rumor_count=3, publish_interval=0.1)
    factory = make_view_gossip_factory(config, ViewConfig())
    cluster.start_all()
    cluster.run(until=6.0)      # overlay converges before runtimes land

    # CrystalBall on node 0 and its neighborhood only — at 1k nodes an
    # every-node install is exactly the O(n^2) pattern views remove.
    runtime = CrystalBallRuntime(
        cluster.node(0), factory, checkpoint_period=0.5,
        prediction_period=0.0, prediction_scope="neighborhood",
        chain_depth=2, budget=400,
    )
    runtime.start()
    for peer in cluster.service(0).active:
        CrystalBallRuntime(
            cluster.node(peer), factory, checkpoint_period=0.5,
            prediction_period=0.0, prediction_scope="neighborhood",
        ).start()
    cluster.run(until=9.0)      # a few checkpoint rounds populate node 0

    start = time.perf_counter()
    report = runtime.run_prediction()
    tick_seconds = time.perf_counter() - start

    world = runtime.current_world()
    assert 1 < len(world.node_states) <= ViewConfig().active_size + 1
    record_metrics(
        "S1",
        prediction_nodes=n,
        prediction_world_states=len(world.node_states),
        prediction_states_explored=report.total_states,
        prediction_tick_seconds=round(tick_seconds, 4),
    )
    assert tick_seconds < 1.0, (
        f"neighborhood prediction tick took {tick_seconds:.2f}s at n={n}"
    )


# ----------------------------------------------------------------------
# Byte-identity with the seed: pinned digests
# ----------------------------------------------------------------------


def test_s1_gossip_trace_digest_pinned():
    config = GossipConfig(n=16, rumor_count=6, publish_interval=0.1)
    cluster = Cluster(16, make_exposed_gossip_factory(config), seed=1,
                      resolver_factory=lambda nid: RandomResolver(1))
    cluster.start_all()
    cluster.run(until=8.0)
    assert trace_digest(cluster.sim.trace) == SEED_GOSSIP_DIGEST


def test_s1_crystalball_trace_digest_pinned():
    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    cluster = Cluster(16, factory, seed=1)
    install_crystalball(
        cluster, factory,
        objective=make_balance_objective(config),
        properties=randtree_properties(config),
        checkpoint_period=1.0, chain_depth=2, budget=400,
        prediction_period=0.0,
    )
    cluster.start_all()
    cluster.run(until=10.0)
    assert trace_digest(cluster.sim.trace) == SEED_TREE_DIGEST


def test_s1_prediction_report_digest_pinned():
    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    cluster = Cluster(16, factory, seed=1,
                      resolver_factory=lambda nid: RandomResolver(1))
    cluster.start_all()
    cluster.run(until=20.0)
    world = world_from_services(cluster.services, cluster.nodes,
                                time=cluster.sim.now)
    explorer = Explorer(factory, properties=randtree_properties(config))
    predictor = ConsequencePredictor(explorer, chain_depth=3, budget=5_000)
    assert predictor.predict(world).digest() == SEED_PREDICTION_DIGEST
