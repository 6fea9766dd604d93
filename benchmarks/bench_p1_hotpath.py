"""P1 — the prediction hot path: a pinned report and incremental digests.

The paper's pitch is that consequence prediction "is fast enough to
look several levels of state space into the future fairly quickly"
(Section 2).  This bench runs the end-to-end prediction pipeline
(depth-4 consequence prediction over a 16-node snapshot, then digesting
every leaf world for visited-state/steering dedup) and pins what it
finds: the state count, the violation count, and a sha256 each of the
violation signature and of the sorted leaf digests.  The pins were
recorded while a re-creation of the seed pipeline (no service pool, a
full scan per enumeration, seed properties and digests) still ran next
to it and produced the identical report, so they stand in for that
equality check; the pipeline's wall time is recorded, not gated.

``seed_digest`` — the seed world digest, a full ``freeze`` of every node
state on every call with events sorted by ``repr`` — stays as the
reference the incremental digest is checked against and timed with.
Results land in ``BENCH_P1.json``.
"""

import hashlib
import os
import time

from repro.apps.randtree import (
    Heartbeat,
    Join,
    RandTreeConfig,
    make_exposed_factory,
    randtree_properties,
)
from repro.choice.resolvers import RandomResolver
from repro.mc import ConsequencePredictor, Explorer, InFlightMessage, world_from_services
from repro.mc.world import digest_of_frozen
from repro.statemachine import Cluster
from repro.statemachine.serialization import freeze

from conftest import print_table, record_metrics

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

N_NODES = 16
CHAIN_DEPTH = 4
BUDGET = 50_000
N_JOINERS = 5
REPEATS = 3 if QUICK else 5

# The report of the pipeline below, recorded where the seed pipeline
# still asserted equality with it.
PINNED_STATES = 161
PINNED_VIOLATIONS = 22
PINNED_VIOLATION_SHA256 = "38b54de7c6ac6fad6374e648e87fa4628df42b5cfff1b14d22ec8de7654223ee"
PINNED_LEAVES_SHA256 = "2a2b93fb984f9a815d6062cf9349cb44759c9d34ca59dbdba6565bd894486712"


def seed_digest(world) -> str:
    """The seed world digest: full freeze of everything, repr-sorted."""
    states = tuple(
        (nid, freeze(world.node_states[nid])) for nid in sorted(world.node_states)
    )
    messages = tuple(sorted(
        ((m.src, m.dst, freeze(m.msg)) for m in world.inflight), key=repr))
    timers = tuple(sorted(
        ((t.node, t.name, freeze(t.payload)) for t in world.timers), key=repr))
    return digest_of_frozen((states, messages, timers, tuple(sorted(world.down))))


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


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_p1_prediction_pipeline_pins():
    factory, world, config = build_snapshot()

    def pipeline():
        explorer = Explorer(factory, properties=randtree_properties(config))
        predictor = ConsequencePredictor(
            explorer, chain_depth=CHAIN_DEPTH, budget=BUDGET,
        )
        world.digest()  # warm the root's per-node digest cache
        report = predictor.predict(world)
        return report, _leaf_digests(report)

    seconds, (report, digests) = _timed(pipeline)
    signature = _violation_signature(report)

    print_table(
        f"P1: depth-{CHAIN_DEPTH} prediction pipeline, {N_NODES}-node world "
        f"({report.total_states} states)",
        ("implementation", "seconds", "violations"),
        [("incremental+pooled", f"{seconds:.3f}", str(len(signature)))],
    )
    record_metrics(
        "P1",
        nodes=N_NODES,
        chain_depth=CHAIN_DEPTH,
        states=report.total_states,
        violations=len(signature),
        serial_seconds=round(seconds, 4),
        quick_mode=QUICK,
    )
    assert report.total_states == PINNED_STATES
    assert len(signature) == PINNED_VIOLATIONS
    assert _sha256(signature) == PINNED_VIOLATION_SHA256
    assert _sha256(digests) == PINNED_LEAVES_SHA256


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
