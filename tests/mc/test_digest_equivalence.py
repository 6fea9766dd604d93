"""The world digest changed values, not what exploration sees.

Revisit detection keys on ``WorldState.digest()``: a digest that merged
two distinct worlds would explore fewer states, faster and wrong, and
one that split equal worlds would explore more.  Both runs here are
repeated with the sort-and-hash digest the additive one replaced
(``legacy_world_digest``) standing in for it.
"""

from repro.apps.randtree import (Join, RandTreeConfig, make_exposed_factory,
                                 randtree_properties)
from repro.choice.resolvers import RandomResolver
from repro.mc import (ConsequencePredictor, Explorer, InFlightMessage, WorldState,
                      world_from_services)
from repro.statemachine import Cluster

from ..statemachine.test_serialization_oracle import oracle_freeze
from . import legacy_world_digest as legacy
from .legacy_world_digest import legacy_digests


def _settled_tree(n):
    config = RandTreeConfig()
    factory = make_exposed_factory(config)
    cluster = Cluster(n, factory, seed=1,
                      resolver_factory=lambda nid: RandomResolver(1))
    cluster.start_all()
    cluster.run(until=20.0)
    world = world_from_services(cluster.services, cluster.nodes, time=cluster.sim.now)
    return world, Explorer(factory, properties=randtree_properties(config))


def test_bfs_revisit_detection_pinned(monkeypatch):
    """perf's ``mc_bfs`` in small: a settled tree, one in-flight join."""
    world, explorer = _settled_tree(7)
    world.inflight.append(InFlightMessage(5, 0, Join(joiner=5)))

    def explored():
        result = explorer.bfs(world.clone(), max_depth=3)
        return result.states_explored, result.transitions, result.truncated

    assert explored() == (298, 665, False)
    with legacy_digests(monkeypatch):
        assert explored() == (298, 665, False)


def test_s1_report_keeps_its_seed_digest_under_the_legacy_world_digest(monkeypatch):
    """benchmarks/bench_s1_scale.py pins this report's digest; the pin
    moved only because world digests are part of the dump."""
    world, explorer = _settled_tree(16)
    report = ConsequencePredictor(explorer, chain_depth=3, budget=5_000).predict(world)
    with legacy_digests(monkeypatch):
        assert report.digest() == "3ba33229c4e12a08"


def _replica(origin, decided):
    """Paxos-shaped node state: a decided log far past ``_RUN_MIN``,
    batches of commands keyed by instance, a set of applied commands."""
    log = [((origin + i) % 5, i) for i in range(decided)]
    return {
        "promised": (3, origin), "exec_upto": decided // 64,
        "executed": log,
        "applied": set(log),
        "chosen": {inst: tuple(log[inst * 64:(inst + 1) * 64]) for inst in range(decided // 64)},
        "accepted": {inst: ((1, origin), ((origin, inst),)) for inst in range(40)},
    }


def test_worlds_with_long_logs_keep_their_equality_classes(monkeypatch):
    """Node states whose logs freeze to hashed leaves: the world digest
    tells apart exactly the worlds the sort-and-hash digest over the
    spelled-out states told apart, and stays incremental."""
    base = {nid: _replica(nid, 640) for nid in range(3)}

    def variant(edit):
        states = {nid: _replica(nid, 640) for nid in range(3)}
        edit(states)
        return WorldState(states)

    def swap_two_commands(states):
        log = states[1]["executed"]
        log[100], log[101] = log[101], log[100]

    worlds = [
        WorldState(base),
        variant(lambda states: None),
        variant(lambda states: states[2].update(          # same table, filled back to front
            chosen=dict(reversed(states[2]["chosen"].items())))),
        variant(swap_two_commands),
        variant(lambda states: states[1]["executed"].__setitem__(100, (9, 100))),
        variant(lambda states: states[1]["executed"].__setitem__(100, [2, 100])),
        variant(lambda states: states[0]["applied"].discard((0, 0))),
        variant(lambda states: states[0]["chosen"].__setitem__(3, states[0]["chosen"][4])),
        variant(lambda states: states[0]["chosen"].pop(9)),
        variant(lambda states: states.__setitem__(0, _replica(1, 640))),
        variant(lambda states: states.update({0: states[1], 1: states[0]})),
    ]
    grown = dict(base[0], executed=base[0]["executed"] + [(4, 640)])
    worlds.append(worlds[0].evolve(node_id=0, new_state=grown))
    worlds.append(worlds[-1].evolve(node_id=0, new_state=base[0]))   # back to the start

    digests = [world.digest() for world in worlds]
    assert all(world.digest() == world.recompute_digest() for world in worlds)
    monkeypatch.setattr(legacy, "freeze", oracle_freeze)
    oracle = [legacy.legacy_world_digest(world) for world in worlds]
    for i in range(len(worlds)):
        for j in range(i):
            assert (digests[i] == digests[j]) == (oracle[i] == oracle[j]), (i, j)
    assert len(set(oracle)) == len(worlds) - 3    # 0, 1, 2 and the last are one world
