"""Service pooling: identical exploration results, far fewer factories.

The pool must be behaviorally invisible — ``restore()`` deep-copies, so
a pooled instance never aliases world state — while running the service
factory once per node instead of once per materialization.
"""

import pytest

from repro.mc import (
    Explorer,
    InFlightMessage,
    PendingTimer,
    ServicePool,
    WorldState,
    world_from_services,
)
from repro.mc.properties import all_nodes

from .conftest import Token, TokenService


def _world(factory, n=3):
    services = [factory(nid) for nid in range(n)]
    world = world_from_services(services)
    world.inflight.extend(
        [
            InFlightMessage(0, 1, Token(value=1)),
            InFlightMessage(2, 1, Token(value=2)),
            InFlightMessage(1, 2, Token(value=3)),
        ]
    )
    world.timers.append(PendingTimer(0, "kick", None, 1.0))
    return world


def _result_signature(result):
    return (
        result.states_explored,
        result.transitions,
        result.max_depth,
        result.truncated,
        sorted((v.property_name, tuple(a.key() for a in v.path)) for v in result.violations),
    )


def test_pooled_bfs_matches_unpooled(token_factory):
    world = _world(token_factory)
    properties = [all_nodes(lambda nid, s: s.get("total", 0) <= 2, "total-cap")]
    pooled = Explorer(token_factory, properties=properties, service_pooling=True)
    unpooled = Explorer(token_factory, properties=properties, service_pooling=False)
    a = pooled.bfs(world, max_depth=3, max_states=500)
    b = unpooled.bfs(world, max_depth=3, max_states=500)
    assert _result_signature(a) == _result_signature(b)
    assert pooled.pool is not None and unpooled.pool is None
    # One factory call per distinct node, however many states were visited.
    assert pooled.pool.factory_calls <= len(world.node_states)
    assert pooled.pool.restores + pooled.pool.restores_skipped > pooled.pool.factory_calls


def test_pool_reuses_instances_across_acquires(token_factory):
    pool = ServicePool(token_factory)
    world = _world(token_factory)
    first = pool.acquire(world, 1)
    second = pool.acquire(world, 1)
    assert first is second
    assert pool.factory_calls == 1


def test_pooled_service_never_aliases_world_state(token_factory):
    pool = ServicePool(token_factory)
    world = _world(token_factory)
    service = pool.acquire(world, 0)
    service.total = 999  # mutate the pooled instance
    assert world.state_of(0)["total"] != 999
    # Re-acquiring restores from the (unchanged) world checkpoint.
    service = pool.acquire(world, 0)
    assert service.total == world.state_of(0)["total"]


def test_readonly_acquire_skips_redundant_restores(token_factory):
    pool = ServicePool(token_factory)
    world = _world(token_factory)
    pool.acquire(world, 0, readonly=True)
    pool.acquire(world, 0, readonly=True)
    assert pool.restores == 1
    assert pool.restores_skipped == 1
    # A non-readonly acquire hands out a mutable instance: the next
    # acquire must restore again.
    pool.acquire(world, 0)
    pool.acquire(world, 0)
    assert pool.restores == 2


def test_enabled_actions_materializes_each_destination_once(token_factory):
    explorer = Explorer(token_factory, service_pooling=True)
    world = _world(token_factory)  # two messages to node 1, one to node 2
    explorer.enabled_actions(world)
    acquires = explorer.pool.restores + explorer.pool.restores_skipped
    assert acquires == 2  # destinations 1 and 2, not one per message


def test_enabled_actions_frontier_filter_is_a_strict_subset(token_factory):
    explorer = Explorer(token_factory)
    world = _world(token_factory)
    everything = explorer.enabled_actions(world)
    target = world.inflight[0].key()
    filtered = explorer.enabled_actions(world, only_event_keys={target})
    assert filtered  # the targeted message yields its deliver actions
    filtered_keys = {a.key() for a in filtered}
    assert filtered_keys <= {a.key() for a in everything}
    for action in filtered:
        assert (action.src, action.dst, action.key()[3]) == target
    timer_key = world.timers[0].key()
    timer_only = explorer.enabled_actions(world, only_event_keys={timer_key})
    assert [a.key()[0] for a in timer_only] == ["timer"]


@pytest.mark.parametrize("pooling", [True, False])
def test_materialize_reflects_world_state(token_factory, pooling):
    explorer = Explorer(token_factory, service_pooling=pooling)
    world = _world(token_factory)
    evolved = world.evolve(node_id=1, new_state={"total": 7, "forwards": 1})
    assert explorer.materialize(world, 1).total == world.state_of(1)["total"]
    assert explorer.materialize(evolved, 1).total == 7


def test_pooled_service_is_instance_of_factory_type(token_factory):
    pool = ServicePool(token_factory)
    world = _world(token_factory)
    assert isinstance(pool.acquire(world, 2), TokenService)
