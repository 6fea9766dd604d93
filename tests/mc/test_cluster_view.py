"""One zero-copy view of a running cluster.

``cluster_view`` (``world_from_services`` over a ``Cluster``) reads each
service's live state: building it copies nothing, its digest is that of
a world built from checkpoint copies, and exploring it leaves the
running services untouched (the explorer restores by copying).
"""

import sys

import pytest

from repro.apps.paxos import PaxosConfig, make_paxos_factory
from repro.apps.randtree import RandTreeConfig, make_baseline_factory
from repro.mc import Explorer, WorldState, cluster_view
from repro.statemachine import Cluster, serialization


def _paxos():
    factory = make_paxos_factory(PaxosConfig(
        n=3, requests_per_node=4, request_interval=0.3))
    cluster = Cluster(3, factory, seed=2)
    cluster.start_all()
    cluster.run(until=5.0)
    return cluster, factory


def _randtree():
    factory = make_baseline_factory(RandTreeConfig())
    cluster = Cluster(6, factory, seed=2)
    cluster.start_all()
    cluster.run(until=6.0)
    cluster.node(4).crash()
    return cluster, factory


CLUSTERS = pytest.mark.parametrize("build", [_paxos, _randtree], ids=["paxos", "randtree"])


@pytest.fixture
def copies(monkeypatch):
    """Every ``checkpoint_state`` / ``snapshot_value`` call, counted
    through whichever module imported the name."""
    calls = []
    for name in ("checkpoint_state", "snapshot_value"):
        original = getattr(serialization, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counting)
    return calls


@CLUSTERS
def test_view_copies_nothing_and_digests_like_checkpoints(build, copies):
    cluster, _ = build()
    copies.clear()
    view = cluster_view(cluster)
    assert copies == []
    assert view.down == {n.node_id for n in cluster.nodes if not n.is_up}
    assert view.time == cluster.sim.now
    copied = WorldState({s.node_id: s.checkpoint() for s in cluster.services},
                        timers=view.timers, down=view.down, copy_states=False)
    assert view.digest() == copied.digest()


@CLUSTERS
def test_view_aliases_live_state_and_exploring_it_leaves_services_untouched(build):
    cluster, factory = build()
    view = cluster_view(cluster)
    service = cluster.service(0)
    for name in service.state_fields:
        assert view.state_of(0)[name] is getattr(service, name)
    before = [s.state_digest() for s in cluster.services]
    result = Explorer(factory).bfs(view, max_depth=2, max_states=200)
    assert result.transitions > 0
    assert [s.state_digest() for s in cluster.services] == before
