"""Property-based Paxos fault injection: agreement under random churn."""

from hypothesis import given, settings, strategies as st

from repro.apps.paxos import AGREEMENT, PaxosConfig, make_paxos_factory
from repro.mc import cluster_view
from repro.statemachine import Cluster

from .test_paxos_model_checking import accepted_monotone

N = 3


# A churn plan: up to two (victim, crash_time, recover_time) events with
# distinct victims, so a majority is always eventually available.
churn_plans = st.lists(
    st.tuples(
        st.integers(0, N - 1),
        st.floats(min_value=0.5, max_value=6.0),
        st.floats(min_value=6.5, max_value=12.0),
    ),
    max_size=2,
    unique_by=lambda event: event[0],
)


@given(plan=churn_plans, seed=st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_agreement_survives_churn(plan, seed):
    config = PaxosConfig(n=N, requests_per_node=3, request_interval=0.7,
                         retry_timeout=1.5)
    cluster = Cluster(N, make_paxos_factory(config), seed=seed)
    cluster.start_all()
    for victim, crash_at, recover_at in plan:
        cluster.sim.schedule_at(crash_at, cluster.node(victim).crash)
        cluster.sim.schedule_at(
            recover_at, lambda v=victim: cluster.node(v).restart(fresh_state=False),
        )
    cluster.run(until=40.0)
    # Safety must hold regardless of the churn schedule, and no
    # acceptor holds an accepted ballot above its promise.
    world = cluster_view(cluster)
    assert AGREEMENT.holds(world)
    assert accepted_monotone(world)


@given(plan=churn_plans, seed=st.integers(0, 10))
@settings(max_examples=10, deadline=None)
def test_liveness_with_majority(plan, seed):
    """With at most one node down at a time and recovery, every command
    from continuously-live nodes eventually commits."""
    if len(plan) > 1:
        return  # keep a strict majority up throughout
    config = PaxosConfig(n=N, requests_per_node=2, request_interval=0.7,
                         retry_timeout=1.5)
    cluster = Cluster(N, make_paxos_factory(config), seed=seed)
    cluster.start_all()
    crashed = set()
    for victim, crash_at, recover_at in plan:
        crashed.add(victim)
        cluster.sim.schedule_at(crash_at, cluster.node(victim).crash)
        cluster.sim.schedule_at(
            recover_at, lambda v=victim: cluster.node(v).restart(fresh_state=False),
        )
    cluster.run(until=60.0)
    for service in cluster.services:
        if service.node_id not in crashed:
            assert len(service.committed) == 2
