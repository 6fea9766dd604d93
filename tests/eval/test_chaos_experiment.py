"""A7 chaos harness (small n / short horizons for speed)."""

import pytest

from repro.apps.randtree import RandTreeConfig, check_randtree_invariants
from repro.chaos import CrashEvent, FaultPlan, LinkFaultEvent
from repro.eval import (
    run_chaos_paxos_experiment,
    run_chaos_tree_experiment,
    run_reliable_join_comparison,
    standard_plans,
)

CFG = RandTreeConfig()


def _state(parent=None, children=(), joined=True):
    return {"parent": parent, "children": list(children), "joined": joined}


class TestInvariantChecker:
    def test_clean_tree_has_no_violations(self):
        states = {
            0: _state(children=[1, 2]),
            1: _state(parent=0, children=[3]),
            2: _state(parent=0),
            3: _state(parent=1),
        }
        assert check_randtree_invariants(states, CFG) == []

    def test_self_parent_and_self_child_flagged(self):
        states = {0: _state(children=[1]), 1: _state(parent=1, children=[1])}
        violations = check_randtree_invariants(states, CFG)
        assert any("own parent" in v for v in violations)
        assert any("own child" in v for v in violations)

    def test_duplicate_child_entry_flagged(self):
        states = {0: _state(children=[1, 1]), 1: _state(parent=0)}
        violations = check_randtree_invariants(states, CFG)
        assert any("twice" in v for v in violations)

    def test_degree_bound_flagged(self):
        states = {0: _state(children=[1, 2, 3])}
        states.update({i: _state(parent=0) for i in (1, 2, 3)})
        violations = check_randtree_invariants(states, CFG)
        assert any("degree bound" in v for v in violations)

    def test_consistent_edge_cycle_flagged(self):
        # 1 and 2 mutually agree on both edges: a real cycle.
        states = {
            0: _state(),
            1: _state(parent=2, children=[2]),
            2: _state(parent=1, children=[1]),
        }
        violations = check_randtree_invariants(states, CFG)
        assert any("cycle" in v for v in violations)

    def test_one_sided_stale_belief_is_not_a_violation(self):
        # 0 still lists 2, but 2 moved under 1: a legitimate transient.
        states = {
            0: _state(children=[1, 2]),
            1: _state(parent=0, children=[2]),
            2: _state(parent=1),
        }
        assert check_randtree_invariants(states, CFG) == []


class TestStandardPlans:
    def test_three_named_plans(self):
        plans = standard_plans(9, horizon=10.0)
        assert sorted(p.name for p in plans) == [
            "crash-recovery", "flap-partition", "message-chaos",
        ]

    def test_amnesia_flag_respected(self):
        for plan in standard_plans(9, horizon=10.0, amnesia=False):
            for event in plan.events:
                if isinstance(event, CrashEvent):
                    assert not event.amnesia

    def test_protected_nodes_never_crash(self):
        for plan in standard_plans(9, horizon=10.0, protect=(0,)):
            for event in plan.events:
                if isinstance(event, CrashEvent):
                    assert event.node != 0

    def test_plans_heal_before_horizon(self):
        for plan in standard_plans(9, horizon=10.0):
            assert plan.horizon <= 10.0


class TestChaosTreeExperiment:
    def test_safe_under_message_chaos(self):
        plan = standard_plans(9, horizon=6.0)[0]
        result = run_chaos_tree_experiment(
            "baseline", seed=2, n=9, plan=plan, settle=5.0,
        )
        assert result.safe
        assert result.probes > 0
        assert result.joined == 9
        assert result.chaos_stats["dropped"] > 0

    def test_deterministic_trace_digest(self):
        plan = standard_plans(9, horizon=6.0)[0]
        a = run_chaos_tree_experiment("baseline", seed=3, n=9, plan=plan,
                                      settle=4.0)
        b = run_chaos_tree_experiment("baseline", seed=3, n=9, plan=plan,
                                      settle=4.0)
        assert a.trace_digest == b.trace_digest
        assert a.final_depth == b.final_depth

    def test_different_seeds_diverge(self):
        plan = standard_plans(9, horizon=6.0)[0]
        a = run_chaos_tree_experiment("baseline", seed=3, n=9, plan=plan,
                                      settle=4.0)
        b = run_chaos_tree_experiment("baseline", seed=4, n=9, plan=plan,
                                      settle=4.0)
        assert a.trace_digest != b.trace_digest

    def test_default_plan_is_randomized_from_seed(self):
        result = run_chaos_tree_experiment("baseline", seed=5, n=9, settle=4.0)
        assert result.plan_name == "random"
        assert result.safe


class TestChaosPaxosExperiment:
    def test_amnesia_plan_rejected(self):
        plan = FaultPlan(events=[
            CrashEvent(at=1.0, node=1, amnesia=True, recover_at=2.0),
        ])
        with pytest.raises(ValueError, match="amnesia"):
            run_chaos_paxos_experiment(plan=plan)

    def test_agreement_holds_under_chaos(self):
        plan = FaultPlan(name="msg", events=[
            LinkFaultEvent(at=0.0, drop=0.05, duplicate=0.05, reorder=0.1),
        ])
        result = run_chaos_paxos_experiment(
            seed=2, plan=plan, requests_per_node=3, max_time=15.0,
        )
        assert result.safe
        assert result.committed > 0

    def test_at_most_once_checked_at_every_replica(self, monkeypatch):
        from repro.eval import chaos_experiment

        real = chaos_experiment.Cluster

        def sabotaged(*args, **kwargs):
            cluster = real(*args, **kwargs)
            last = cluster.service(len(cluster.nodes) - 1)
            cluster.sim.schedule_at(
                14.0, lambda: last.executed.append(last.executed[0]),
                tag="test:sabotage",
            )
            return cluster

        monkeypatch.setattr(chaos_experiment, "Cluster", sabotaged)
        result = run_chaos_paxos_experiment(
            seed=2, plan=FaultPlan(name="none"),
            requests_per_node=3, max_time=15.0,
        )
        assert (result.agreement, result.at_most_once, result.safe) == (
            True, False, False)
        assert result.summary().endswith("VIOLATED")


class TestReliableJoinComparison:
    def test_reliability_recovers_loss_free_outcome(self):
        comparison = run_reliable_join_comparison(seed=2, n=9, loss=0.10,
                                                  settle=8.0)
        assert comparison.joined_reliable == 9
        assert comparison.recovered
        assert comparison.reliable_stats.get("retransmissions", 0) > 0
