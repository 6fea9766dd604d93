"""Smoke tests for the E4/E5/E6 experiment runners (small configs)."""

import pytest

from repro.eval import (
    run_gossip_experiment,
    run_paxos_experiment,
    run_swarm_experiment,
)
from repro.eval.dissemination_experiment import setting_config
from repro.eval.gossip_experiment import heterogeneous_topology


def test_gossip_runner_small():
    result = run_gossip_experiment(
        "baseline-random", n=8, seed=1, rumor_count=4,
        round_period=0.2, publish_interval=0.3, max_time=30.0,
    )
    assert result.coverage == 1.0
    assert result.mean_latency is not None and result.mean_latency > 0
    assert result.app_messages > 0


def test_gossip_choice_model_small():
    result = run_gossip_experiment(
        "choice-model", n=8, seed=1, rumor_count=4,
        round_period=0.2, publish_interval=0.3, max_time=30.0,
    )
    assert result.coverage == 1.0


def test_gossip_unknown_variant():
    with pytest.raises(ValueError):
        run_gossip_experiment("nope")


def test_heterogeneous_topology_has_slow_links():
    topo = heterogeneous_topology(8, seed=1, slow_fraction=0.25, slow_latency=0.4)
    latencies = [topo.latency(i, j) for i in range(8) for j in range(8) if i != j]
    assert max(latencies) > 0.4
    assert min(latencies) < 0.05


def test_swarm_runner_small():
    result = run_swarm_experiment(
        "baseline-rarest", setting="scarce", n=6, seed=1,
        block_count=12, max_time=120.0,
    )
    assert result.finished == result.leechers
    assert result.mean_completion is not None


def test_swarm_settings():
    scarce = setting_config("scarce", 17, 48)
    abundant = setting_config("abundant", 17, 48)
    assert len(scarce.seeds) == 1
    assert len(abundant.seeds) >= 2
    with pytest.raises(ValueError):
        setting_config("luxurious", 17, 48)


def test_swarm_unknown_variant():
    with pytest.raises(ValueError):
        run_swarm_experiment("nope")


@pytest.mark.parametrize("variant", ["fixed", "mencius", "choice"])
def test_paxos_runner_commits_everything(variant):
    result = run_paxos_experiment(variant, seed=1, requests_per_node=4, max_time=40.0)
    assert result.committed == result.expected
    assert result.mean_latency > 0


def test_paxos_shape_fixed_worst():
    fixed = run_paxos_experiment("fixed", seed=1, requests_per_node=5)
    mencius = run_paxos_experiment("mencius", seed=1, requests_per_node=5)
    choice = run_paxos_experiment("choice", seed=1, requests_per_node=5)
    assert fixed.mean_latency > mencius.mean_latency
    assert choice.mean_latency <= mencius.mean_latency


def test_paxos_unknown_variant():
    with pytest.raises(ValueError):
        run_paxos_experiment("nope")


# Every replica's decided log (each value unpacked to its commands) and
# executed sequence, per design, as the single-value replicas this one
# class replaced decided them (the same at seeds 0, 1 and 2: the WAN
# drops nothing).
E6_LOG_DIGESTS = {
    "fixed": "da9f58f77a06c0e0",
    "mencius": "8a00172b0005477f",
    "choice": "ce27dd10d59c866f",
}


@pytest.mark.parametrize("variant", sorted(E6_LOG_DIGESTS))
def test_paxos_designs_decide_the_logs_the_replaced_replicas_did(variant, monkeypatch):
    from repro.apps.paxos import unpack_value
    from repro.eval import paxos_experiment
    from repro.statemachine.serialization import digest

    built = []
    real = paxos_experiment.Cluster

    def capturing(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(paxos_experiment, "Cluster", capturing)
    for seed in (0, 1, 2):
        run_paxos_experiment(variant, seed=seed)
        logs = {
            service.node_id: {
                "chosen": {i: unpack_value(v) for i, v in sorted(service.chosen.items())},
                "executed": [tuple(c) for c in service.executed],
            }
            for service in built[-1].services
        }
        assert digest(logs)[:16] == E6_LOG_DIGESTS[variant], seed
