"""Experiment harness: one runner per experiment in DESIGN.md's index."""

from .chaos_experiment import (
    CHAOS_TREE_VARIANTS,
    ChaosPaxosResult,
    ChaosTreeResult,
    ReliableJoinComparison,
    run_chaos_paxos_experiment,
    run_chaos_tree_experiment,
    run_reliable_join_comparison,
    standard_plans,
)
from .churn_experiment import ChurnResult, run_churn_experiment

from .dissemination_experiment import (
    SETTINGS,
    SWARM_VARIANTS,
    SwarmResult,
    run_swarm_experiment,
    setting_config,
    swarm_topology,
)
from .gossip_experiment import (
    GOSSIP_VARIANTS,
    GossipResult,
    heterogeneous_topology,
    run_gossip_experiment,
)
from .paxos_experiment import (
    DEFAULT_LOADS,
    PAXOS_VARIANTS,
    STEERING_MODES,
    PaxosResult,
    ThroughputResult,
    run_paxos_experiment,
    run_throughput_experiment,
    steering_mode,
    wan_topology,
)
from .trace_experiment import (
    TRACE_EXPERIMENTS,
    TraceSession,
    canary_property,
    run_trace_session,
)
from .tree_experiment import (
    TreeExperimentResult,
    VARIANTS,
    failed_subtree,
    optimal_depth,
    run_tree_experiment,
)

__all__ = [
    "CHAOS_TREE_VARIANTS",
    "ChaosPaxosResult",
    "ChaosTreeResult",
    "ReliableJoinComparison",
    "run_chaos_paxos_experiment",
    "run_chaos_tree_experiment",
    "run_reliable_join_comparison",
    "standard_plans",
    "ChurnResult",
    "run_churn_experiment",
    "SETTINGS",
    "SWARM_VARIANTS",
    "SwarmResult",
    "run_swarm_experiment",
    "setting_config",
    "swarm_topology",
    "GOSSIP_VARIANTS",
    "GossipResult",
    "heterogeneous_topology",
    "run_gossip_experiment",
    "DEFAULT_LOADS",
    "PAXOS_VARIANTS",
    "PaxosResult",
    "ThroughputResult",
    "run_paxos_experiment",
    "run_throughput_experiment",
    "STEERING_MODES",
    "steering_mode",
    "wan_topology",
    "TRACE_EXPERIMENTS",
    "TraceSession",
    "canary_property",
    "run_trace_session",
    "TreeExperimentResult",
    "VARIANTS",
    "failed_subtree",
    "optimal_depth",
    "run_tree_experiment",
]
