"""Experiment harness: one runner per experiment in DESIGN.md's index.

Every RandTree world is built by :func:`tree_experiment.build_tree_cluster`
and every Paxos world on the reference WAN by
:func:`paxos_experiment.build_paxos_cluster`; result types and the other
helpers live in the runners' modules.
"""

from .chaos_experiment import (
    CHAOS_TREE_VARIANTS,
    run_chaos_paxos_experiment,
    run_chaos_tree_experiment,
    run_reliable_join_comparison,
    standard_plans,
)
from .churn_experiment import run_churn_experiment
from .dissemination_experiment import SWARM_VARIANTS, run_swarm_experiment
from .gossip_experiment import GOSSIP_VARIANTS, run_gossip_experiment
from .paxos_experiment import (
    DEFAULT_LOADS,
    PAXOS_VARIANTS,
    run_paxos_experiment,
    run_throughput_experiment,
    steering_mode,
    wan_topology,
)
from .trace_experiment import run_trace_session
from .tree_experiment import VARIANTS, failed_subtree, optimal_depth, run_tree_experiment

__all__ = [
    "CHAOS_TREE_VARIANTS",
    "run_chaos_paxos_experiment",
    "run_chaos_tree_experiment",
    "run_reliable_join_comparison",
    "standard_plans",
    "run_churn_experiment",
    "SWARM_VARIANTS",
    "run_swarm_experiment",
    "GOSSIP_VARIANTS",
    "run_gossip_experiment",
    "DEFAULT_LOADS",
    "PAXOS_VARIANTS",
    "run_paxos_experiment",
    "run_throughput_experiment",
    "steering_mode",
    "wan_topology",
    "run_trace_session",
    "VARIANTS",
    "failed_subtree",
    "optimal_depth",
    "run_tree_experiment",
]
