"""Explicit-state model checking and consequence prediction.

World states over checkpointed services, enabled-action enumeration,
bounded BFS, and CrystalBall's causal-chain consequence prediction,
with optional network-model time weighting ("model checker as
simulator").
"""

from .actions import (
    Action,
    DeliverAction,
    DropAction,
    InjectAction,
    TimerAction,
    action_key,
)
from .consequence import (
    ActionOutcome,
    ConsequencePredictor,
    PredictionReport,
    score_outcome,
    score_report,
)
from .liveness import BoundedLivenessChecker, LivenessProperty, LivenessResult
from .randomwalk import RandomWalkSimulator, SampleReport, Walk
from .explorer import (
    DEFAULT_STEP_TIME,
    ExplorationError,
    ExplorationResult,
    Explorer,
    ServicePool,
    Violation,
    consumed_event_key,
    created_event_keys,
)
from .properties import SafetyProperty, all_nodes, pairwise, violated_properties
from .world import (InFlightMessage, PendingTimer, WorldState, cluster_view,
                    world_from_services)

__all__ = [
    "Action",
    "DeliverAction",
    "DropAction",
    "InjectAction",
    "TimerAction",
    "action_key",
    "ActionOutcome",
    "ConsequencePredictor",
    "PredictionReport",
    "score_outcome",
    "score_report",
    "BoundedLivenessChecker",
    "LivenessProperty",
    "LivenessResult",
    "RandomWalkSimulator",
    "SampleReport",
    "Walk",
    "DEFAULT_STEP_TIME",
    "ExplorationError",
    "ExplorationResult",
    "Explorer",
    "ServicePool",
    "Violation",
    "consumed_event_key",
    "created_event_keys",
    "SafetyProperty",
    "all_nodes",
    "pairwise",
    "violated_properties",
    "InFlightMessage",
    "PendingTimer",
    "WorldState",
    "cluster_view",
    "world_from_services",
]
