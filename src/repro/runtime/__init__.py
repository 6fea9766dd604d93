"""The CrystalBall-enabled runtime (Figure 1).

Checkpoint exchange, predictive model maintenance, consequence
prediction, execution steering via event filters, and predictive
resolution of exposed choices.
"""

from .checkpoints import (
    CheckpointDeltaMsg,
    CheckpointMsg,
    ModelShareMsg,
    ProbeMsg,
    ProbeReplyMsg,
    is_runtime_message,
)
from .controller import CrystalBallRuntime
from .policy import (
    AmortizedSteering,
    identity_key,
    merge_steering_snapshots,
    scenario_signature,
)
from .resolver import PredictiveResolver, install_crystalball
from .steering import EventFilter, SteeringModule

__all__ = [
    "AmortizedSteering",
    "identity_key",
    "merge_steering_snapshots",
    "scenario_signature",
    "CheckpointDeltaMsg",
    "CheckpointMsg",
    "ModelShareMsg",
    "ProbeMsg",
    "ProbeReplyMsg",
    "is_runtime_message",
    "CrystalBallRuntime",
    "PredictiveResolver",
    "install_crystalball",
    "EventFilter",
    "SteeringModule",
]
