"""The CrystalBall-enabled runtime (Figure 1).

Checkpoint exchange, predictive model maintenance, consequence
prediction, execution steering via event filters, and predictive
resolution of exposed choices.
"""

from .checkpoints import CheckpointMsg
from .controller import CrystalBallRuntime, install_crystalball
from .policy import (
    AmortizedSteering,
    identity_key,
    merge_steering_snapshots,
    scenario_signature,
)
from .resolution import DEGRADE_REASONS
from .steering import EventFilter, SteeringModule

__all__ = [
    "AmortizedSteering",
    "identity_key",
    "merge_steering_snapshots",
    "scenario_signature",
    "CheckpointMsg",
    "CrystalBallRuntime",
    "DEGRADE_REASONS",
    "install_crystalball",
    "EventFilter",
    "SteeringModule",
]
