"""The choice-exposing programming model (the paper's core contribution).

Applications expose decisions as :class:`ChoicePoint` objects via
``Service.choose``; resolvers turn them into values; objectives tell
the runtime what to maximize when it resolves predictively.
"""

from .choicepoint import ChoiceError, ChoicePoint, ChoiceResolver, ConfigurationError
from .objectives import (
    LIVENESS_REWARD,
    SAFETY_PENALTY,
    LivenessObjective,
    Objective,
    PerformanceObjective,
    SafetyObjective,
    WeightedObjective,
    combine,
)
from .resolvers import (
    FirstResolver,
    GreedyResolver,
    RandomResolver,
)

__all__ = [
    "ChoiceError",
    "ChoicePoint",
    "ChoiceResolver",
    "ConfigurationError",
    "LIVENESS_REWARD",
    "SAFETY_PENALTY",
    "LivenessObjective",
    "Objective",
    "PerformanceObjective",
    "SafetyObjective",
    "WeightedObjective",
    "combine",
    "FirstResolver",
    "GreedyResolver",
    "RandomResolver",
]
