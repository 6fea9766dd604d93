"""The predictive system model kept in the runtime (Section 3.3).

Network model (per-pair latency/bandwidth estimates with confidence),
state model (neighbor checkpoints and consistent cuts), and generic
nodes for the unknown remainder of the system.
"""

from .confidence import (
    DEFAULT_HALF_LIFE,
    age_confidence,
    combined_confidence,
    sample_confidence,
)
from .generic_node import GENERIC_NODE_ID, GenericNode
from .network_model import EWMA_ALPHA, LinkEstimate, NetworkModel
from .state_model import NeighborCheckpoint, StateModel

__all__ = [
    "DEFAULT_HALF_LIFE",
    "age_confidence",
    "combined_confidence",
    "sample_confidence",
    "GENERIC_NODE_ID",
    "GenericNode",
    "EWMA_ALPHA",
    "LinkEstimate",
    "NetworkModel",
    "NeighborCheckpoint",
    "StateModel",
]
