"""The predictive system model kept in the runtime (Section 3.3).

Network model (per-pair latency and bandwidth estimates) and state
model (the latest checkpoint and pending timers of each neighbor).
"""

from .network_model import EWMA_ALPHA, LinkEstimate, NetworkModel
from .state_model import NeighborCheckpoint, StateModel

__all__ = [
    "EWMA_ALPHA",
    "LinkEstimate",
    "NetworkModel",
    "NeighborCheckpoint",
    "StateModel",
]
