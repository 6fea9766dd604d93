"""The state model: what this node knows about other participants.

Section 3.3: "Every node also maintains some amount of local state, and
collects information about other participants.  We refer to this
information as the state model."  The CrystalBall controller
"periodically collects a consistent set of checkpoints from each of the
node's neighbors" (Section 2); :class:`StateModel` stores the latest of
those checkpoints per node with its epoch and the time it was taken.
Predictions read the latest checkpoint of every node; no epoch cut is
taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class NeighborCheckpoint:
    """One collected checkpoint of a neighbor's service state.

    ``timers`` holds the neighbor's pending timers as ``(name, delay,
    payload)`` tuples, so exploration can consider the actions the
    neighbor will take on its own.
    """

    node_id: int
    epoch: int
    taken_at: float
    state: Dict[str, Any]
    timers: List[tuple] = field(default_factory=list)


class StateModel:
    """Latest known checkpoint per participant, for one observing node."""

    def __init__(self, owner_id: int) -> None:
        self.owner_id = owner_id
        self._checkpoints: Dict[int, NeighborCheckpoint] = {}

    def update(
        self,
        node_id: int,
        epoch: int,
        taken_at: float,
        state: Dict[str, Any],
        timers: Optional[List[tuple]] = None,
    ) -> bool:
        """Store a checkpoint if it is newer than what we hold.

        Newer means a higher epoch, or the same epoch taken later.
        Returns whether the model changed.  ``state`` is stored as it
        is, not copied: it must be a checkpoint, a value nothing
        mutates (a ``Service.checkpoint()`` or a received
        ``CheckpointMsg.state``), never live service fields.
        """
        current = self._checkpoints.get(node_id)
        if current is not None:
            if (epoch, taken_at) <= (current.epoch, current.taken_at):
                return False
        self._checkpoints[node_id] = NeighborCheckpoint(
            node_id=node_id,
            epoch=epoch,
            taken_at=taken_at,
            state=state,
            timers=[tuple(t) for t in (timers or [])],
        )
        return True

    def timers_of(self, node_id: int) -> List[tuple]:
        """Pending timers from the node's latest checkpoint."""
        checkpoint = self._checkpoints.get(node_id)
        if checkpoint is None or not checkpoint.timers:
            return []
        return list(checkpoint.timers)

    def get(self, node_id: int) -> Optional[NeighborCheckpoint]:
        """Latest checkpoint for ``node_id`` (or ``None``)."""
        return self._checkpoints.get(node_id)

    def forget(self, node_id: int) -> None:
        """Drop what we know about ``node_id`` (e.g. it crashed)."""
        self._checkpoints.pop(node_id, None)

    def known_nodes(self) -> List[int]:
        """Node ids with a stored checkpoint, ascending."""
        return sorted(self._checkpoints)

    def latest_states(self) -> Dict[int, Dict[str, Any]]:
        """Most recent state per node, whatever its epoch.

        The returned mapping is new (callers add and drop entries); the
        state dicts in it are the stored checkpoints themselves, as
        :meth:`update` was handed them and never mutated afterwards.
        They are shared with every caller, and with the messages that
        carried them, and immutable by the ``WorldState`` contract:
        hand them to ``WorldState(copy_states=False)`` or read them,
        and ``snapshot_value`` one before changing it.
        """
        return {nid: cp.state for nid, cp in self._checkpoints.items()}

    def __len__(self) -> int:
        return len(self._checkpoints)

    def __repr__(self) -> str:
        return f"StateModel(owner={self.owner_id}, known={self.known_nodes()})"


__all__ = ["StateModel", "NeighborCheckpoint"]
