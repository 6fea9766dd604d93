"""The state model: what this node knows about other participants.

Section 3.3: "Every node also maintains some amount of local state, and
collects information about other participants.  We refer to this
information as the state model."  The CrystalBall controller
"periodically collects a consistent set of checkpoints from each of the
node's neighbors" (Section 2); :class:`StateModel` stores those
checkpoints with their epochs and ages and can assemble the most recent
consistent cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..statemachine.serialization import snapshot_value


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
        # Delta baselines: the last full checkpoint per sender that
        # deltas may be patched against.  Kept here (not in the
        # controller) so forgetting a node drops its baseline too.
        self._baselines: Dict[int, NeighborCheckpoint] = {}

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
        Returns whether the model changed.
        """
        current = self._checkpoints.get(node_id)
        if current is not None:
            if (epoch, taken_at) <= (current.epoch, current.taken_at):
                return False
        self._checkpoints[node_id] = NeighborCheckpoint(
            node_id=node_id,
            epoch=epoch,
            taken_at=taken_at,
            state=snapshot_value(state),
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

    def set_baseline(self, node_id: int, epoch: int) -> Optional[NeighborCheckpoint]:
        """Adopt the stored checkpoint for ``node_id`` as the delta
        baseline, if it is exactly ``epoch`` (i.e. the full checkpoint
        just folded in was not dropped as stale).  Returns the adopted
        baseline, or ``None`` if none was installed.

        The baseline aliases the stored :class:`NeighborCheckpoint`
        object, which is never mutated — ``update`` replaces entries
        wholesale — so no extra copy is needed.
        """
        cp = self._checkpoints.get(node_id)
        if cp is None or cp.epoch != epoch:
            return None
        current = self._baselines.get(node_id)
        if current is not None and current.epoch > epoch:
            return None
        self._baselines[node_id] = cp
        return cp

    def baseline(self, node_id: int) -> Optional[NeighborCheckpoint]:
        """The delta baseline held for ``node_id`` (or ``None``)."""
        return self._baselines.get(node_id)

    def forget(self, node_id: int) -> None:
        """Drop what we know about ``node_id`` (e.g. it crashed)."""
        self._checkpoints.pop(node_id, None)
        self._baselines.pop(node_id, None)

    def known_nodes(self) -> List[int]:
        """Node ids with a stored checkpoint, ascending."""
        return sorted(self._checkpoints)

    def age(self, node_id: int, now: float) -> Optional[float]:
        """Age in seconds of the checkpoint for ``node_id``."""
        cp = self._checkpoints.get(node_id)
        if cp is None:
            return None
        return now - cp.taken_at

    def consistent_cut(self, now: float, max_age: Optional[float] = None) -> Dict[int, Dict[str, Any]]:
        """States of all known nodes, restricted to the common epoch.

        The cut contains only checkpoints from the *highest epoch that
        every known node has reached* — a simple consistency rule
        matching CrystalBall's epoch-stamped snapshot collection —
        optionally dropping checkpoints older than ``max_age``.

        Only the latest checkpoint per node is stored, so a node whose
        checkpoint is already past the cut epoch has no snapshot *from*
        that epoch and is omitted rather than mixed in inconsistently.

        The returned mapping is new; the state dicts in it are the
        stored checkpoints themselves, shared and immutable under the
        same contract as :meth:`latest_states`.
        """
        candidates = [
            cp for cp in self._checkpoints.values()
            if max_age is None or (now - cp.taken_at) <= max_age
        ]
        if not candidates:
            return {}
        cut_epoch = min(cp.epoch for cp in candidates)
        return {
            cp.node_id: cp.state
            for cp in candidates
            if cp.epoch == cut_epoch
        }

    def latest_states(self) -> Dict[int, Dict[str, Any]]:
        """Most recent state per node, ignoring epoch consistency.

        The returned mapping is new (callers add and drop entries); the
        state dicts in it are the stored checkpoints themselves, copied
        once on :meth:`update` and never mutated afterwards.  They are
        shared with every caller and immutable by the ``WorldState``
        contract: hand them to ``WorldState(copy_states=False)`` or
        read them, and ``snapshot_value`` one before changing it.
        """
        return {nid: cp.state for nid, cp in self._checkpoints.items()}

    def __len__(self) -> int:
        return len(self._checkpoints)

    def __repr__(self) -> str:
        return f"StateModel(owner={self.owner_id}, known={self.known_nodes()})"


__all__ = ["StateModel", "NeighborCheckpoint"]
