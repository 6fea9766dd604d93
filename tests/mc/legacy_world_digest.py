"""The world digest as it was before the additive multiset hash.

``WorldState.digest()`` used to sort the per-part digests, ``repr`` the
resulting tuple and hash that.  The combine is kept here, and only
here, as the oracle: the new digest has different *values* but must
induce the same *equality classes* — two worlds the old digest told
apart stay apart, two it merged stay merged — and a report dumped with
this oracle must still hash to the value that was pinned under it.
"""

from contextlib import contextmanager

from repro.mc import WorldState
from repro.statemachine.serialization import digest_of_frozen, freeze


def legacy_world_digest(world: WorldState) -> str:
    """Sort-``repr``-sha256 over per-part digests, from scratch."""
    parts = (
        tuple((nid, digest_of_frozen(freeze(world.node_states[nid])))
              for nid in sorted(world.node_states)),
        tuple(sorted(digest_of_frozen(m.key()) for m in world.inflight)),
        tuple(sorted(digest_of_frozen(t.key()) for t in world.timers)),
        tuple(sorted(world.down)),
    )
    return digest_of_frozen(parts)


@contextmanager
def legacy_digests(monkeypatch):
    """Every ``WorldState.digest()`` inside the block is the oracle's."""
    with monkeypatch.context() as patch:
        patch.setattr(WorldState, "digest", legacy_world_digest)
        yield
