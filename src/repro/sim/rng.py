"""Deterministic named random streams.

Every consumer of randomness in the reproduction (a node's protocol
logic, the network loss model, a workload generator) asks the registry
for a *named* stream.  Stream state is derived from ``(root_seed, name)``
with SHA-256, so:

* two runs with the same root seed produce identical behaviour, and
* adding a new consumer does not perturb the draws seen by existing
  consumers (unlike sharing one ``random.Random``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* object so
        stream state advances across call sites that share a name.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:
        return f"RngRegistry(root_seed={self.root_seed}, streams={len(self._streams)})"


__all__ = ["RngRegistry", "derive_seed"]
