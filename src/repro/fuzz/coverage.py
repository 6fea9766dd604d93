"""Coverage signals for adversarial scenario search.

A fuzz campaign needs a notion of *interesting* that is coarser than
"the trace digest changed" (every mutation changes the digest) and
finer than "a property broke" (the event we are hunting).  Two signals
combine here:

* **behavior features** — a small set of hashable facts extracted from
  one execution: which trace categories fired and at what order of
  magnitude, which chaos faults actually landed, which properties were
  violated live, and what the prediction pass foresaw.  An execution
  that contributes features never seen before in the campaign is novel
  and earns its plan a corpus slot.
* **near-violation score** — mined from the probes'
  :class:`~repro.mc.consequence.PredictionReport`: how many violations
  consequence prediction found downstream of the run's worlds and how
  few actions away the closest one was.  This is the gradient that
  lets the search climb toward trouble instead of random-walking: a
  plan whose worlds are one delivery away from a broken property is
  worth mutating even though every live check still passed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

Feature = Tuple


def magnitude(count: int) -> int:
    """Bucket a non-negative count by order of magnitude (bit length).

    0 -> 0, 1 -> 1, 2-3 -> 2, 4-7 -> 3, ...  Buckets keep the feature
    space finite: an execution dropping 96 messages instead of 80 is
    not novel, one dropping 4 instead of 0 is.
    """
    return int(count).bit_length()


def trace_features(trace) -> Set[Feature]:
    """Behavior features of one trace log: category presence + volume."""
    return {("cat", category, magnitude(count))
            for category, count in trace.category_counts().items()}


def chaos_features(stats: Dict[str, int]) -> Set[Feature]:
    """Which faults actually landed, bucketed by volume."""
    return {("chaos", key, magnitude(count))
            for key, count in stats.items() if count}


def prediction_features(
    near_violations: Dict[str, int],
    min_depth: Optional[int],
) -> Set[Feature]:
    """Features mined from the probes' prediction reports."""
    features: Set[Feature] = set()
    for prop, count in near_violations.items():
        features.add(("pred", prop, magnitude(count)))
    if min_depth is not None:
        features.add(("pred-depth", min_depth))
    return features


def near_violation_score(
    near_violations: Dict[str, int],
    min_depth: Optional[int],
    chain_depth: int,
) -> float:
    """Scalar climb signal from one execution's prediction probes.

    Grows with how *many* violations prediction foresaw (log-bucketed,
    so volume saturates) and with how *close* the nearest one was
    (``chain_depth - min_depth``: distance 1 at depth 4 scores higher
    than distance 4).
    """
    if not near_violations:
        return 0.0
    volume = magnitude(sum(near_violations.values()))
    proximity = 0 if min_depth is None else max(0, chain_depth - min_depth + 1)
    # Every distinct property predicted unsafe adds a point: breaking
    # two properties' neighborhoods beats twice as many violations of
    # one.
    return float(volume + 2 * proximity + len(near_violations))


class CoverageMap:
    """The campaign-global record of everything seen so far."""

    def __init__(self) -> None:
        self._features: Set[Feature] = set()
        self._trace_digests: Set[str] = set()
        self._plan_digests: Set[str] = set()

    def __len__(self) -> int:
        return len(self._features)

    def observe(self, features: FrozenSet[Feature]) -> int:
        """Merge an execution's features; return how many were novel."""
        novel = len(features - self._features)
        self._features |= features
        return novel

    def seen_trace(self, digest: str) -> bool:
        """Record a trace digest; True if an earlier execution already
        produced the byte-identical trace (a duplicate behavior)."""
        if digest in self._trace_digests:
            return True
        self._trace_digests.add(digest)
        return False

    def seen_plan(self, digest: str) -> bool:
        """Record a plan digest; True if this exact plan already ran."""
        if digest in self._plan_digests:
            return True
        self._plan_digests.add(digest)
        return False

    def snapshot(self) -> Dict[str, int]:
        return {
            "features": len(self._features),
            "unique_traces": len(self._trace_digests),
            "unique_plans": len(self._plan_digests),
        }


__all__ = [
    "CoverageMap",
    "Feature",
    "chaos_features",
    "magnitude",
    "near_violation_score",
    "prediction_features",
    "trace_features",
]
