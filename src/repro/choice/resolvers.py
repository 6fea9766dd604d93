"""Baseline choice resolvers.

These cover the non-predictive resolution strategies the paper
contrasts against: a hard-coded policy (first), random selection (the
Choice-Random setup of Section 4), and greedy model-based scoring.
The full predictive resolver, which uses consequence prediction over
snapshots, lives in ``repro.runtime`` because it needs the CrystalBall
machinery.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from .choicepoint import ChoicePoint, ChoiceResolver

ScoreFn = Callable[[Any, ChoicePoint, Optional[object]], float]


class FirstResolver(ChoiceResolver):
    """Deterministically pick the first candidate."""

    name = "first"

    def resolve(self, point: ChoicePoint, node: Optional[object] = None) -> Any:
        return point.candidates[0]


class RandomResolver(ChoiceResolver):
    """Uniform random choice.

    When resolving for a live node, draws come from the node's named
    simulation stream (so runs stay reproducible per seed); otherwise
    from a private seeded generator.
    """

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def resolve(self, point: ChoicePoint, node: Optional[object] = None) -> Any:
        if node is not None:
            rng = node.sim.rng.stream(f"node{node.node_id}.choice")
        else:
            rng = self._rng
        return rng.choice(point.candidates)


class GreedyResolver(ChoiceResolver):
    """Pick the candidate maximizing a score function.

    ``score_fn(candidate, point, node)`` may consult the node's
    predictive model (e.g. pick the peer with the lowest estimated
    RTT).  Ties go to the earliest candidate, keeping resolution
    deterministic.
    """

    name = "greedy"

    def __init__(self, score_fn: ScoreFn) -> None:
        self.score_fn = score_fn

    def resolve(self, point: ChoicePoint, node: Optional[object] = None) -> Any:
        best = None
        best_score = float("-inf")
        for candidate in point.candidates:
            score = self.score_fn(candidate, point, node)
            if score > best_score:
                best = candidate
                best_score = score
        return best


__all__ = [
    "FirstResolver",
    "RandomResolver",
    "GreedyResolver",
    "ScoreFn",
]
