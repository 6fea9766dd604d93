"""Consequence prediction (the CrystalBall exploration strategy).

"Consequence prediction focuses on exploring causally related chains of
events, and is fast enough to look several levels of state space into
the future fairly quickly" (Section 2).  For each action enabled in the
current world, the predictor executes it and then follows only the
events *caused* by the chain so far (messages the handlers sent, timers
they set), rather than interleaving unrelated traffic.  The output maps
each initial action to the violations found downstream of it and the
leaf worlds of its chains — exactly what execution steering and
predictive choice resolution consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..choice.objectives import Objective, SAFETY_PENALTY
from ..statemachine.serialization import digest_of_frozen
from .actions import Action
from .explorer import (
    Explorer,
    Violation,
    consumed_event_key,
    created_event_keys,
)
from .world import WorldState


@dataclass
class ActionOutcome:
    """What consequence prediction learned about one initial action."""

    action: Action
    violations: List[Violation] = field(default_factory=list)
    leaf_worlds: List[WorldState] = field(default_factory=list)
    states: int = 0

    @property
    def is_safe(self) -> bool:
        """No property violation found downstream of this action."""
        return not self.violations


@dataclass
class PredictionReport:
    """Outcomes for every enabled action from a world."""

    outcomes: List[ActionOutcome] = field(default_factory=list)
    total_states: int = 0
    budget_exhausted: bool = False

    def unsafe_actions(self) -> List[Action]:
        """Initial actions predicted to lead to a violation."""
        return [o.action for o in self.outcomes if not o.is_safe]

    def dump(self) -> Tuple:
        """Canonical hashable form of the report's *predictive content*.

        Includes everything steering and choice resolution consume —
        initial action keys in order, per-outcome state counts,
        violations (name, path, world digest) and leaf-world digests in
        exploration order.  Two prediction passes are byte-identical iff
        their dumps are equal.
        """
        return (
            self.total_states,
            self.budget_exhausted,
            tuple(
                (
                    o.action.key(),
                    o.states,
                    tuple(
                        (v.property_name,
                         tuple(a.key() for a in v.path),
                         v.world.digest())
                        for v in o.violations
                    ),
                    tuple(w.digest() for w in o.leaf_worlds),
                )
                for o in self.outcomes
            ),
        )

    def digest(self) -> str:
        """Stable hex digest of :meth:`dump`."""
        return digest_of_frozen(self.dump())

    def near_violations(self) -> Dict[str, int]:
        """Predicted-violation counts per property name.

        The near-violation signal fuzz coverage climbs: a pass that
        predicts violations downstream of the current world flags
        trouble before it materializes live, even when every live
        check still holds.
        """
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            for violation in outcome.violations:
                name = violation.property_name
                counts[name] = counts.get(name, 0) + 1
        return counts

    def min_violation_depth(self) -> Optional[int]:
        """Shortest action path to any predicted violation (or None).

        The distance-to-violation across every explored chain: 1 means
        one action away from a property breach.
        """
        depths = [len(v.path) for o in self.outcomes for v in o.violations]
        return min(depths) if depths else None

    def summary(self) -> Dict[str, Any]:
        """Small JSON-able digest of the pass, for run reports."""
        violations = sum(len(o.violations) for o in self.outcomes)
        return {
            "actions": len(self.outcomes),
            "total_states": self.total_states,
            "unsafe_actions": sum(1 for o in self.outcomes if not o.is_safe),
            "violations": violations,
            "near_violations": self.near_violations(),
            "min_violation_depth": self.min_violation_depth(),
            "budget_exhausted": self.budget_exhausted,
        }


class ConsequencePredictor:
    """Bounded causal-chain exploration from a snapshot world."""

    def __init__(
        self,
        explorer: Explorer,
        chain_depth: int = 4,
        budget: int = 2_000,
    ) -> None:
        if chain_depth < 1:
            raise ValueError(f"chain_depth must be >= 1, got {chain_depth}")
        self.explorer = explorer
        self.chain_depth = chain_depth
        self.budget = budget

    def predict(self, world: WorldState) -> PredictionReport:
        """Explore the causal chains of every enabled action."""
        # Evaluate the root once up front: its cached verdicts let every
        # first-level successor check properties incrementally instead
        # of full-scanning (the verdict itself is not part of the
        # report, matching the original behavior).
        self.explorer.check(world)
        actions = self.explorer.enabled_actions(world)
        report = PredictionReport()
        for action in actions:
            remaining = self.budget - report.total_states
            if remaining <= 0:
                report.budget_exhausted = True
                break
            outcome = self._explore_chain(world, action, remaining)
            report.outcomes.append(outcome)
            report.total_states += outcome.states
        return report

    def _explore_chain(
        self, root: WorldState, action: Action, budget: int
    ) -> ActionOutcome:
        explorer = self.explorer
        outcome = ActionOutcome(action=action)
        # Stack entries: (world, causal frontier of event keys, path, depth).
        stack: List[Tuple[WorldState, Set[Tuple], Tuple[Action, ...], int]] = []
        for successor in explorer.successors(root, action):
            outcome.states += 1
            path = (action,)
            for name in explorer.check(successor):
                outcome.violations.append(
                    Violation(property_name=name, path=path, world=successor)
                )
            stack.append((successor, created_event_keys(root, successor), path, 1))
        while stack:
            if outcome.states >= budget:
                break
            world, frontier, path, depth = stack.pop()
            if depth >= self.chain_depth or not frontier:
                outcome.leaf_worlds.append(world)
                continue
            # The frontier doubles as the enumeration filter: only
            # frontier destinations materialize.  The explicit
            # consumed-key check stays as the causal-semantics guard.
            causal_actions = [
                a for a in explorer.enabled_actions(world, only_event_keys=frontier)
                if consumed_event_key(a) in frontier
            ]
            if not causal_actions:
                outcome.leaf_worlds.append(world)
                continue
            for causal in causal_actions:
                consumed = consumed_event_key(causal)
                for successor in explorer.successors(world, causal):
                    outcome.states += 1
                    new_path = path + (causal,)
                    for name in explorer.check(successor):
                        outcome.violations.append(
                            Violation(property_name=name, path=new_path, world=successor)
                        )
                    new_frontier = (frontier - {consumed}) | created_event_keys(world, successor)
                    stack.append((successor, new_frontier, new_path, depth + 1))
        return outcome


def score_outcome(outcome: ActionOutcome, objective: Objective) -> float:
    """Score an action outcome against an objective.

    Violations dominate everything (each costs :data:`SAFETY_PENALTY`);
    otherwise the objective is evaluated over the chain's leaf worlds
    and averaged.
    """
    if outcome.violations:
        return -SAFETY_PENALTY * len(outcome.violations)
    if not outcome.leaf_worlds:
        return 0.0
    scores = [objective.score(world) for world in outcome.leaf_worlds]
    return sum(scores) / len(scores)


def score_report(report: PredictionReport, objective: Objective) -> float:
    """The report-level future score: outcome scores averaged.

    This is the quantity both choice-scoring paths (the per-choice
    resolver and the amortized policy's scored rounds) add to a
    candidate's immediate score; factored here so the two stay
    definitionally identical.  An empty report scores 0.
    """
    if not report.outcomes:
        return 0.0
    return sum(
        score_outcome(outcome, objective) for outcome in report.outcomes
    ) / len(report.outcomes)


__all__ = [
    "ConsequencePredictor",
    "ActionOutcome",
    "PredictionReport",
    "score_outcome",
    "score_report",
]
