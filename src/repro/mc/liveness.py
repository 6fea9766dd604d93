"""Bounded liveness checking.

"Systems such as MaceMC and CrystalBall already contain the ability to
specify safety and liveness properties" (Section 3.2).  Over a finite
horizon the practical liveness question is *reachability of progress*:
can the system still reach a state satisfying the progress predicate?
:class:`BoundedLivenessChecker` answers it by bounded BFS, returning a
witness path when progress is reachable and the explored frontier
statistics when it is not (a bounded-liveness violation candidate, in
MaceMC terminology a potential dead state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .actions import Action
from .explorer import ExplorationResult, Explorer
from .world import WorldState

Predicate = Callable[[WorldState], bool]


@dataclass(frozen=True)
class LivenessProperty:
    """A progress condition that must remain reachable."""

    name: str
    predicate: Predicate


@dataclass
class LivenessResult:
    """Outcome of a bounded progress-reachability check."""

    property_name: str
    reachable: bool
    witness_path: Tuple[Action, ...] = ()
    witness_world: Optional[WorldState] = None
    states_explored: int = 0
    truncated: bool = False

    @property
    def violated(self) -> bool:
        """Progress unreachable within the bound *and* the search was
        exhaustive — a genuine dead region of the state space."""
        return not self.reachable and not self.truncated


class BoundedLivenessChecker:
    """Checks whether a progress predicate is reachable from a world."""

    def __init__(self, explorer: Explorer, max_depth: int = 6, max_states: int = 10_000) -> None:
        self.explorer = explorer
        self.max_depth = max_depth
        self.max_states = max_states

    def check(self, world: WorldState, prop: LivenessProperty) -> LivenessResult:
        """The explorer's bounded BFS, stopped at the first state
        satisfying ``prop``."""
        search = ExplorationResult()
        for current, path in self.explorer._search(world, self.max_depth, self.max_states, search):
            if prop.predicate(current):
                return LivenessResult(
                    property_name=prop.name, reachable=True, witness_path=path,
                    witness_world=current, states_explored=search.states_explored,
                )
        return LivenessResult(
            property_name=prop.name, reachable=False,
            states_explored=search.states_explored, truncated=search.truncated,
        )

    def check_all(self, world: WorldState, properties: List[LivenessProperty]) -> List[LivenessResult]:
        """Check every liveness property independently."""
        return [self.check(world, prop) for prop in properties]


__all__ = ["LivenessProperty", "LivenessResult", "BoundedLivenessChecker"]
