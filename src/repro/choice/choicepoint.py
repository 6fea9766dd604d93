"""Choice points: the unit of exposed non-determinism.

The paper's programming model (Section 3.1) has applications expose
choices — "the runtime can then consider several peers and return one" —
instead of hard-coding resolution policy.  A :class:`ChoicePoint`
packages one such decision: where it arose, the candidate values, and
application-provided scoring context.

Resolvers (``repro.choice.resolvers``, and the CrystalBall runtime in
``repro.runtime``, which predicts) turn a choice point into a concrete
value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


class ChoiceError(Exception):
    """Raised for empty candidate lists or failed resolution."""


class ConfigurationError(ChoiceError):
    """Raised at install/construction time for invalid resolver wiring.

    Misconfiguration (a runtime fallback without a ``resolve`` method, a
    non-positive policy age) should fail where the wiring happens, not
    thousands of dispatches later inside ``resolve()``.
    """


@dataclass
class ChoicePoint:
    """One exposed decision.

    :param label: stable identifier of the decision site, e.g.
        ``"forward-target"`` or ``"handler:JoinRequest"``.
    :param candidates: the non-empty list of values the application is
        willing to accept.  Order is meaningful: deterministic resolvers
        (e.g. first/fixed) use it.
    :param node_id: the deciding node.
    :param info: optional application hints for model-based scoring
        (e.g. ``{"purpose": "join-forward"}``).
    """

    label: str
    candidates: List[Any]
    node_id: int
    info: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ChoiceError(f"choice {self.label!r} at node {self.node_id} has no candidates")


class ChoiceResolver:
    """Base interface: turn a :class:`ChoicePoint` into one candidate.

    ``node`` is the hosting :class:`~repro.statemachine.node.Node` when
    resolving live (giving access to the predictive model and runtime),
    and ``None`` when resolving inside a sandboxed exploration.
    """

    name = "abstract"

    def resolve(self, point: ChoicePoint, node: Optional[object] = None) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


__all__ = ["ChoicePoint", "ChoiceError", "ChoiceResolver", "ConfigurationError"]
