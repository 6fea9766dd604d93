"""Resolver test doubles: a fixed index and a per-label script."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.choice import ChoiceError, ChoicePoint, ChoiceResolver, FirstResolver


class FixedResolver(ChoiceResolver):
    """Always pick the candidate at a fixed index (clamped)."""

    name = "fixed"

    def __init__(self, index: int = 0) -> None:
        self.index = index

    def resolve(self, point: ChoicePoint, node: Optional[object] = None) -> Any:
        return point.candidates[min(self.index, len(point.candidates) - 1)]


class ScriptedResolver(ChoiceResolver):
    """Replay a per-label script of values."""

    name = "scripted"

    def __init__(self, script: Dict[str, List[Any]], fallback: Optional[ChoiceResolver] = None) -> None:
        self._script = {label: list(values) for label, values in script.items()}
        self._fallback = fallback or FirstResolver()

    def resolve(self, point: ChoicePoint, node: Optional[object] = None) -> Any:
        queue = self._script.get(point.label)
        if not queue:
            return self._fallback.resolve(point, node)
        value = queue.pop(0)
        if value not in point.candidates:
            raise ChoiceError(
                f"scripted value {value!r} not a candidate of {point.label!r}"
            )
        return value
