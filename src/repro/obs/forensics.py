"""Violation forensics: minimal causal explanations of steering decisions.

"When CrystalBall steers an execution away from a predicted
inconsistency, the operator's first question is *why*" — this module
answers it.  Given a causally-stamped trace (see :mod:`repro.obs.causal`)
and either a predicted :class:`~repro.mc.Violation` or the
``runtime.steer.explain`` records the runtime emits at steer time, it
reconstructs the *minimal causal explanation*: the chain of sends,
deliveries, timer fires, and choice resolutions leading from the
resolved choice point to the (predicted or averted) property violation.

Explanations render three ways:

* :meth:`CausalExplanation.to_json` — machine-readable, for artifacts;
* :meth:`CausalExplanation.to_markdown` — for reports and PR comments;
* :meth:`CausalExplanation.to_ascii` — a space-time diagram (one column
  per node, time flowing down) for the terminal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .causal import HappensBeforeGraph, HBEvent


@dataclass(frozen=True)
class ExplanationStep:
    """One event on an explanation's causal chain."""

    event_id: Optional[int]
    time: float
    node: Optional[int]
    category: str
    label: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "event": self.event_id,
            "time": round(self.time, 6),
            "node": self.node,
            "category": self.category,
            "label": self.label,
        }


@dataclass
class CausalExplanation:
    """A minimal causal explanation of one steering decision/violation.

    ``steps`` run root-first: the first step is the earliest cause kept
    (the resolved choice point when one is on the chain), the last is
    the explained event itself.  ``predicted`` is the *hypothetical*
    continuation — the model-checker action path that would have reached
    the violation had the runtime not steered.
    """

    reason: str
    trace_id: int
    steps: List[ExplanationStep] = field(default_factory=list)
    predicted: List[str] = field(default_factory=list)

    @property
    def root(self) -> Optional[ExplanationStep]:
        return self.steps[0] if self.steps else None

    def categories(self) -> List[str]:
        return [step.category for step in self.steps]

    # ------------------------------------------------------------------
    # Renderings
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reason": self.reason,
            "trace_id": self.trace_id,
            "steps": [step.to_dict() for step in self.steps],
            "predicted": list(self.predicted),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_markdown(self) -> str:
        lines = [f"### Why: `{self.reason}`", ""]
        lines.append(f"Causal chain (trace {self.trace_id}, root first):")
        lines.append("")
        for i, step in enumerate(self.steps, start=1):
            where = "?" if step.node is None else f"n{step.node}"
            lines.append(
                f"{i}. `t={step.time:.3f}` **{where}** {step.label}"
            )
        if self.predicted:
            lines.append("")
            lines.append("Predicted continuation (averted by steering):")
            lines.append("")
            for action in self.predicted:
                lines.append(f"- {action}")
        return "\n".join(lines) + "\n"

    def to_ascii(self, width: int = 18) -> str:
        """A space-time diagram: one column per node, time flows down."""
        nodes = sorted({s.node for s in self.steps if s.node is not None})
        if not nodes:
            return "\n".join(s.label for s in self.steps) + "\n"
        col = {node: i for i, node in enumerate(nodes)}
        header = "time".ljust(10) + "".join(
            f"n{node}".ljust(width) for node in nodes
        )
        lines = [f"# {self.reason}", header, "-" * len(header)]
        for step in self.steps:
            cells = [" " * width] * len(nodes)
            label = step.label
            if len(label) > width - 1:
                label = label[: width - 2] + "…"
            if step.node in col:
                cells[col[step.node]] = label.ljust(width)
            lines.append(f"{step.time:<10.3f}" + "".join(cells).rstrip())
        if self.predicted:
            lines.append("")
            lines.append("predicted continuation (averted):")
            for action in self.predicted:
                lines.append(f"  ~ {action}")
        return "\n".join(lines) + "\n"


def _step(event: HBEvent) -> ExplanationStep:
    return ExplanationStep(
        event_id=event.id,
        time=event.time,
        node=event.node,
        category=event.category,
        label=event.label(),
    )


def _compress(events: List[HBEvent]) -> List[ExplanationStep]:
    """Steps for ``events``, with repetitive runs elided.

    Self-rearming timers put dozens of identical fires on a cause
    chain; a *minimal* explanation keeps the first and last of each
    run of same-node/same-label events and says how many were elided.
    Message and choice events are never part of such runs, so nothing
    load-bearing is dropped.
    """
    steps: List[ExplanationStep] = []
    i = 0
    while i < len(events):
        run_end = i
        key = (events[i].node, events[i].label())
        while (
            run_end + 1 < len(events)
            and (events[run_end + 1].node, events[run_end + 1].label()) == key
        ):
            run_end += 1
        steps.append(_step(events[i]))
        if run_end > i:
            last = _step(events[run_end])
            elided = run_end - i - 1
            if elided > 0:
                last = ExplanationStep(
                    event_id=last.event_id,
                    time=last.time,
                    node=last.node,
                    category=last.category,
                    label=f"{last.label} (×{elided + 2})",
                )
            steps.append(last)
        i = run_end + 1
    return steps


def explain_chain(
    graph: HappensBeforeGraph,
    event_id: int,
    reason: str = "",
    predicted: Sequence[str] = (),
    trim_at_choice: bool = True,
) -> CausalExplanation:
    """The minimal causal explanation ending at ``event_id``.

    The full cause chain runs back to a root (usually ``node.start``);
    with ``trim_at_choice`` the chain is cut at the *nearest*
    ``choice.resolve`` ancestor so the explanation is rooted at the
    choice whose consequences surfaced here — the minimal chain in the
    paper's sense.  Chains without a choice ancestor keep their natural
    root.
    """
    events = graph.chain(event_id)
    if trim_at_choice:
        last_choice = None
        for i, event in enumerate(events[:-1]):  # the event itself stays
            if event.category == "choice.resolve":
                last_choice = i
        if last_choice is not None:
            events = events[last_choice:]
    anchor = graph.event(event_id)
    return CausalExplanation(
        reason=reason,
        trace_id=anchor.trace_id if anchor is not None else 0,
        steps=_compress(events),
        predicted=list(predicted),
    )


def explain_steering(
    trace,
    graph: Optional[HappensBeforeGraph] = None,
) -> List[CausalExplanation]:
    """One explanation per ``runtime.steer.explain`` record in ``trace``.

    The runtime stamps each steer record with the full causal chain of
    the *offending delivery* (see ``CrystalBallRuntime.on_inbound``);
    this reconstructs those chains against the happens-before graph and
    appends the steering action itself as the final step.
    """
    if graph is None:
        graph = HappensBeforeGraph.from_trace(trace)
    explanations: List[CausalExplanation] = []
    for rec in trace.select("runtime.steer.explain"):
        causal = getattr(rec, "causal", None) or {}
        chain_ids = causal.get("chain") or []
        anchor = chain_ids[-1] if chain_ids else None
        if anchor is not None and graph.event(anchor) is not None:
            explanation = explain_chain(
                graph, anchor,
                reason=rec.data.get("reason", ""),
                predicted=rec.data.get("predicted") or [],
            )
        else:
            explanation = CausalExplanation(
                reason=rec.data.get("reason", ""),
                trace_id=causal.get("trace", 0),
                predicted=list(rec.data.get("predicted") or []),
            )
        explanation.steps.append(ExplanationStep(
            event_id=None,
            time=rec.time,
            node=rec.node,
            category="runtime.steer",
            label=(
                f"steer: drop {rec.data.get('msg')} from "
                f"n{rec.data.get('src')}, break connection"
            ),
        ))
        explanations.append(explanation)
    return explanations


def _anchor_action(graph: HappensBeforeGraph, action: Any) -> Optional[HBEvent]:
    """The live send event a predicted action corresponds to, if any.

    Deliver/drop actions concern an in-flight message: the best live
    anchor is the latest matching ``net.send``.  Timer actions are
    hypothetical (they exist only inside the explored world), so they
    anchor nowhere and survive only in ``predicted``.
    """
    msg = getattr(action, "msg", None)
    if msg is None:
        return None
    return graph.latest_send(
        getattr(action, "src", None),
        getattr(action, "dst", None),
        type(msg).__name__,
    )


def explain_violation(
    trace,
    violation,
    graph: Optional[HappensBeforeGraph] = None,
) -> CausalExplanation:
    """The causal explanation of one predicted :class:`Violation`.

    Every deliver/drop action on the violation's predicted path is
    anchored to the latest matching live send; the union of their
    (choice-trimmed) cause chains, in id order, is the live prefix of
    the violation — the messages that already exist and would carry the
    execution into the bad state.  The predicted action path itself is
    attached verbatim as the hypothetical continuation.
    """
    if graph is None:
        graph = HappensBeforeGraph.from_trace(trace)
    kept: Dict[int, HBEvent] = {}
    trace_id = 0
    for action in violation.path:
        anchor = _anchor_action(graph, action)
        if anchor is None:
            continue
        trace_id = trace_id or anchor.trace_id
        explanation = explain_chain(graph, anchor.id)
        for step in explanation.steps:
            if step.event_id is not None:
                event = graph.event(step.event_id)
                if event is not None:
                    kept[event.id] = event
    steps = _compress([kept[i] for i in sorted(kept)])
    return CausalExplanation(
        reason=violation.property_name,
        trace_id=trace_id,
        steps=steps,
        predicted=[a.describe() for a in violation.path],
    )


__all__ = [
    "ExplanationStep",
    "CausalExplanation",
    "explain_chain",
    "explain_steering",
    "explain_violation",
]
