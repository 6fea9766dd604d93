"""Forensics: minimal causal explanations and their renderings."""

import json

import pytest

from repro.mc import SafetyProperty
from repro.obs import (
    CausalExplanation,
    ExplanationStep,
    HappensBeforeGraph,
    explain_chain,
    explain_steering,
)
from repro.runtime import install_crystalball
from repro.statemachine import Cluster

from tests.runtime.test_controller import factory


@pytest.fixture(scope="module")
def steered_cluster():
    """The reference steering scenario, run once with tracing on."""
    prop = SafetyProperty(
        "node0-low",
        lambda w: w.state_of(0).get("value", 0) < 1 if 0 in w.node_states else True,
    )
    cluster = Cluster(3, factory, seed=3, causal=True)
    install_crystalball(
        cluster, factory, properties=[prop],
        checkpoint_period=0.5, prediction_period=0.9, chain_depth=2,
        budget=300,
    )
    cluster.start_all()
    cluster.run(until=6.0)
    return cluster


def test_steer_explain_records_emitted(steered_cluster):
    records = steered_cluster.sim.trace.select("runtime.steer.explain")
    assert records
    for rec in records:
        assert rec.causal is not None
        assert rec.causal["chain"]
        assert rec.data["reason"] == "node0-low"
        assert rec.data["predicted"]


def test_steering_explanations_reconstruct_full_chain(steered_cluster):
    explanations = explain_steering(steered_cluster.sim.trace)
    assert explanations
    explanation = explanations[0]
    cats = explanation.categories()
    # the offending Bump: sender start -> its timer -> send -> deliver,
    # then the steering action itself as the final step.
    assert cats[0] == "node.start"
    assert "net.send" in cats
    assert "net.deliver" in cats
    assert cats[-1] == "runtime.steer"
    assert explanation.predicted  # the averted continuation rides along


def test_explanation_renderings(steered_cluster):
    explanation = explain_steering(steered_cluster.sim.trace)[0]
    as_json = json.loads(explanation.to_json())
    assert as_json["reason"] == "node0-low"
    assert [s["category"] for s in as_json["steps"]] \
        == explanation.categories()
    md = explanation.to_markdown()
    assert "node0-low" in md and "Predicted continuation" in md
    ascii_art = explanation.to_ascii()
    assert "time" in ascii_art.splitlines()[1]
    assert "steer" in ascii_art


def test_explain_chain_trims_at_nearest_choice():
    # Build a synthetic stamped trace: start -> choice -> choice -> send.
    from repro.sim.trace import TraceLog, TraceRecord

    log = TraceLog()
    stamps = [
        (0.0, "node.start", 0, {}, {"ev": 1, "trace": 1, "cause": None}),
        (0.1, "choice.resolve", 0, {"label": "a"},
         {"ev": 2, "trace": 1, "cause": 1}),
        (0.2, "choice.resolve", 0, {"label": "b"},
         {"ev": 3, "trace": 1, "cause": 2}),
        (0.3, "net.send", 0, {"dst": 1, "kind": "X"},
         {"ev": 4, "trace": 1, "cause": 3}),
    ]
    for time, cat, node, data, causal in stamps:
        log._records.append(TraceRecord(
            time=time, category=cat, node=node, data=data, causal=causal))
    graph = HappensBeforeGraph.from_trace(log)
    trimmed = explain_chain(graph, 4, reason="r")
    assert [s.event_id for s in trimmed.steps] == [3, 4]  # nearest choice
    full = explain_chain(graph, 4, reason="r", trim_at_choice=False)
    assert [s.event_id for s in full.steps] == [1, 2, 3, 4]


def test_compression_elides_repetitive_timer_runs():
    from repro.sim.trace import TraceLog, TraceRecord

    log = TraceLog()
    log._records.append(TraceRecord(
        time=0.0, category="node.start", node=0, data={},
        causal={"ev": 1, "trace": 1, "cause": None}))
    for i in range(8):
        log._records.append(TraceRecord(
            time=0.5 * (i + 1), category="node.timer", node=0,
            data={"name": "sweep"},
            causal={"ev": i + 2, "trace": 1, "cause": i + 1}))
    graph = HappensBeforeGraph.from_trace(log)
    explanation = explain_chain(graph, 9, reason="r")
    labels = [s.label for s in explanation.steps]
    assert labels[0] == "node.start"
    assert labels[1] == "timer sweep"
    assert labels[2] == "timer sweep (×8)"  # 8 fires collapsed to 2 steps
    assert len(labels) == 3


def test_empty_explanation_renders():
    explanation = CausalExplanation(reason="r", trace_id=0)
    assert explanation.root is None
    assert json.loads(explanation.to_json())["steps"] == []
    assert explanation.to_ascii().strip() == ""
    assert "r" in explanation.to_markdown()


def test_step_serialization_roundtrip():
    step = ExplanationStep(
        event_id=3, time=1.25, node=2, category="net.send", label="send X",
    )
    assert step.to_dict() == {
        "event": 3, "time": 1.25, "node": 2,
        "category": "net.send", "label": "send X",
    }
