"""E6/A7 causal-forensics sessions: end-to-end steering explanations."""

import hashlib

import pytest

from repro.chaos import FaultPlan
from repro.eval import run_trace_session
from repro.fuzz.executor import RandTreeFuzzTarget


@pytest.fixture(scope="module")
def e6():
    return run_trace_session("e6", seed=1, keep_cluster=True)


@pytest.fixture(scope="module")
def a7():
    return run_trace_session("a7", seed=1, keep_cluster=True)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_trace_session("zzz")


def test_e6_steers_and_explains(e6):
    assert e6.filtered > 0
    assert e6.steering
    assert e6.events > 0


def test_e6_explanations_root_at_the_resolved_choice(e6):
    # The acceptance property: every steering explanation's chain is
    # rooted at the resolved choice point (the proposer choice) and
    # runs through real messages to the steered delivery.
    for explanation in e6.steering:
        assert explanation.root is not None
        assert explanation.root.category == "choice.resolve"
        assert "proposer" in explanation.root.label
        cats = explanation.categories()
        assert "net.send" in cats
        assert "net.deliver" in cats
        assert cats[-1] == "runtime.steer"


def test_e6_chain_contains_every_message_on_the_causal_path(e6):
    # Between the choice root and the steered delivery, each hop must
    # be a send immediately followed by its delivery — no message on
    # the violation's live causal path is missing from the chain.
    for explanation in e6.steering:
        cats = explanation.categories()
        body = cats[1:-1]  # between choice.resolve and runtime.steer
        sends = [i for i, c in enumerate(body) if c == "net.send"]
        assert sends
        for i in sends:
            assert body[i + 1] == "net.deliver"


def test_e6_predicted_continuation_attached(e6):
    for explanation in e6.steering:
        assert explanation.predicted
        assert any("Accept" in step for step in explanation.predicted)


def test_e6_violation_forensics_carry_predicted_paths(e6):
    assert e6.violations
    best = e6.violations[0]
    assert best.reason.startswith("canary-quiet-acceptor")
    assert best.predicted


def test_a7_violation_forensics_anchor_live_sends(a7):
    # Under chaos the retry sweeps put Prepare traffic on the wire, so
    # the preferred predicted violation has live message anchors: its
    # explanation carries a causal prefix ending in anchored sends.
    assert a7.violations
    best = a7.violations[0]
    assert any(s.category == "net.send" for s in best.steps)


def test_a7_explanations_survive_message_chaos(a7):
    assert a7.plan_name == "message-chaos"
    assert a7.steering
    for explanation in a7.steering:
        assert explanation.root.category == "choice.resolve"


def test_a7_duplicates_attributable_to_original_sends(a7):
    assert a7.duplicate_deliveries > 0
    graph = a7.graph
    dups = [e for e in graph.by_category("net.deliver") if e.dup]
    for dup in dups:
        parent = graph.event(dup.parent)
        assert parent is not None
        assert parent.category == "net.send"
        assert parent.data["dst"] == dup.node


def test_a7_violation_explanation_contains_chaos_touched_message(a7):
    # The predicted violation's causal prefix must mention a message
    # that chaos interfered with (dropped or duplicated) — the whole
    # point of forensics under fault injection.
    assert a7.violations
    best = a7.violations[0]
    kinds_on_chain = {
        s.label.split()[1].split("→")[0]
        for s in best.steps if s.category == "net.send"
    }
    graph = a7.graph
    chaos_touched = set()
    for event in graph.by_category("net.deliver"):
        if event.dup:
            parent = graph.event(event.parent)
            if parent is not None:
                chaos_touched.add(parent.data.get("kind"))
    for event in graph.by_category("net.drop"):
        chaos_touched.add(event.data.get("kind"))
    assert kinds_on_chain & chaos_touched


RANDTREE_PLAN = ("at 1.294743149668302 crash 2 recover 3.1842125565677577\n"
                 "at 5.43493664748466 partition 1,2,4,7 | 0,3,5,6 heal 8.997576713193752")


def _canary_prediction(states):
    return {
        "actions": 15, "total_states": states, "unsafe_actions": 15,
        "violations": states, "near_violations": {"canary-quiet-acceptor-4": states},
        "min_violation_depth": 1, "budget_exhausted": False,
    }


def test_periodic_prediction_runs_are_pinned(e6, a7):
    """Runs that steer from periodic predictions, pinned across commits
    (the other tests here only check that two runs agree)."""
    assert e6.trace_digest == (
        "c28631bf89c34587946fbe995831cfc48349b607e3b0462acc09a8f85ac5e6df")
    assert e6.prediction == _canary_prediction(15)
    assert a7.trace_digest == (
        "30ea4b6aab7d81cfb9f549792a7b23b69c96f3f78716f4d0689e3a05d026d70e")
    assert a7.prediction == _canary_prediction(19)
    steered = RandTreeFuzzTarget().execute(
        FaultPlan.parse(RANDTREE_PLAN), seed=1, steering=True)
    assert steered.trace_digest == (
        "e15a47ad64ed78580696729573655c547391de96bae25235bfe769c98e9a1ff8")
    assert steered.violations == [
        f"t={t}: cycle through consistent edge 2->1"
        for t in ("7.5", "8", "8.5", "9", "9.5", "10", "end")
    ]


def test_a7_trace_dump_is_pinned(a7, tmp_path):
    """The JSONL dump of the stamped A7 trace, byte for byte, pinned
    across commits: how the log stores a record must not move how it
    renders one, causal stamp included."""
    path = tmp_path / "a7.jsonl"
    assert a7.cluster.sim.trace.dump_jsonl(str(path)) == 3712
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "d071d26617aab2207022f0d2016fd9f37e44462f743a40aa48ac8612b932c187")


def test_sessions_are_deterministic():
    first = run_trace_session("e6", seed=2)
    second = run_trace_session("e6", seed=2)
    assert first.trace_digest == second.trace_digest
    assert len(first.steering) == len(second.steering)
    assert first.summary() == second.summary()


def _pin(explanations):
    return hashlib.sha256(
        "\n".join(e.to_json() for e in explanations).encode()).hexdigest()


def test_explanations_are_pinned(e6, a7):
    """Every steering and violation explanation, byte for byte, pinned
    across commits: what forensics reads of a stamped trace must not
    move when the tracer changes."""
    assert e6.steering[0].to_dict() == {
        "reason": "canary-quiet-acceptor-4",
        "trace_id": 1,
        "predicted": [
            "timer client at 0",
            "deliver Accept 0->0 via on_accept",
            "deliver Accept 0->4 via on_accept",
        ],
        "steps": [
            {"category": "choice.resolve", "event": 295,
             "label": "choice proposer=0", "node": 0, "time": 1.5},
            {"category": "net.send", "event": 296,
             "label": "send Accept\u2192n0", "node": 0, "time": 1.5},
            {"category": "net.deliver", "event": 354,
             "label": "deliver from n0", "node": 0, "time": 1.5},
            {"category": "runtime.steer", "event": None,
             "label": "steer: drop Accept from n0, break connection",
             "node": 0, "time": 1.5},
        ],
    }
    pins = {
        ("e6", "steering"): "f2daeeb5af725eb30d081f54725c6e0d13d7c2f767c54b92f4b86b0a2f0b519a",
        ("e6", "violations"): "0c451df82bf4e85506581489c598d369f5ee290b97f6ab2fabdc714ffaedc80a",
        ("a7", "steering"): "543f4f14cfa6965bb8ab7b12f41984c02f5fd32be0fbc2f05a4ce6709b7a9662",
        ("a7", "violations"): "4409323d1dd56224f354b0a134ac6ba77b32d67f4a23d71e7c7726754b11518a",
    }
    for session in (e6, a7):
        for kind in ("steering", "violations"):
            explanations = getattr(session, kind)
            assert len(explanations) == 5
            assert _pin(explanations) == pins[(session.experiment, kind)]


EVENT_STAMP = {"ev", "trace", "cause", "attempt", "dup"}
LINK_STAMP = {"trace", "in", "chain"}


def test_stamps_carry_cause_links_only(e6, a7):
    # A stamp either opens an event (its id, trace and cause, plus the
    # retransmission attempt or duplicate flag) or links a record to
    # the executing event (plus a steering explanation's chain).
    seen = set()
    for session in (e6, a7):
        for rec in session.cluster.sim.trace:
            keys = set(rec.causal or ())
            assert keys <= EVENT_STAMP or keys <= LINK_STAMP, (rec.category, keys)
            seen |= keys
    # No retransmissions here (no reliable layer), so no ``attempt``.
    assert seen == (EVENT_STAMP | LINK_STAMP) - {"attempt"}
