"""Sandbox context semantics: effect collection and choice scripting."""

from dataclasses import dataclass

import pytest

from repro.choice import ChoiceError, ChoicePoint
from repro.statemachine import ChoiceRequested, Message, SandboxContext


@dataclass
class Out(Message):
    n: int


def test_send_collected_not_executed():
    ctx = SandboxContext(node_id=1)
    ctx.send(2, Out(n=1))
    ctx.send(3, Out(n=2))
    assert ctx.effects.sent == [(2, Out(n=1)), (3, Out(n=2))]


def test_timers_collected():
    ctx = SandboxContext(node_id=1)
    ctx.set_timer("t", 0.5, payload="p")
    ctx.cancel_timer("u")
    assert ctx.effects.timers_set == [("t", 0.5, "p")]
    assert ctx.effects.timers_cancelled == ["u"]


def test_scripted_choice_consumed_in_order():
    ctx = SandboxContext(node_id=1, choice_script=["b", "a"])
    point = ChoicePoint(label="l", candidates=["a", "b"], node_id=1)
    assert ctx.choose(point) == "b"
    assert ctx.choose(point) == "a"


def test_script_exhaustion_raises_choice_requested():
    ctx = SandboxContext(node_id=1, choice_script=["a"])
    point = ChoicePoint(label="l", candidates=["a", "b"], node_id=1)
    ctx.choose(point)
    with pytest.raises(ChoiceRequested) as info:
        ctx.choose(point)
    assert info.value.consumed == ["a"]
    assert info.value.point.label == "l"


def test_invalid_scripted_value_rejected():
    ctx = SandboxContext(node_id=1, choice_script=["zzz"])
    point = ChoicePoint(label="l", candidates=["a", "b"], node_id=1)
    with pytest.raises(ChoiceError):
        ctx.choose(point)


def test_sandbox_random_is_deterministic():
    a = SandboxContext(node_id=1, rng_seed=3).random("s").random()
    b = SandboxContext(node_id=1, rng_seed=3).random("s").random()
    assert a == b


def test_sandbox_random_differs_by_seed_and_node():
    base = SandboxContext(node_id=1, rng_seed=3).random("s").random()
    assert SandboxContext(node_id=1, rng_seed=4).random("s").random() != base
    assert SandboxContext(node_id=2, rng_seed=3).random("s").random() != base


def test_now_is_fixed():
    ctx = SandboxContext(node_id=1, now=42.0)
    assert ctx.now() == 42.0


def test_record_is_silent():
    ctx = SandboxContext(node_id=1)
    assert ctx.record("anything", data=1) is None
