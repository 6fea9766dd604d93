"""Action identity and description coverage."""

from repro.mc import DeliverAction, DropAction, TimerAction

from .conftest import Token


def test_deliver_key_includes_handler():
    a = DeliverAction(src=0, dst=1, msg=Token(value=1), handler="h1")
    b = DeliverAction(src=0, dst=1, msg=Token(value=1), handler="h2")
    assert a.key() != b.key()


def test_deliver_key_payload_sensitive():
    a = DeliverAction(src=0, dst=1, msg=Token(value=1), handler="h")
    b = DeliverAction(src=0, dst=1, msg=Token(value=2), handler="h")
    assert a.key() != b.key()


def test_keys_distinguish_action_types():
    deliver = DeliverAction(src=0, dst=1, msg=Token(value=1), handler="h")
    drop = DropAction(src=0, dst=1, msg=Token(value=1))
    assert deliver.key()[0] == "deliver"
    assert drop.key()[0] == "drop"
    assert deliver.key() != drop.key()


def test_timer_key_includes_payload():
    a = TimerAction(node=1, name="t", payload="x")
    b = TimerAction(node=1, name="t", payload="y")
    assert a.key() != b.key()


def test_describe_is_readable():
    assert "Token 0->1" in DeliverAction(0, 1, Token(value=1), "on_token").describe()
    assert "timer t at 2" == TimerAction(2, "t").describe()
    assert "drop" in DropAction(0, 1, Token(value=1)).describe()


def test_keys_are_stable_across_instances():
    a = DeliverAction(src=0, dst=1, msg=Token(value=1), handler="h")
    b = DeliverAction(src=0, dst=1, msg=Token(value=1), handler="h")
    assert a.key() == b.key()
