"""Service dispatch, checkpointing, and the choose API."""

from dataclasses import dataclass

import pytest

from repro.choice import ChoiceError
from repro.statemachine import (
    DispatchError,
    Message,
    SandboxContext,
    Service,
    msg_handler,
)


@dataclass
class Item(Message):
    value: int


class Chooser(Service):
    state_fields = ("picks", "count")

    def __init__(self, node_id=0):
        super().__init__(node_id)
        self.picks = []
        self.count = 0

    @msg_handler(Item)
    def on_item(self, src, msg):
        self.count += 1
        pick = self.choose("pick", [10, 20, 30])
        self.picks.append(pick)


def sandboxed(service, script=None):
    service.ctx = SandboxContext(service.node_id, choice_script=script or [])
    return service


def test_deliver_returns_false_when_unhandled():
    service = sandboxed(Chooser())
    assert service.deliver(1, object()) is False


def test_deliver_invokes_handler():
    service = sandboxed(Chooser(), script=[20])
    assert service.deliver(1, Item(value=1)) is True
    assert service.count == 1
    assert service.picks == [20]


def test_choose_empty_candidates_raises():
    service = sandboxed(Chooser())
    with pytest.raises(ChoiceError):
        service.choose("x", [])


def test_choose_single_candidate_shortcuts():
    # No context interaction needed for a single candidate.
    service = Chooser()
    service.ctx = None
    assert service.choose("x", ["only"]) == "only"


def test_checkpoint_restore_roundtrip():
    service = sandboxed(Chooser(), script=[10, 20])
    service.deliver(1, Item(value=1))
    saved = service.checkpoint()
    service.deliver(1, Item(value=2))
    assert service.count == 2
    service.restore(saved)
    assert service.count == 1
    assert service.picks == [10]


def test_checkpoint_is_independent_copy():
    service = sandboxed(Chooser(), script=[10])
    service.deliver(1, Item(value=1))
    saved = service.checkpoint()
    saved["picks"].append(999)
    assert service.picks == [10]


def test_state_digest_changes_with_state():
    service = sandboxed(Chooser(), script=[10, 10])
    before = service.state_digest()
    service.deliver(1, Item(value=1))
    assert service.state_digest() != before


def test_state_digest_is_the_digest_of_the_checkpoint_without_the_copy():
    from repro.statemachine import digest

    service = sandboxed(Chooser(), script=[10])
    service.deliver(1, Item(value=1))
    assert service.state_digest() == digest(service.checkpoint())
    assert service.live_state()["picks"] is service.picks
    assert service.picks == [10]  # digesting only reads


def test_state_digest_stable_for_equal_state():
    a = sandboxed(Chooser())
    b = sandboxed(Chooser())
    assert a.state_digest() == b.state_digest()


def test_unknown_timer_raises():
    service = sandboxed(Chooser())
    with pytest.raises(DispatchError):
        service.fire_timer("nope")


def test_deliver_needs_second_script_entry():
    service = sandboxed(Chooser(), script=[10])
    service.deliver(1, Item(value=1))
    from repro.statemachine import ChoiceRequested

    with pytest.raises(ChoiceRequested):
        service.deliver(1, Item(value=2))
