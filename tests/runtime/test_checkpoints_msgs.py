"""Runtime wire messages: classification and sizes."""

from repro.runtime import CheckpointMsg
from repro.runtime.checkpoints import RUNTIME_MESSAGE_TYPES
from repro.statemachine import Message
from dataclasses import dataclass


@dataclass
class AppMsg(Message):
    x: int


def test_runtime_messages_classified():
    assert RUNTIME_MESSAGE_TYPES == (CheckpointMsg,)
    msg = CheckpointMsg(sender=0, epoch=1, taken_at=0.0, sent_at=0.0, state={})
    assert isinstance(msg, RUNTIME_MESSAGE_TYPES)


def test_app_messages_not_runtime():
    assert not isinstance(AppMsg(x=1), RUNTIME_MESSAGE_TYPES)
    assert not isinstance("just a string", RUNTIME_MESSAGE_TYPES)


def test_checkpoint_size_grows_with_state():
    small = CheckpointMsg(sender=0, epoch=1, taken_at=0.0, sent_at=0.0,
                          state={"a": 1})
    big = CheckpointMsg(sender=0, epoch=1, taken_at=0.0, sent_at=0.0,
                        state={f"k{i}": list(range(10)) for i in range(20)})
    assert big.wire_size() > small.wire_size()


def test_checkpoint_carries_timers():
    msg = CheckpointMsg(sender=2, epoch=3, taken_at=1.0, sent_at=1.0,
                        state={}, timers=[("hb", 0.5, None)])
    assert msg.timers == [("hb", 0.5, None)]
    assert msg.frozen() == msg.frozen()
