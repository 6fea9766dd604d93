"""Checkpoint serialization, freezing, and digests."""

from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.statemachine import (
    Message,
    SerializationError,
    digest,
    freeze,
    snapshot_value,
)
from repro.statemachine.serialization import checkpoint_state, restore_state


@dataclass
class Wire(Message):
    a: int
    b: list


# Plain-data strategy: scalars and containers thereof.
scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=8)
plain = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.frozensets(st.integers(), max_size=4)
    ),
    max_leaves=12,
)


@given(plain)
def test_snapshot_is_equal_but_distinct(value):
    copy = snapshot_value(value)
    assert copy == value
    if isinstance(value, (list, dict, set)):
        assert copy is not value


@given(plain)
def test_freeze_is_hashable_and_stable(value):
    frozen = freeze(value)
    hash(frozen)
    assert frozen == freeze(value)


@given(plain)
def test_digest_stable_across_copies(value):
    assert digest(value) == digest(snapshot_value(value))


def test_freeze_distinguishes_list_and_tuple():
    assert freeze([1, 2]) != freeze((1, 2))


def test_freeze_dict_order_independent():
    assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})


def test_freeze_set_order_independent():
    assert freeze({3, 1, 2}) == freeze({2, 3, 1})


def test_nested_mutation_does_not_leak():
    original = {"deep": [1, [2, 3]]}
    copy = snapshot_value(original)
    copy["deep"][1].append(4)
    assert original["deep"][1] == [2, 3]


def test_dataclass_snapshot_reconstructs():
    message = Wire(a=1, b=[1, 2])
    copy = snapshot_value(message)
    assert copy == message
    copy.b.append(3)
    assert message.b == [1, 2]


def test_dataclass_freeze_includes_class_name():
    assert "Wire" in repr(freeze(Wire(a=1, b=[])))


def test_non_plain_value_rejected():
    with pytest.raises(SerializationError):
        snapshot_value(object())
    with pytest.raises(SerializationError):
        freeze(lambda: None)


def test_checkpoint_and_restore_roundtrip():
    class Holder:
        pass

    holder = Holder()
    holder.x = [1, 2]
    holder.y = {"k": 3}
    checkpoint = checkpoint_state(holder, ("x", "y"))
    holder.x.append(99)
    holder.y["k"] = 0
    restore_state(holder, checkpoint)
    assert holder.x == [1, 2]
    assert holder.y == {"k": 3}


class Ring(deque):
    pass


@pytest.mark.parametrize("queue", [
    deque([1, 2, 3], maxlen=3),                # flat: one constructor call
    deque([[1], [2, 3]], maxlen=4),            # holding something mutable
    Ring([1, (2, 3)], maxlen=2),               # subclass, back as a plain deque
], ids=["flat", "nested-mutable", "subclass"])
def test_a_bounded_deque_keeps_its_bound(queue):
    copy = snapshot_value(queue)
    assert type(copy) is deque and copy == deque(queue)
    assert copy.maxlen == queue.maxlen
    copy.extend([7, 8, 9, 10])
    assert len(copy) == queue.maxlen          # still drops from the left


def test_a_bounded_deque_keeps_its_bound_wherever_it_sits():
    class Holder:
        pass

    holder = Holder()
    # Rows of flat deques are copied by one map() over the rows.
    holder.windows = [deque([1, 2], maxlen=2), deque([3], maxlen=2)]
    holder.inbox = {"recent": deque([(0, 1)], maxlen=5)}
    checkpoint = checkpoint_state(holder, ("windows", "inbox"))
    holder.windows[0].append(99)
    restore_state(holder, checkpoint)
    assert holder.windows == [deque([1, 2]), deque([3])]
    assert [w.maxlen for w in holder.windows] == [2, 2]
    assert holder.inbox["recent"].maxlen == 5
    assert holder.windows[0] is not checkpoint["windows"][0]
    assert snapshot_value(deque([1, 2])).maxlen is None


def test_the_frozen_form_does_not_carry_the_bound():
    assert freeze(deque([1, 2], maxlen=2)) == freeze(deque([1, 2]))
    assert digest(deque(range(40), maxlen=64)) == digest(deque(range(40)))


def test_digest_differs_for_different_values():
    assert digest({"a": 1}) != digest({"a": 2})
