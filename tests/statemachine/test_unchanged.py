"""``unchanged``: a conservative test that a checkpoint holds its
original's state, sound only if it never says so when the digests
differ.  The generators lean on the values that compare equal yet
freeze apart: ``1``/``1.0``/``True``, ``0.0``/``-0.0``, ``IntEnum``,
namedtuples, ``defaultdict``, re-ordered dict keys, nested containers
and bounded deques."""

from collections import defaultdict, deque, namedtuple
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.statemachine.serialization import digest, snapshot_value, unchanged


class Level(IntEnum):
    LOW = 0
    HIGH = 1


Pair = namedtuple("Pair", "a b")

traps = st.sampled_from([0, 1, -1, 0.0, -0.0, 1.0, True, False, Level.LOW, Level.HIGH,
                         "a", b"a", None, 2**70])
scalars = traps | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3)
keys = traps.filter(lambda k: k is not None) | st.integers(-3, 3) | st.text(max_size=2)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.tuples(children, children).map(lambda t: Pair(*t))
        | st.frozensets(keys, max_size=4)
        | st.sets(keys, max_size=4)
        | st.builds(deque, st.lists(children, max_size=4),
                    st.none() | st.integers(4, 6))
        | st.dictionaries(keys, children, max_size=4)
        | st.dictionaries(keys, children, max_size=4).map(lambda d: defaultdict(int, d))
    )


values = st.recursive(scalars, _containers, max_leaves=8)


def _as_floats(values):
    return [float(v) if type(v) is int else v for v in values]


def _twins(value):
    """Values ``==`` to ``value`` (or nearly: a rebuilt container) that
    may freeze differently."""
    kind = type(value)
    twins = [value, snapshot_value(value)]
    if kind in (int, Level) or kind is bool:
        twins += [float(value), int(str(int(value)))]
        if value in (0, 1):
            twins += [bool(value), Level(int(value))]
    elif kind is float:
        twins.append(-value if value == 0.0 else value + 0.0)
        if value.is_integer():
            twins.append(int(value))
    elif isinstance(value, tuple):
        twins.append(tuple(value))
        if len(value) == 2:
            twins.append(Pair(*value))
    elif isinstance(value, dict):
        twins += [dict(value), dict(reversed(list(value.items()))),
                  defaultdict(int, value), dict(zip(value, _as_floats(value.values()))),
                  dict(zip(value, reversed(list(value.values()))))]
    elif isinstance(value, deque):
        twins += [deque(value), deque(value, 7)]
    elif isinstance(value, (set, frozenset)):
        twins += [set(value), frozenset(value)]
    elif isinstance(value, list):
        twins += [list(value), tuple(value), [snapshot_value(v) for v in value],
                  _as_floats(value)]
    return twins


@st.composite
def original_and_copy(draw):
    original = draw(st.dictionaries(st.sampled_from("abcde"), values, min_size=1, max_size=5))
    # One field is rewritten (or left out); the others are kept or
    # copied, so the check's verdict turns on that field.
    victim = draw(st.sampled_from(sorted(original)))
    copy = {name: draw(st.sampled_from([value, snapshot_value(value)]))
            for name, value in original.items() if name != victim}
    if draw(st.integers(0, 9)):
        copy[victim] = draw(st.sampled_from(_twins(original[victim])) | values)
    if draw(st.booleans()):
        copy = dict(reversed(list(copy.items())))
    return original, copy


@given(original_and_copy())
@settings(max_examples=300)
def test_unchanged_implies_equal_digests(pair):
    original, copy = pair
    if unchanged(copy, original):
        assert digest(copy) == digest(original)


@given(st.dictionaries(st.sampled_from("abcde"), values, max_size=5))
def test_a_state_is_unchanged_from_itself_and_its_shallow_copy(state):
    assert unchanged(state, state)
    assert unchanged(dict(state), state)
    assert unchanged(dict(reversed(list(state.items()))), state)


@pytest.mark.parametrize("value", [
    [1, "x", (2, 3)], (1, 2), {1: "a", 2: "b"}, {1, 2}, frozenset({3}),
    deque([1, 2], 5), 2**70, "s", b"b",
])
def test_a_copy_of_a_flat_field_is_unchanged(value):
    state = {"f": value, "g": [1, 2]}
    assert unchanged({"f": snapshot_value(value), "g": list(state["g"])}, state)


@pytest.mark.parametrize("before, after", [
    (1, 1.0), (1, True), (0, False), (1, Level.HIGH), (0.0, -0.0), (0.5, float("0.5")),
    ((1, 2), Pair(1, 2)), ({1: 2}, defaultdict(int, {1: 2})),
    ({1: 2, 3: 4}, {3: 4, 1: 2}), (deque([1], 2), deque([1], 3)),
    ([[1]], [[1]]), ({"k": [1]}, {"k": [1]}), ([1, 2], [1, 3]), ([1], [1, 2]),
    ({1: "a"}, {1: "b"}), ({1: "a"}, {2: "a"}), ("a", "b"), (None, 0),
])
def test_equal_but_differently_frozen_or_nested_values_count_as_changed(before, after):
    assert not unchanged({"f": after}, {"f": before})


def test_a_missing_or_extra_field_counts_as_changed():
    assert not unchanged({"a": 1}, {"a": 1, "b": 2})
    assert not unchanged({"a": 1, "b": 2}, {"a": 1})
