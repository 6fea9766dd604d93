"""The table-dispatched walkers against the recursive reference.

``snapshot_value`` and ``freeze`` share immutable leaves and take
constructor-level fast paths.  The walkers they replaced — one
``isinstance`` chain per element, every container rebuilt — are kept
here, and only here, as the oracle: outputs must be equal, of identical
types, and encode to identical bytes.
"""

import dataclasses
from collections import OrderedDict, defaultdict, deque, namedtuple
from dataclasses import dataclass
from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from repro.statemachine import Message, SerializationError, digest, freeze, snapshot_value
from repro.statemachine.serialization import encode_frozen

# ----------------------------------------------------------------------
# Oracle: the walkers as they were before the dispatch table
# ----------------------------------------------------------------------

_SCALARS = (type(None), bool, int, float, str, bytes)


def oracle_snapshot(value):
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {oracle_snapshot(k): oracle_snapshot(v) for k, v in value.items()}
    if isinstance(value, list):
        return [oracle_snapshot(v) for v in value]
    if isinstance(value, deque):
        return deque(oracle_snapshot(v) for v in value)
    if isinstance(value, tuple):
        return tuple(oracle_snapshot(v) for v in value)
    if isinstance(value, (set, frozenset)):
        copied = {oracle_snapshot(v) for v in value}
        return frozenset(copied) if isinstance(value, frozenset) else copied
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: oracle_snapshot(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return type(value)(**fields)
    raise SerializationError(type(value).__name__)


def oracle_freeze(value):
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        items = tuple(sorted(((oracle_freeze(k), oracle_freeze(v)) for k, v in value.items()),
                             key=lambda kv: repr(kv[0])))
        return ("__dict__", items)
    if isinstance(value, list):
        return ("__list__", tuple(oracle_freeze(v) for v in value))
    if isinstance(value, deque):
        return ("__deque__", tuple(oracle_freeze(v) for v in value))
    if isinstance(value, tuple):
        return ("__tuple__", tuple(oracle_freeze(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("__set__", tuple(sorted((oracle_freeze(v) for v in value), key=repr)))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = tuple(
            (f.name, oracle_freeze(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
        return ("__dc__", type(value).__name__, fields)
    raise SerializationError(type(value).__name__)


# ----------------------------------------------------------------------
# Plain data, including the shapes the fast paths key on
# ----------------------------------------------------------------------


@dataclass
class Wire(Message):
    seq: int
    body: object


@dataclass(frozen=True, eq=False)
class Sealed:
    """Hashable (by identity) yet holding something mutable: may sit in
    a set or a frozenset and still must be copied."""

    items: object


class Color(IntEnum):
    RED = 1
    BLUE = 2


Point = namedtuple("Point", "x y")


class Stack(list):
    pass


class Ring(deque):
    pass


class Bag(set):
    pass


class Sack(frozenset):
    pass

# 0/1/True/False/0.0/1.0 collide under == and hash; the walkers must
# keep them apart by type.
scalars = (
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from([0.0, 1.0, -1.5])
    | st.text("ab'\"", max_size=2) | st.binary(max_size=2) | st.sampled_from(list(Color))
)


def _hashable(children):
    return (
        st.lists(children, max_size=3).map(tuple)
        | st.frozensets(children, max_size=3)
        | st.tuples(children, children).map(lambda xy: Point(*xy))
    )


hashables = st.recursive(scalars, _hashable, max_leaves=6)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(children, max_size=4).map(deque)
        | st.sets(hashables, max_size=4)
        | st.frozensets(hashables, max_size=4)
        | st.dictionaries(hashables, children, max_size=4)
        | st.dictionaries(hashables, children, max_size=3).map(
            lambda d: defaultdict(list, d))
        | st.dictionaries(hashables, children, max_size=3).map(OrderedDict)
        | st.tuples(children, children).map(lambda xy: Point(*xy))
        | st.lists(children, max_size=3).map(Stack)
        | st.lists(children, max_size=3).map(Ring)
        | st.sets(hashables, max_size=3).map(Bag)
        | st.sets(hashables, max_size=3).map(Sack)
        | st.builds(Wire, st.integers(0, 3), children)
        | st.frozensets(st.builds(Sealed, children), max_size=2)
        # One level of homogeneous nesting over scalars, with and
        # without a stray non-scalar grandchild.
        | st.lists(st.lists(scalars, max_size=3).map(tuple), max_size=4)
        | st.lists(st.lists(scalars, max_size=3), max_size=4).map(tuple)
        | st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          st.lists(scalars, max_size=2), max_size=4)
        | st.lists(st.lists(scalars | st.just([0]), max_size=3).map(tuple), max_size=3)
    )


plain = st.recursive(scalars, _containers, max_leaves=14)


class Opaque:
    pass


not_plain = st.sampled_from([Opaque(), 1j, Opaque, len, range(2)])


def _with_intruder(children):
    return (
        st.lists(children, min_size=1, max_size=3)
        | st.lists(children, min_size=1, max_size=3).map(tuple)
        | st.lists(children, min_size=1, max_size=3).map(deque)
        | st.dictionaries(scalars, children, min_size=1, max_size=3)
        | st.builds(Wire, st.integers(0, 3), children)
        | st.tuples(st.lists(scalars, max_size=2), children).map(list)
    )


tainted = st.recursive(not_plain, _with_intruder, max_leaves=4)


def shape(value):
    """The exact types of ``value``, all the way down, order-free for
    the unordered containers."""
    kind = type(value)
    if isinstance(value, dict):
        return (kind, sorted(((shape(k), shape(v)) for k, v in value.items()), key=repr))
    if isinstance(value, (set, frozenset)):
        return (kind, sorted(map(shape, value), key=repr))
    if isinstance(value, (list, tuple, deque)):
        return (kind, [shape(v) for v in value])
    if dataclasses.is_dataclass(value):
        return (kind, [shape(getattr(value, f.name)) for f in dataclasses.fields(value)])
    return kind


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------


@given(plain)
def test_snapshot_matches_oracle(value):
    copied, expected = snapshot_value(value), oracle_snapshot(value)
    # Equality alone would let True pass for 1: compare the canonical
    # bytes and the exact types too.
    assert repr(oracle_freeze(copied)) == repr(oracle_freeze(expected))
    assert shape(copied) == shape(expected)
    assert copied == expected or _holds_identity_compared(value)


def _holds_identity_compared(value):
    """``Sealed`` compares by identity, so two copies of it never are
    ``==``; the byte and shape comparisons above cover those values."""
    return "Sealed" in repr(value)


@given(plain)
def test_freeze_matches_oracle_byte_for_byte(value):
    frozen, expected = freeze(value), oracle_freeze(value)
    assert frozen == expected
    assert shape(frozen) == shape(expected)
    assert encode_frozen(frozen) == repr(expected).encode("utf-8")
    hash(frozen)


@given(plain)
def test_digest_is_the_same_before_and_after_a_copy(value):
    assert digest(snapshot_value(value)) == digest(value)


@given(tainted)
def test_non_plain_values_are_rejected_wherever_they_sit(value):
    with pytest.raises(SerializationError):
        oracle_snapshot(value)
    with pytest.raises(SerializationError):
        snapshot_value(value)
    with pytest.raises(SerializationError):
        freeze(value)


def test_keys_that_collide_under_equality_stay_apart():
    assert {True: "x"} == {1: "x"} == {1.0: "x"}
    encodings = {encode_frozen(freeze({key: "x"})) for key in (True, 1, 1.0)}
    assert len(encodings) == 3
    for key in (True, 1, 1.0):
        (copied,) = snapshot_value({key: "x"})
        assert type(copied) is type(key)
        (copied,) = snapshot_value({(key, 0)})
        assert type(copied[0]) is type(key)


def test_plain_data_subclasses_normalize_as_before():
    tally = defaultdict(list, {"a": [1]})
    assert type(snapshot_value(tally)) is dict
    assert type(snapshot_value(OrderedDict(b=1, a=2))) is dict
    assert type(snapshot_value(Point(1, 2))) is tuple
    assert type(snapshot_value(Stack([1]))) is list
    assert type(snapshot_value(Ring([1]))) is deque
    assert type(snapshot_value(Bag([1]))) is set
    assert type(snapshot_value(Sack([1]))) is frozenset
    assert snapshot_value([Color.RED])[0] is Color.RED
    for value in (tally, OrderedDict(b=1, a=2), Point(1, [2]), Stack([(1,)]), Ring([[1]]),
                  Bag([1]), Sack([(1,)]), [Color.RED], {Color.BLUE: 1}):
        assert repr(freeze(value)) == repr(oracle_freeze(value))
        assert shape(snapshot_value(value)) == shape(oracle_snapshot(value))


# ----------------------------------------------------------------------
# Aliasing: mutable containers private, immutable leaves shared
# ----------------------------------------------------------------------

MARK = "<scribbled>"


def scribble(value):
    """Mutate every mutable container reachable from ``value``."""
    if isinstance(value, dict):
        for key, held in list(value.items()):
            scribble(key)
            scribble(held)
        value[MARK] = MARK
    elif isinstance(value, (list, deque)):
        for held in list(value):
            scribble(held)
        value.append(MARK)
    elif isinstance(value, (set, frozenset, tuple)):
        for held in list(value):
            scribble(held)
        if isinstance(value, set):
            value.add(MARK)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            scribble(getattr(value, f.name))
        if not type(value).__dataclass_params__.frozen:
            setattr(value, dataclasses.fields(value)[0].name, MARK)


@given(plain)
def test_mutating_the_copy_leaves_the_original_alone(value):
    before = repr(oracle_freeze(value))
    scribble(snapshot_value(value))
    assert repr(oracle_freeze(value)) == before


@given(plain)
def test_mutating_the_original_leaves_the_copy_alone(value):
    copied = snapshot_value(value)
    before = repr(oracle_freeze(copied))
    scribble(value)
    assert repr(oracle_freeze(copied)) == before


def test_immutable_values_are_shared_not_rebuilt():
    command = (3, 17)
    batch = ((0, 1), (0, 2), (1, 1))
    nested = (batch, frozenset({command}), "x", None)
    for value in (command, batch, nested, frozenset({1, "a"}), frozenset({command}), ()):
        assert snapshot_value(value) is value
    log = {0: batch, 1: ((2, 2),)}
    copied = snapshot_value(log)
    assert copied is not log and copied[0] is batch
    executed = [command, (3, 18)]
    copied = snapshot_value(executed)
    assert copied is not executed and copied[0] is command


def test_a_tuple_holding_anything_mutable_is_rebuilt():
    inner = [1]
    for value in ((inner,), ((inner,), 2), (deque(inner),), ({1: inner},), (Wire(0, inner),)):
        copied = snapshot_value(value)
        assert copied == value and copied is not value
    held = Sealed([1])
    (copied,) = snapshot_value(frozenset({held}))
    assert copied is not held and copied.items == [1] and copied.items is not held.items
    # ... and only the part that had to be: siblings stay shared.
    shared = (1, 2)
    copied = snapshot_value((shared, inner))
    assert copied[0] is shared and copied[1] is not inner


# ----------------------------------------------------------------------
# Golden digests: encoding drift fails here, not in a benchmark
# ----------------------------------------------------------------------

GOLDEN = [
    (None, "dc937b59892604f5"),
    ({}, "df3c7d3fb83457d5"),
    ([1, 2.5, "a", b"b", None, True], "03bf5153694dd340"),
    ((1, (2, 3), [4]), "9c59ab375dee84fc"),
    ({"b": [1, 2], "a": {"z": (1, 2)}, 10: 0, 9: 0, True: 0}, "f46567d9c2b660c6"),
    ({(0, 1): [0.5, 1.5], (0, 10): [0.25, 2.0], (0, 9): []}, "8ec9c529ae36d042"),
    ({3, 1, 2, "1", (1, 2)}, "c883353c8a497c1f"),
    (frozenset({(2, 1), (10, 0), (9, 0)}), "bd345855850c2d03"),
    (deque([(0, 1), (0, 2)]), "56c50a22848933e2"),
    (Wire(seq=7, body={"log": [(0, 1)], "seen": {2}}), "f0c4a9117dcd9e62"),
    ({0: {"chosen": {0: ((0, 1), (1, 1)), 1: (-1, -1)}, "executed": [(0, 1), (1, 1)]}},
     "feaebbf448dffb97"),
]


@pytest.mark.parametrize("value, expected", GOLDEN, ids=[e for _, e in GOLDEN])
def test_golden_digests(value, expected):
    assert digest(value) == expected
    assert digest(snapshot_value(value)) == expected
