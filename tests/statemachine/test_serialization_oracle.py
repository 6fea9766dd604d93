"""The table-dispatched walkers against the recursive reference.

``snapshot_value`` and ``freeze`` share immutable leaves and take
constructor-level fast paths.  The walkers they replaced — one
``isinstance`` chain per element, every container rebuilt — are kept
here, and only here, as the oracle: outputs must be equal, of identical
types, and encode to identical bytes.

A long int run no longer freezes to the oracle's bytes (it is one
hashed leaf), so for values that hold one the oracle judges equality
classes instead: two values digest alike iff the oracle's digests do.
"""

import dataclasses
import hashlib
import random
import struct
import tracemalloc
from collections import OrderedDict, defaultdict, deque, namedtuple
from dataclasses import dataclass
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.statemachine import Message, SerializationError, digest, freeze, snapshot_value
from repro.statemachine import serialization
from repro.statemachine.serialization import _RUN_MIN, digest_of_frozen, encode_frozen

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
        return deque((oracle_snapshot(v) for v in value), value.maxlen)
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


def oracle_digest(value):
    return digest_of_frozen(oracle_freeze(value))


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
        | st.lists(children, max_size=4).map(lambda v: deque(v, maxlen=4))
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


# No container drawn from ``plain`` holds more than four elements, far
# below ``_RUN_MIN``: these values freeze to the oracle's bytes exactly.
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
    if isinstance(value, deque):
        return (kind, value.maxlen, [shape(v) for v in value])
    if isinstance(value, (list, tuple)):
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


# ----------------------------------------------------------------------
# Long int runs: one hashed leaf, the oracle's equality classes
# ----------------------------------------------------------------------

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def _base_run(rng, kind, count, width):
    """``count`` ints or int rows from a small pool (so that changing
    one can land on a value already there) plus the int64 edges."""
    def cell():
        return rng.choice((rng.randint(-3, 3), rng.randint(-3, 3), INT64_MIN, INT64_MAX,
                           rng.randint(-10**12, 10**12)))
    if kind == "ints":
        return [cell() for _ in range(count)]
    row = tuple if kind == "tuples" else list
    return [row(cell() for _ in range(width)) for _ in range(count)]


def _with(run, at, element):
    return run[:at] + [element] + run[at + 1:]


def _swap_cell(replacement):
    """Put ``replacement`` where an equal cell sits if there is one —
    the swap a check looser than exact ``int`` would miss — else anywhere."""
    def perturb(rng, run):
        cells = [(at, col, cell) for at, v in enumerate(run)
                 for col, cell in enumerate([v] if isinstance(v, int) else v)]
        if not cells:
            return run
        at, col, _ = rng.choice([c for c in cells if c[2] == replacement] or cells)
        if isinstance(run[at], int):
            return _with(run, at, replacement)
        row = list(run[at])
        row[col] = replacement
        return _with(run, at, type(run[at])(row))
    return perturb


def _bump(rng, run):
    if not run:
        return run
    at = rng.randrange(len(run))
    if isinstance(run[at], int):
        return _with(run, at, run[at] // 2 + 1)
    return _with(run, at, type(run[at])(c // 2 + 1 for c in run[at]))


def _widen(rng, run):
    if not run:
        return run
    at = rng.randrange(len(run))
    return _with(run, at, (run[at],) if isinstance(run[at], int) else type(run[at])([*run[at], 0]))


def _shuffled(rng, run):
    return rng.sample(run, len(run))


def _rows_as(row):
    return lambda rng, run: [v if isinstance(v, int) else row(v) for v in run]


def _one_row_as(row):
    def perturb(rng, run):
        at = rng.randrange(len(run)) if run else 0
        return [row(v) if i == at and not isinstance(v, int) else v for i, v in enumerate(run)]
    return perturb


def _as_point(values):
    return Point(*values) if len(values) == 2 else tuple(values)


PERTURBATIONS = {
    "same": lambda rng, run: list(run),
    "shuffled": _shuffled,
    "one changed": _bump,
    "one widened": _widen,
    "one dropped": lambda rng, run: run[:-1],
    "one more": lambda rng, run: run + run[:1],
    "a True": _swap_cell(True),
    "a 1.0": _swap_cell(1.0),
    "an IntEnum": _swap_cell(Color.RED),
    "beyond int64": _swap_cell(2**70),
    "a 1": _swap_cell(1),
    "tuple rows": _rows_as(tuple),
    "list rows": _rows_as(list),
    "namedtuple rows": _rows_as(_as_point),
    "list-subclass rows": _rows_as(lambda v: Stack(v) if isinstance(v, list) else v),
    "one tuple row": _one_row_as(tuple),
    "one list row": _one_row_as(list),
    "one namedtuple row": _one_row_as(_as_point),
}


def _keys(run):
    """``run`` as hashable, distinct keys in first-seen order."""
    return list(dict.fromkeys(tuple(v) if isinstance(v, list) else v for v in run))


def _held(key):
    return [key] if isinstance(key, tuple) else key


SITES = {
    "list": list,
    "list subclass": Stack,
    "tuple": tuple,
    "deque": deque,
    "bounded deque": lambda run: deque(run, maxlen=256),
    "deque subclass": Ring,
    "set": lambda run: set(_keys(run)),
    "frozenset": lambda run: frozenset(_keys(run)),
    "set subclass": lambda run: Bag(_keys(run)),
    "dict keys": lambda run: {k: _held(k) for k in _keys(run)},
    "defaultdict keys": lambda run: defaultdict(list, {k: _held(k) for k in _keys(run)}),
    "dict keys, held by position": lambda run: {k: i for i, k in enumerate(_keys(run))},
    "dict values": lambda run: {"log": list(run), "n": len(run)},
    "message field": lambda run: Wire(seq=1, body=list(run)),
    "namedtuple field": lambda run: Point(list(run), 0),
    "batches": lambda run: {i: tuple(run[i:i + 40]) for i in range(0, len(run), 40)},
}

run_pairs = st.tuples(
    st.randoms(use_true_random=False),
    st.sampled_from(["ints", "tuples", "lists"]),
    st.sampled_from([0, 1, _RUN_MIN - 1, _RUN_MIN, _RUN_MIN + 1, 200]) | st.integers(0, 200),
    st.integers(1, 3),
    st.sampled_from(sorted(PERTURBATIONS)),
    st.sampled_from(sorted(SITES)),
    st.sampled_from(sorted(SITES)) | st.none(),
)


def _pair(rng, kind, count, width, perturbation, site, other_site):
    run = _base_run(rng, kind, count, width)
    return (SITES[site](run),
            SITES[other_site or site](PERTURBATIONS[perturbation](rng, run)))


@settings(max_examples=400, deadline=None)
@given(run_pairs)
def test_runs_digest_alike_iff_the_oracle_says_so(drawn):
    a, b = _pair(*drawn)
    assert (digest(a) == digest(b)) == (oracle_digest(a) == oracle_digest(b))
    for value in (a, b):
        # ... and a copy, which hands subclass rows back as plain ones,
        # is the same state.
        assert digest(snapshot_value(value)) == digest(value)


def test_every_perturbation_lands_on_both_sides_of_the_threshold():
    """The property above is vacuous if its pairs never differ, or never
    agree: walk every (site, perturbation) once per side, deterministically."""
    outcomes = {True: 0, False: 0}
    for count in (_RUN_MIN - 1, _RUN_MIN + 8):
        for kind in ("ints", "tuples", "lists"):
            for site in sorted(SITES):
                for perturbation in sorted(PERTURBATIONS):
                    a, b = _pair(random.Random(count), kind, count, 2, perturbation, site, None)
                    same = oracle_digest(a) == oracle_digest(b)
                    assert (digest(a) == digest(b)) == same, (count, kind, site, perturbation)
                    outcomes[same] += 1
    assert min(outcomes.values()) > 200, outcomes


def test_the_threshold_is_where_the_form_changes():
    short, long = list(range(_RUN_MIN - 1)), list(range(_RUN_MIN))
    assert freeze(short) == oracle_freeze(short)
    assert freeze(long) == ("__list__", "q", _RUN_MIN, hashlib.sha256(
        struct.pack(f"<{_RUN_MIN}q", *long)).hexdigest())
    assert _RUN_MIN == 32


def test_the_leaf_is_little_endian_row_major_full_sha256():
    log = [(i, -i) for i in range(40)]
    packed = struct.pack("<80q", *(cell for row in log for cell in row))
    expected = hashlib.sha256(packed).hexdigest()
    assert len(expected) == 64
    assert freeze(log) == ("__list__", "t2", 40, expected)
    assert freeze(tuple(log)) == ("__tuple__", "t2", 40, expected)
    assert freeze(deque(log)) == ("__deque__", "t2", 40, expected)
    assert freeze([list(row) for row in log]) == ("__list__", "l2", 40, expected)
    assert freeze([Point(*row) for row in log]) == ("__list__", "t2", 40, expected)
    # Unordered containers are packed in natural sorted order ...
    ordered = struct.pack("<80q", *(cell for row in sorted(log) for cell in row))
    assert freeze(set(log)) == freeze(frozenset(reversed(log))) == (
        "__set__", "t2", 40, hashlib.sha256(ordered).hexdigest())
    # ... and a dict hashes its keys so, then freezes what they hold,
    # in that order, as one tuple.
    table = {key: [sum(key)] for key in reversed(log)}
    assert freeze(table) == (
        "__dict__", "t2", 40, hashlib.sha256(ordered).hexdigest(),
        freeze(tuple([sum(key)] for key in sorted(log))))
    assert freeze({i: i for i in range(40)})[4][:3] == ("__tuple__", "q", 40)


def test_a_value_that_looks_like_a_leaf_is_not_one():
    run = list(range(40))
    leaf = freeze(run)
    lookalike = list(leaf[1:])
    assert lookalike == ["q", 40, leaf[3]]
    assert freeze(lookalike) == ("__list__", ("q", 40, leaf[3])) != leaf
    assert digest(lookalike) != digest(run)
    assert digest(tuple(leaf)) != digest(run)
    # Same cells, different shape or count: different leaves.
    flat = [cell for i in range(40) for cell in (i, -i)]
    pairs = [(i, -i) for i in range(40)]
    assert freeze(flat)[3] == freeze(pairs)[3] and freeze(flat) != freeze(pairs)
    assert len({digest(flat), digest(pairs), digest([list(p) for p in pairs]),
                digest([tuple(flat[i:i + 4]) for i in range(0, 80, 4)])}) == 4


@pytest.mark.parametrize("spoiler", [
    True, 1.0, Color.RED, 2**63, -2**63 - 1, "1", None, (1,), (1, 2, 3), [1, 2], (1, True),
], ids=repr)
def test_anything_but_a_homogeneous_int64_run_stays_spelled_out(spoiler):
    for run in ([1] * 40, [(1, 2)] * 40):
        value = run[:20] + [spoiler] + run[20:]
        assert freeze(value) == oracle_freeze(value)
        assert freeze({"log": value}) == oracle_freeze({"log": value})
    assert freeze([()] * 40) == oracle_freeze([()] * 40)


@pytest.mark.parametrize("intruder", [Opaque(), 1j, range(2)], ids=repr)
def test_an_intruder_in_a_long_container_is_still_rejected(intruder):
    ints, rows = list(range(40)), [(i, i) for i in range(40)]
    for value in (ints + [intruder], rows + [intruder], rows + [(1, intruder)],
                  tuple(ints + [intruder]), deque(rows + [(intruder, 1)]),
                  {**dict.fromkeys(ints), 41: intruder}, {**dict.fromkeys(rows), (1, 1): [intruder]},
                  Wire(0, ints + [intruder])):
        with pytest.raises(SerializationError):
            freeze(value)
        with pytest.raises(SerializationError):
            snapshot_value(value)


# ----------------------------------------------------------------------
# Cost: the forest is gone, not hidden
# ----------------------------------------------------------------------


def test_a_long_log_freezes_small_and_digests_in_bounded_memory():
    log = [(i % 5, i) for i in range(100_000)]
    assert len(repr(freeze(log))) < 200
    tracemalloc.start()
    try:
        digest(log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_freezing_a_replica_costs_a_call_per_container_not_per_command(monkeypatch):
    calls = {"freeze": 0, "_freeze": 0, "_frozen_elements": 0}

    def counted(name):
        original = getattr(serialization, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(serialization, name, wrapper)

    counted("freeze")
    counted("_freeze")
    counted("_frozen_elements")
    state = {
        "executed": [(i % 5, i) for i in range(80_000)],
        "chosen": {i: tuple((i % 5, 128 * i + j) for j in range(128)) for i in range(625)},
    }
    frozen = serialization.freeze(state)
    # The state; inside the call its two fields, the tuple of held
    # batches, each batch.
    assert calls["freeze"] == 1
    assert calls["_freeze"] == 2 + 1 + 625
    assert calls["_frozen_elements"] <= 4
    assert len(repr(frozen)) < 100 * 625
