"""Sharing inside one freeze call.

A tuple of at least ``_RUN_MIN`` elements met again by identity within
one top-level ``freeze`` call reuses the form built for it the first
time.  A value must therefore digest exactly as a copy of it in which
every tuple is a distinct object does, and nothing may be shared across
calls: not after a call returns, not after it raises, and not through
an ``id`` that a dead temporary handed on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.statemachine import SerializationError, digest, freeze
from repro.statemachine.serialization import _RUN_MIN

_INTS = st.integers(-(2**63), 2**63 - 1)
_LONG = {"min_size": _RUN_MIN, "max_size": _RUN_MIN + 6}

# Tuples worth sharing: int runs and runs of int pairs (hashed leaves),
# long mixed tuples (spelled out), and short ones (never shared).
_TUPLES = st.one_of(
    st.lists(_INTS, **_LONG).map(tuple),
    st.lists(st.tuples(_INTS, _INTS), **_LONG).map(tuple),
    st.lists(st.one_of(st.integers(), st.text(max_size=2)), **_LONG).map(tuple),
    st.lists(st.integers(), max_size=4).map(tuple),
)


@st.composite
def _shared_values(draw):
    pool = draw(st.lists(_TUPLES, min_size=1, max_size=4))
    shared = st.sampled_from(pool)
    # Held values of an int-keyed dict of at least _RUN_MIN entries are
    # frozen as one temporary tuple, itself long.
    long_dicts = st.lists(shared, **_LONG).map(lambda held: dict(enumerate(held)))
    long_tuples = st.lists(shared, **_LONG).map(tuple)
    return draw(st.recursive(
        st.one_of(shared, st.integers(), long_dicts, long_tuples),
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=2), kids, max_size=4),
        ),
        max_leaves=12,
    ))


def _unshared(value):
    """``value`` with every tuple replaced by an equal, distinct one."""
    if isinstance(value, tuple):
        return tuple(list(map(_unshared, value)))
    if isinstance(value, list):
        return [_unshared(v) for v in value]
    if isinstance(value, dict):
        return {k: _unshared(v) for k, v in value.items()}
    return value


@given(value=_shared_values())
@settings(max_examples=150, deadline=None)
def test_a_shared_tuple_digests_as_a_distinct_copy_would(value):
    copy = _unshared(value)
    assert freeze(value) == freeze(copy)
    assert digest(value) == digest(copy)


def _rows():
    return tuple([i] for i in range(_RUN_MIN))


def test_a_call_that_raises_leaves_nothing_shared_behind():
    rows = _rows()
    with pytest.raises(SerializationError):
        freeze([rows, rows, object()])
    rows[0][0] = -1
    assert digest(rows) == digest(_unshared(rows))
    assert digest(rows) != digest(_rows())


def test_nothing_is_shared_from_one_call_to_the_next():
    rows = _rows()
    before = digest([rows, rows])
    rows[0][0] = -1
    assert digest([rows, rows]) == digest(_unshared([rows, rows])) != before


def _long_dicts(count):
    # Same size, distinct held values: each one's temporary tuple of
    # held values fits where the previous one's died.
    return [{i: n * 1000 + i for i in range(_RUN_MIN)} for n in range(count)]


def test_temporaries_that_reuse_an_id_in_one_call_freeze_apart():
    dicts = _long_dicts(20)
    _, frozen = freeze(dicts)
    assert list(frozen) == [freeze(held) for held in dicts]
    assert len(set(frozen)) == len(dicts)


def test_temporaries_that_reuse_an_id_across_calls_digest_apart():
    digests = [digest(held) for held in _long_dicts(20)]
    assert len(set(digests)) == len(digests)
