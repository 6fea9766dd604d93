"""The Paxos safety predicates against their old bodies.

The current predicates compare a held value with the one read by
identity first, and skip a replica's ``executed`` log when it equals a
prefix of a longer log already found duplicate-free.  Neither may
change a verdict: on every world they must agree with
``legacy_paxos_properties``, which compares and hashes everything.
"""

from hypothesis import example, given, settings, strategies as st

from repro.apps.paxos import ACCEPTED_COHERENT, AGREEMENT, AT_MOST_ONCE, NOOP
from repro.mc import WorldState

from . import legacy_paxos_properties as legacy

_COMMAND = st.tuples(st.integers(0, 2), st.integers(0, 4))
_VALUE = st.one_of(_COMMAND, st.lists(_COMMAND, min_size=1, max_size=3).map(tuple),
                   st.just(NOOP))
# How a replica holds a value decided elsewhere: the shared object
# (twice as often as the rest), an equal copy, a list, or its own.
_FORMS = st.sampled_from(("shared", "shared", "copy", "list", "other"))


def _distinct(value):
    """An equal tuple that is not the same object."""
    return tuple(list(value))


def _world(states):
    return WorldState(node_states=dict(enumerate(states)), copy_states=False)


@st.composite
def _log(draw, base):
    """One replica's ``executed``, drawn against the shared ``base``."""
    kind = draw(st.sampled_from(("prefix", "copied", "diverged", "own", "tuple")))
    cut = draw(st.integers(0, len(base)))
    if kind == "prefix":
        return base[:cut]
    if kind == "copied":
        return [_distinct(command) for command in base[:cut]]
    if kind == "diverged":
        # Often by repeating a command of the shared log.
        again = st.sampled_from(base) if base else _COMMAND
        return base[:cut] + draw(st.lists(again | _COMMAND, min_size=1, max_size=3))
    if kind == "own":
        return draw(st.lists(_COMMAND, max_size=12))
    return tuple(base[:cut])


@st.composite
def _held(draw, value):
    form = draw(_FORMS)
    if form == "copy":
        return _distinct(value)
    if form == "list":
        return list(value)
    if form == "other":
        return draw(_VALUE)
    return value


@st.composite
def _worlds(draw):
    base = draw(st.lists(_COMMAND, max_size=12, unique=draw(st.booleans())))
    truth = draw(st.dictionaries(st.integers(0, 5), _VALUE, max_size=6))
    states = []
    for _ in range(draw(st.integers(1, 4))):
        state = {}
        if draw(st.booleans()):
            state["executed"] = draw(_log(base))
        if draw(st.booleans()):
            decided = draw(st.lists(st.sampled_from(sorted(truth)), unique=True)) if truth else []
            state["chosen"] = {i: draw(_held(truth[i])) for i in decided}
        if draw(st.booleans()):
            instances = draw(st.lists(st.integers(0, 7), unique=True, max_size=4))
            state["accepted"] = {
                i: [draw(st.integers(0, 2)),
                    draw(_held(truth[i])) if i in truth else draw(_VALUE)]
                for i in instances
            }
        states.append(state)
    return _world(states)


A, B, C, D = (0, 0), (0, 1), (1, 0), (1, 1)


@given(world=_worlds())
@example(world=_world([{"executed": [A, B, C, D]}, {"executed": [A, B, A]}]))
@example(world=_world([{"executed": [A, B, C]}, {"executed": [A, B, A]}]))
@example(world=_world([{"executed": [A, B, C]}, {"executed": [A, B, D]}]))
@example(world=_world([{"executed": [A, B, C]}, {"executed": [_distinct(A), _distinct(B)]}]))
@example(world=_world([{"executed": [A, A]}, {"executed": [A]}, {}]))
@settings(max_examples=400, deadline=None)
def test_each_probe_gives_the_old_verdict(world):
    assert AGREEMENT.holds(world) == legacy._one_value_per_instance(world)
    assert AT_MOST_ONCE.holds(world) == legacy._executed_once(world)
    assert ACCEPTED_COHERENT.holds(world) == legacy._accepted_coherent(world)


def test_a_duplicate_in_a_shorter_log_that_is_no_prefix_is_found():
    assert not AT_MOST_ONCE.holds(_world([{"executed": [A, B, C, D]},
                                          {"executed": [A, B, A]}]))
    assert not AT_MOST_ONCE.holds(_world([{"executed": [A, B, C]},
                                          {"executed": [A, B, B]}]))
    assert AT_MOST_ONCE.holds(_world([{"executed": [A, B, C]},
                                      {"executed": [A, B, D]}, {"executed": [A]}]))


def test_an_equal_but_distinct_value_still_agrees_and_a_different_one_does_not():
    batch = (A, B)
    agreeing = _world([{"chosen": {0: batch}, "accepted": {0: [1, batch]}},
                       {"chosen": {0: _distinct(batch)}, "accepted": {0: [1, list(batch)]}}])
    assert AGREEMENT.holds(agreeing)
    assert ACCEPTED_COHERENT.holds(agreeing)
    split = _world([{"chosen": {0: batch}}, {"chosen": {0: [A, C]}}])
    assert not AGREEMENT.holds(split)
    conflicting = _world([{"chosen": {0: batch}}, {"accepted": {0: [1, (A, C)]}}])
    assert not ACCEPTED_COHERENT.holds(conflicting)
