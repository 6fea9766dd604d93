"""Baseline resolver behaviours."""

import pytest

from repro.choice import ChoiceError, ChoicePoint, FirstResolver, GreedyResolver, RandomResolver

from .doubles import FixedResolver, ScriptedResolver


def point(candidates, label="l"):
    return ChoicePoint(label=label, candidates=list(candidates), node_id=0)


def test_first_resolver():
    assert FirstResolver().resolve(point([3, 1, 2])) == 3


def test_fixed_resolver_index():
    assert FixedResolver(1).resolve(point(["a", "b", "c"])) == "b"


def test_fixed_resolver_clamps():
    assert FixedResolver(10).resolve(point(["a", "b"])) == "b"


def test_random_resolver_deterministic_per_seed():
    picks_a = [RandomResolver(5).resolve(point(range(10))) for _ in range(5)]
    picks_b = [RandomResolver(5).resolve(point(range(10))) for _ in range(5)]
    assert picks_a == picks_b


def test_random_resolver_covers_candidates():
    resolver = RandomResolver(1)
    picks = {resolver.resolve(point(range(3))) for _ in range(50)}
    assert picks == {0, 1, 2}


def test_scripted_resolver_replays():
    resolver = ScriptedResolver({"l": ["b", "a"]})
    assert resolver.resolve(point(["a", "b"])) == "b"
    assert resolver.resolve(point(["a", "b"])) == "a"
    # Script exhausted: falls back to first.
    assert resolver.resolve(point(["a", "b"])) == "a"


def test_scripted_resolver_invalid_value():
    resolver = ScriptedResolver({"l": ["zzz"]})
    with pytest.raises(ChoiceError):
        resolver.resolve(point(["a", "b"]))


def test_greedy_resolver_picks_max():
    resolver = GreedyResolver(lambda c, p, n: -abs(c - 7))
    assert resolver.resolve(point([1, 5, 8, 20])) == 8


def test_greedy_resolver_tie_goes_first():
    resolver = GreedyResolver(lambda c, p, n: 0.0)
    assert resolver.resolve(point(["x", "y"])) == "x"
