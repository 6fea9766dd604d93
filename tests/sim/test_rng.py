"""Named random stream determinism and isolation."""

from hypothesis import given, strategies as st

from repro.sim import RngRegistry, derive_seed


def test_same_name_same_object():
    registry = RngRegistry(1)
    assert registry.stream("a") is registry.stream("a")


def test_different_names_different_sequences():
    registry = RngRegistry(1)
    a = [registry.stream("a").random() for _ in range(5)]
    b = [registry.stream("b").random() for _ in range(5)]
    assert a != b


def test_same_seed_reproduces():
    first = [RngRegistry(42).stream("x").random() for _ in range(3)]
    second = [RngRegistry(42).stream("x").random() for _ in range(3)]
    assert first == second


def test_different_seeds_differ():
    assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()


def test_new_stream_does_not_perturb_existing():
    registry_a = RngRegistry(9)
    stream = registry_a.stream("main")
    first = stream.random()
    registry_b = RngRegistry(9)
    registry_b.stream("other")  # extra consumer
    stream_b = registry_b.stream("main")
    assert stream_b.random() == first


@given(st.integers(), st.text(max_size=50))
def test_derive_seed_stable_and_64bit(seed, name):
    value = derive_seed(seed, name)
    assert value == derive_seed(seed, name)
    assert 0 <= value < 2 ** 64


@given(st.integers(), st.text(max_size=20), st.text(max_size=20))
def test_derive_seed_name_sensitivity(seed, a, b):
    if a != b:
        assert derive_seed(seed, a) != derive_seed(seed, b)
