"""Metrics registry: counters and labels."""

from repro.obs import MetricsRegistry, render_key


def test_counter_identity_and_increment():
    registry = MetricsRegistry()
    counter = registry.counter("x.hits")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert registry.counter("x.hits") is counter


def test_labels_distinguish_instruments():
    registry = MetricsRegistry()
    a = registry.counter("net.sent", node=0)
    b = registry.counter("net.sent", node=1)
    assert a is not b
    a.inc()
    assert registry.counters() == {
        "net.sent{node=0}": 1, "net.sent{node=1}": 0,
    }


def test_render_key():
    assert render_key("x", ()) == "x"
    assert render_key("x", (("a", 1), ("b", 2))) == "x{a=1,b=2}"
