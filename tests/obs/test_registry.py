"""Metrics registry: instruments, labels, the enabled gate."""

import pytest

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


def test_gauge_set_inc_dec():
    registry = MetricsRegistry()
    gauge = registry.gauge("pool.size")
    gauge.set(3.0)
    gauge.inc()
    gauge.dec(2.0)
    assert gauge.value == 2.0


def test_histogram_summary_and_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("lat")
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    summary = hist.summary()
    assert summary["count"] == 3
    assert summary["min"] == 0.05 and summary["max"] == 5.0
    assert summary["mean"] == summary["sum"] / 3
    # The median lands in 0.5's log bucket (16 per decade): its
    # geometric midpoint, within half a bucket of the observation.
    assert abs(summary["p50"] - 0.5) / 0.5 < 0.08


def test_disabled_registry_gates_histograms_not_counters():
    registry = MetricsRegistry(enabled=False)
    registry.counter("c").inc()
    registry.histogram("h").observe(1.0)
    assert registry.counter("c").value == 1   # counters always record
    assert registry.histogram("h").count == 0  # timed instruments gated


def test_disabled_registry_returns_null_span():
    registry = MetricsRegistry(enabled=False)
    with registry.span("op") as span:
        pass
    assert registry.span_stats("op") is None
    assert span is not None  # the shared no-op object


def test_snapshot_and_reset():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(2.5)
    registry.histogram("h").observe(1.0)
    with registry.span("s"):
        pass
    snap = registry.snapshot()
    assert snap["counters"] == {"c": 1}
    assert snap["gauges"] == {"g": 2.5}
    assert "h" in snap["histograms"]
    assert "s" in snap["spans"]
    handle = registry.counter("c")
    registry.reset()
    assert handle.value == 0
    assert registry.snapshot()["spans"] == {}


def test_reset_zeroes_in_place_so_held_handles_keep_recording():
    registry = MetricsRegistry()
    hist = registry.histogram("h", node=1)
    span = registry.span("s", clock=lambda: 5.0)
    hist.observe(0.5)
    with span:
        pass
    registry.reset()
    assert registry.histogram("h", node=1) is hist
    assert registry.span_stats("s") is span.stats
    assert (hist.count, hist.total, hist.quantile(0.5)) == (0, 0.0, None)
    assert hist.summary()["min"] is None
    assert registry.snapshot()["histograms"] == registry.snapshot()["spans"] == {}
    hist.observe(2.0)
    with span:
        pass
    snap = registry.snapshot()
    assert snap["histograms"]["h{node=1}"]["count"] == 1
    assert snap["histograms"]["h{node=1}"]["p50"] == 2.0
    assert snap["spans"]["s"]["count"] == 1
    assert snap["spans"]["s"]["sim_window"] == [5.0, 5.0]
    # A disabled registry still gates the handle after a reset.
    registry.enabled = False
    hist.observe(3.0)
    assert hist.count == 1


# ----------------------------------------------------------------------
# Streaming quantiles (log-bucket sketch)
# ----------------------------------------------------------------------

def test_quantiles_on_uniform_data_within_bucket_error():
    registry = MetricsRegistry()
    hist = registry.histogram("lat")
    for i in range(1, 10_001):
        hist.observe(i / 1000.0)  # uniform on (0, 10]
    # 16 log-buckets per decade -> ~15% bucket width, so readouts land
    # within ±10% of the exact quantile.
    for q, exact in ((0.5, 5.0), (0.95, 9.5), (0.99, 9.9)):
        estimate = hist.quantile(q)
        assert abs(estimate - exact) / exact < 0.10, (q, estimate)


def test_quantile_empty_histogram_is_none():
    hist = MetricsRegistry().histogram("lat")
    assert hist.quantile(0.5) is None
    assert all(v is None for v in hist.quantiles().values())


def test_quantile_validates_q():
    hist = MetricsRegistry().histogram("lat")
    hist.observe(1.0)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            hist.quantile(bad)


def test_zero_and_negative_observations_map_to_min():
    hist = MetricsRegistry().histogram("lat")
    for value in (-1.0, 0.0, 0.0, 5.0):
        hist.observe(value)
    # rank 0.5 * 4 = 2 falls inside the underflow bucket -> min.
    assert hist.quantile(0.5) == -1.0


def test_quantile_readout_clamped_to_observed_range():
    hist = MetricsRegistry().histogram("lat")
    hist.observe(7.0)
    # A single observation: every quantile is that observation, not the
    # geometric bucket midpoint.
    assert hist.quantile(0.5) == 7.0
    assert hist.quantile(0.99) == 7.0


def test_summary_includes_quantiles():
    hist = MetricsRegistry().histogram("lat")
    for value in (1.0, 2.0, 3.0, 10.0):
        hist.observe(value)
    summary = hist.summary()
    for key in ("p50", "p95", "p99"):
        assert key in summary
        assert summary["min"] <= summary[key] <= summary["max"]
    assert summary["p50"] <= summary["p95"] <= summary["p99"]


def test_disabled_registry_gates_quantiles():
    hist = MetricsRegistry(enabled=False).histogram("lat")
    hist.observe(1.0)
    assert hist.quantile(0.5) is None
