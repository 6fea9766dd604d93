"""Spans: host-clock timing of runtime operations."""

from repro.obs import MetricsRegistry


def test_span_records_host_duration():
    registry = MetricsRegistry()
    with registry.span("op"):
        sum(range(1000))
    stats = registry.span_stats("op")
    assert stats.count == 1
    assert stats.total_s >= 0.0
    assert stats.min_s <= stats.max_s


def test_span_accumulates_across_entries():
    registry = MetricsRegistry()
    for _ in range(3):
        with registry.span("op"):
            pass
    stats = registry.span_stats("op")
    assert stats.count == 3
    assert stats.mean_s == stats.total_s / 3


def test_span_labels_partition_stats():
    registry = MetricsRegistry()
    with registry.span("op", node=0):
        pass
    with registry.span("op", node=1):
        pass
    assert registry.span_stats("op", node=0).count == 1
    assert registry.span_stats("op", node=1).count == 1
    assert registry.span_stats("op") is None


def test_span_summary_shape():
    registry = MetricsRegistry()
    with registry.span("op"):
        pass
    summary = registry.span_stats("op").summary()
    assert set(summary) == {"count", "total_s", "mean_s", "min_s", "max_s"}


def test_span_records_on_exception():
    registry = MetricsRegistry()
    try:
        with registry.span("op"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert registry.span_stats("op").count == 1
