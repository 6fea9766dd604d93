"""Series downsampling, TelemetrySampler cadence."""

import pytest

from repro.obs import Series, TelemetrySampler
from repro.obs.stream import RunStream, read_stream
from repro.sim import Simulator


class TestSeries:
    def test_append_and_points(self):
        s = Series("x")
        s.append(0.0, 1.0)
        s.append(1.0, 2.0)
        assert s.points() == [(0.0, 1.0), (1.0, 2.0)]
        assert s.last() == (1.0, 2.0)
        assert len(s) == 2

    def test_downsampling_halves_resolution(self):
        s = Series("x", max_points=8, agg="last")
        for i in range(8):
            s.append(float(i), float(i))
        # Hitting max_points merged adjacent pairs and doubled stride.
        assert s.stride == 2
        assert len(s._points) == 4
        # "last" keeps each pair's second value at its timestamp.
        assert s._points == [(1.0, 1.0), (3.0, 3.0), (5.0, 5.0), (7.0, 7.0)]

    def test_bounded_memory_over_long_run(self):
        s = Series("x", max_points=16)
        for i in range(10_000):
            s.append(float(i), float(i))
        assert len(s) <= 16
        assert s.stride >= 10_000 // 16
        # The retained points still cover the full time range in order.
        points = s.points()
        assert points == sorted(points)
        assert points[-1][0] == pytest.approx(9999.0, abs=float(s.stride))

    def test_mean_aggregation(self):
        s = Series("x", max_points=4, agg="mean")
        for i, v in enumerate([0.0, 2.0, 4.0, 6.0]):
            s.append(float(i), v)
        assert s.stride == 2
        assert s._points == [(1.0, 1.0), (3.0, 5.0)]

    def test_max_min_sum_aggregations(self):
        expected = {
            "max": [(1.0, 1.0), (3.0, 3.0)],
            "min": [(1.0, 0.0), (3.0, 2.0)],
            "sum": [(1.0, 1.0), (3.0, 5.0)],
        }
        for agg, merged in expected.items():
            s = Series("x", max_points=4, agg=agg)
            for i, v in enumerate([0.0, 1.0, 2.0, 3.0]):
                s.append(float(i), v)
            assert s.points() == merged, agg

    def test_partial_bucket_visible_in_points(self):
        s = Series("x", max_points=4)
        for i in range(4):
            s.append(float(i), float(i))
        assert s.stride == 2
        s.append(4.0, 4.0)  # strides now buffer one pending value
        assert s.points()[-1] == (4.0, 4.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            Series("x", max_points=2)
        with pytest.raises(ValueError):
            Series("x", agg="median")


class TestTelemetrySampler:
    def test_samples_on_cadence(self):
        sim = Simulator(seed=1)
        ticks = {"n": 0}

        def work():
            ticks["n"] += 1
            sim.schedule(0.1, work, tag="app")

        sim.schedule(0.1, work, tag="app")
        sampler = TelemetrySampler(sim, cadence=1.0)
        sampler.watch("work.n", lambda: ticks["n"])
        sampler.start(until=5.0)
        sim.run(until=5.0)
        assert sampler.samples_taken == 5
        points = sampler.series["work.n"].points()
        assert [t for t, _ in points] == [1.0, 2.0, 3.0, 4.0, 5.0]
        # Monotone workload -> monotone cumulative series.
        values = [v for _, v in points]
        assert values == sorted(values)

    def test_until_bounds_rescheduling(self):
        sim = Simulator(seed=1)
        sampler = TelemetrySampler(sim, cadence=1.0)
        sampler.watch("now", lambda: sim.now)
        sampler.start(until=3.0)
        sim.run(until=100.0)  # queue drains: no sampler self-perpetuation
        assert sampler.samples_taken == 3

    def test_stop_halts_sampling(self):
        sim = Simulator(seed=1)
        sampler = TelemetrySampler(sim, cadence=1.0)
        sampler.watch("now", lambda: sim.now)
        sampler.start(until=10.0)
        sim.run(until=2.0)
        sampler.stop()
        sim.run(until=10.0)
        assert sampler.samples_taken == 2

    def test_duplicate_series_rejected(self):
        sampler = TelemetrySampler(Simulator(seed=1), cadence=1.0)
        sampler.watch("x", lambda: 0)
        with pytest.raises(ValueError):
            sampler.watch("x", lambda: 1)

    def test_feeds_stream(self, tmp_path):
        sim = Simulator(seed=1)
        path = str(tmp_path / "run.jsonl")
        stream = RunStream(path, kind="demo", clock=lambda: sim.now)
        sampler = TelemetrySampler(sim, cadence=1.0, stream=stream)
        sampler.watch("now", lambda: sim.now)
        sampler.start(until=3.0)
        sim.run(until=3.0)
        stream.close()
        samples = [r for r in read_stream(path) if r["type"] == "sample"]
        assert len(samples) == 3
        assert samples[0]["v"] == {"now": 1.0}

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError):
            TelemetrySampler(Simulator(seed=1), cadence=0.0)

