"""Simulator dispatch, cancellation, and run bounds."""

import pytest

from repro.sim import ClockError, SimulationError, Simulator


def test_schedule_and_run_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.run(until=1.5)
    assert fired == [1.0]
    assert sim.now == 1.5


def test_run_advances_clock_to_until_even_when_idle():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_drains_queue_without_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(3.0, lambda: fired.append(3))
    dispatched = sim.run()
    assert dispatched == 2
    assert sim.now == 3.0


def test_events_scheduled_during_dispatch_run():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_every_runs_each_period_through_until_and_stops():
    sim = Simulator()
    fired = []
    sim.every(0.5, lambda: fired.append(sim.now), until=2.0, tag="probe")
    sim.run()
    assert fired == [0.5, 1.0, 1.5, 2.0]
    assert len(sim.queue) == 0


def test_max_events_bounds_dispatch():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.run(max_events=4) == 4
    assert len(sim.queue) == 6


def test_max_events_zero_n_and_none():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    assert sim.run(max_events=0) == 0
    assert fired == [] and sim.now == 0.0 and len(sim.queue) == 5
    assert sim.run(max_events=2) == 2
    assert fired == [0, 1] and sim.now == 2.0
    assert sim.run(until=3.5, max_events=None) == 1
    assert fired == [0, 1, 2] and sim.now == 3.5
    assert sim.run() == 2
    assert sim.now == 5.0 and sim.events_dispatched == 5


def test_event_behind_the_clock_raises_clock_error_undispatched():
    # schedule/schedule_at refuse the past; an entry pushed behind the
    # clock some other way must still stop the run loop, not rewind time.
    sim = Simulator()
    sim.run(until=5.0)
    fired = []
    sim.queue.push(1.0, lambda: fired.append("late"))
    with pytest.raises(ClockError):
        sim.run()
    assert fired == [] and sim.now == 5.0
    with pytest.raises(SimulationError):
        sim.schedule_at(4.9, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_prevents_dispatch():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    assert sim.cancel(handle) is True
    sim.run()
    assert fired == []


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_events_dispatched_counter():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.events_dispatched == 2


def test_identical_seeds_identical_orderings():
    def run_one(seed):
        sim = Simulator(seed=seed)
        order = []
        rng = sim.rng.stream("workload")
        for i in range(20):
            sim.schedule(rng.random(), lambda i=i: order.append(i))
        sim.run()
        return order

    assert run_one(3) == run_one(3)
    assert run_one(3) != run_one(4)
