"""send_many must be indistinguishable from a loop of send() calls.

The controller's batched checkpoint broadcast rides on this equivalence
— trace digests of existing benchmarks are pinned byte-identical — so
it is checked across every transport feature that touches a send: loss
(both reliability modes), FIFO bandwidth serialization, partitions,
liveness, fault interposers (drops, duplicates, delays), and connection
epochs.  The batching win itself (fewer queue insertions) is asserted
separately.
"""

import random

from repro.chaos.faults import FaultDecision
from repro.net import Link, Network, Topology, full_mesh
from repro.sim import Simulator


class _Recorder:
    def __init__(self):
        self.delivered = []
        self.broken = []

    def attach(self, net, node_id):
        net.attach(
            node_id,
            lambda src, dst, payload: self.delivered.append((src, dst, payload)),
            lambda peer: self.broken.append((node_id, peer)),
        )


def _trace_rows(sim):
    return [(r.time, r.category, r.node, repr(sorted(r.data.items()))) for r in sim.trace]


def _build(n, topology_fn, seed=7):
    sim = Simulator(seed=seed)
    net = Network(sim, topology_fn(n))
    rec = _Recorder()
    for i in range(n):
        rec.attach(net, i)
    return sim, net, rec


def _assert_equivalent(n, topology_fn, script, seed=7):
    """Run ``script(net, mode)`` in loop and batch mode; compare runs.

    ``script`` issues sends; for each broadcast it calls either
    per-destination ``send`` (mode="loop") or one ``send_many``
    (mode="batch").  Everything observable must match.
    """
    sim_a, net_a, rec_a = _build(n, topology_fn, seed)
    results_a = script(net_a, "loop")
    sim_a.run()

    sim_b, net_b, rec_b = _build(n, topology_fn, seed)
    results_b = script(net_b, "batch")
    sim_b.run()

    assert results_a == results_b
    assert rec_a.delivered == rec_b.delivered
    assert _trace_rows(sim_a) == _trace_rows(sim_b)
    for attr in ("messages_sent", "messages_delivered", "messages_dropped",
                 "messages_duplicated", "bytes_sent"):
        assert getattr(net_a, attr) == getattr(net_b, attr), attr
    return sim_a, sim_b


def _broadcast(net, mode, src, dsts, payload, **kwargs):
    if mode == "batch":
        return net.send_many(src, dsts, payload, **kwargs)
    return [net.send(src, dst, payload, **kwargs) for dst in dsts]


def test_uniform_mesh_broadcast_equivalent():
    def script(net, mode):
        return _broadcast(net, mode, 0, [1, 2, 3, 4, 5], "hello")

    _assert_equivalent(6, full_mesh, script)


def test_mixed_latency_broadcast_equivalent():
    def topo(n):
        t = Topology(n, default=Link(latency=0.05))
        t.set_symmetric(0, 1, Link(latency=0.01))
        t.set_symmetric(0, 3, Link(latency=0.2))
        return t

    def script(net, mode):
        out = _broadcast(net, mode, 0, [1, 2, 3, 4], "a")
        out += _broadcast(net, mode, 0, [4, 3, 2, 1], "b")
        return out

    _assert_equivalent(5, topo, script)


def test_lossy_links_consume_identical_rng_draws():
    def topo(n):
        return Topology(n, default=Link(latency=0.02, loss=0.3))

    def script(net, mode):
        out = _broadcast(net, mode, 0, [1, 2, 3], "r", reliable=True)
        out += _broadcast(net, mode, 0, [1, 2, 3], "u", reliable=False)
        out += _broadcast(net, mode, 1, [0, 2, 3], "r2", reliable=True)
        return out

    _assert_equivalent(4, topo, script)


def test_fifo_serialization_equivalent():
    def topo(n):
        return Topology(n, default=Link(latency=0.01, bandwidth=1e5))

    def script(net, mode):
        # Large frames back to back: arrivals are all distinct because
        # the per-link FIFO pushes each transmission later.
        out = _broadcast(net, mode, 0, [1, 1, 1, 2], "big", size_bytes=50_000)
        return out

    _assert_equivalent(3, topo, script)


def test_partition_and_down_nodes_equivalent():
    def script(net, mode):
        net.set_partition([{0, 1}, {2, 3}])
        net.liveness.fail(1)
        out = _broadcast(net, mode, 0, [1, 2, 3], "x")
        net.clear_partition()
        net.liveness.recover(1)
        out += _broadcast(net, mode, 0, [1, 2, 3], "y")
        return out

    _assert_equivalent(4, full_mesh, script)


class _EveryOtherChaos:
    """Deterministic interposer: drop every 3rd send, duplicate every
    4th, delay every 5th — exercises all FaultDecision branches."""

    def __init__(self):
        self.calls = 0

    def apply(self, src, dst, payload, now):
        self.calls += 1
        if self.calls % 3 == 0:
            return FaultDecision(drop=True, reason="chaos-drop")
        if self.calls % 4 == 0:
            return FaultDecision(duplicates=2, duplicate_delays=(0.05, 0.11))
        if self.calls % 5 == 0:
            return FaultDecision(extra_delay=0.4)
        return None


def test_fault_interposers_equivalent():
    def script(net, mode):
        net.add_fault_interposer(_EveryOtherChaos())
        out = _broadcast(net, mode, 0, [1, 2, 3, 4], "m1")
        out += _broadcast(net, mode, 0, [4, 3, 2, 1], "m2")
        out += _broadcast(net, mode, 1, [0, 2, 3, 4], "m3")
        return out

    _assert_equivalent(5, full_mesh, script)


def test_broken_connection_epochs_equivalent():
    def script(net, mode):
        out = _broadcast(net, mode, 0, [1, 2], "pre")
        net.break_connection(0, 1)
        out += _broadcast(net, mode, 0, [1, 2], "post")
        return out

    _assert_equivalent(3, full_mesh, script)


def test_mid_run_link_changes_equivalent():
    # The transport caches link parameters per pair; a change between
    # two broadcasts (direct and scheduled, with FIFOs still busy) must
    # reach both paths at the same send.
    def topo(n):
        return Topology(n, default=Link(latency=0.05, bandwidth=1e6))

    changed_at = []

    def change(net):
        net.topology.set_symmetric(0, 3, Link(latency=0.001, bandwidth=1e6))
        changed_at.append(net.sim.now)

    def script(net, mode):
        sim = net.sim
        out = _broadcast(net, mode, 0, [1, 2, 3], "warm", size_bytes=20_000)
        sim.run(until=0.01)
        net.topology.set_symmetric(0, 2, Link(latency=0.3, bandwidth=1e5))
        sim.schedule_at(0.02, lambda: change(net))
        out += _broadcast(net, mode, 0, [1, 2, 3], "moved", size_bytes=20_000)
        sim.run(until=0.03)
        out += _broadcast(net, mode, 0, [3, 2, 1], "again")
        out += _broadcast(net, mode, 2, [0, 3], "reverse")
        return out

    _assert_equivalent(4, topo, script)
    assert changed_at == [0.02, 0.02]


def test_send_many_batches_same_arrival_into_one_event():
    sim = Simulator(seed=1)
    net = Network(sim, full_mesh(9))
    rec = _Recorder()
    for i in range(9):
        rec.attach(net, i)
    before = len(sim.queue)
    net.send_many(0, list(range(1, 9)), "fanout")
    inserted = len(sim.queue) - before
    # Uniform mesh, same size, empty FIFOs: all 8 arrivals coincide.
    assert inserted == 1
    sim.run()
    assert [d[1] for d in rec.delivered] == list(range(1, 9))


def test_send_many_unattached_source_raises():
    sim = Simulator(seed=1)
    net = Network(sim, full_mesh(3))
    rec = _Recorder()
    rec.attach(net, 1)
    try:
        net.send_many(0, [1, 2], "x")
        raise AssertionError("expected TransportError")
    except Exception as exc:
        assert type(exc).__name__ == "TransportError"
