"""Event filters vs chaos: steering must drop *every* copy.

The chaos layer duplicates and reorders inbound messages; an installed
event filter has to suppress each arriving copy (filters are consulted
per delivery, and the broken connection kills what is still in
flight) — a single-shot filter would let a duplicate through.
"""

from dataclasses import dataclass

from repro.chaos import FaultDecision
from repro.runtime import EventFilter, install_crystalball
from repro.statemachine import Cluster, Message, Service, msg_handler
from repro.statemachine.serialization import freeze


@dataclass
class Evil(Message):
    n: int


@dataclass
class Benign(Message):
    n: int


class SinkService(Service):
    state_fields = ("evil_seen", "benign_seen")

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.evil_seen = 0
        self.benign_seen = 0

    @msg_handler(Evil)
    def on_evil(self, src: int, msg: Evil) -> None:
        self.evil_seen += 1

    @msg_handler(Benign)
    def on_benign(self, src: int, msg: Benign) -> None:
        self.benign_seen += 1


class DuplicateEverything:
    """Deterministic chaos: every send yields two extra copies."""

    def apply(self, src, dst, payload, now):
        return FaultDecision(duplicates=2, duplicate_delays=(0.05, 0.4))


class DisplaceFirst:
    """Deterministic reorder: delay only the first send ever seen."""

    def __init__(self) -> None:
        self.fired = False

    def apply(self, src, dst, payload, now):
        if not self.fired:
            self.fired = True
            return FaultDecision(extra_delay=0.5)
        return None


def make_cluster():
    cluster = Cluster(3, lambda nid: SinkService(nid), seed=8)
    runtimes = install_crystalball(
        cluster, lambda nid: SinkService(nid),
        checkpoint_period=0.0, prediction_period=0.0,
    )
    cluster.start_all()
    return cluster, runtimes


def install_evil_filter(runtime, ttl=100.0):
    """Filter node 1's ``Evil(n=1)``, the message each test sends."""
    runtime.steering.install(EventFilter(
        src=1, msg_key=freeze(Evil(n=1)), expires_at=ttl, reason="test",
    ))


def test_all_duplicated_copies_dropped():
    cluster, runtimes = make_cluster()
    install_evil_filter(runtimes[0])
    cluster.network.add_fault_interposer(DuplicateEverything())
    cluster.network.send(1, 0, Evil(n=1), reliable=False)
    cluster.run(until=2.0)
    assert cluster.service(0).evil_seen == 0
    # Every arriving copy was individually steered away.
    assert cluster.sim.trace.count("node.filtered_in") == 3
    assert runtimes[0].stats["steered_messages"] == 3


def test_exact_match_filter_drops_duplicates_of_same_payload():
    cluster, runtimes = make_cluster()
    evil = Evil(n=7)
    runtimes[0].steering.install(EventFilter(
        src=1, msg_key=freeze(evil), expires_at=100.0, reason="exact",
    ))
    cluster.network.add_fault_interposer(DuplicateEverything())
    cluster.network.send(1, 0, Evil(n=7), reliable=False)
    cluster.network.send(1, 0, Evil(n=8), reliable=False)   # different payload
    cluster.run(until=2.0)
    assert cluster.service(0).evil_seen == 3   # only the n=8 copies land
    assert runtimes[0].stats["steered_messages"] == 3


def test_reordered_copy_still_filtered():
    cluster, runtimes = make_cluster()
    install_evil_filter(runtimes[0])
    cluster.network.add_fault_interposer(DisplaceFirst())
    cluster.network.send(1, 0, Evil(n=1), reliable=False)    # displaced +0.5s
    cluster.network.send(1, 0, Benign(n=2), reliable=False)  # overtakes it
    cluster.run(until=2.0)
    assert cluster.service(0).benign_seen == 1
    assert cluster.service(0).evil_seen == 0
    steers = [r for r in cluster.sim.trace.select("runtime.steer")
              if r.category == "runtime.steer"]  # not .explain
    benigns = cluster.sim.trace.select("net.deliver", node=0)
    assert len(steers) == 1
    # The benign message arrived before the displaced evil one.
    assert benigns[0].time < steers[0].time


def test_break_connection_kills_inflight_reliable_duplicates():
    # Reliable traffic: the first steered copy breaks the connection,
    # so later in-flight duplicates die by epoch instead of by filter —
    # either way the service never sees a single copy.
    cluster, runtimes = make_cluster()
    install_evil_filter(runtimes[0])
    cluster.network.add_fault_interposer(DuplicateEverything())
    epoch_before = cluster.network.connection_epoch(0, 1)
    cluster.network.send(1, 0, Evil(n=1), reliable=True)
    cluster.run(until=2.0)
    assert cluster.service(0).evil_seen == 0
    assert cluster.network.connection_epoch(0, 1) > epoch_before
    reasons = [r.data["reason"] for r in cluster.sim.trace.select("net.drop")]
    assert "connection-broken" in reasons


def test_expired_filter_lets_copies_through():
    cluster, runtimes = make_cluster()
    install_evil_filter(runtimes[0], ttl=0.01)
    cluster.network.add_fault_interposer(DuplicateEverything())
    cluster.sim.schedule_at(
        1.0, lambda: cluster.network.send(1, 0, Evil(n=1), reliable=False),
    )
    cluster.run(until=3.0)
    assert cluster.service(0).evil_seen == 3
    assert runtimes[0].stats["steered_messages"] == 0
