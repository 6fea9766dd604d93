"""P2 — ack-anchored delta checkpoints.

:class:`~repro.runtime.CrystalBallRuntime` with ``checkpoint_deltas``
diffs each broadcast against the last full checkpoint the peer
acknowledged, so the state model keeps fresh without re-shipping full
state every period.  One measurement: a big-blob service cluster with
``checkpoint_deltas`` on vs off — the models must converge identically
and the bytes on the wire must shrink.

Results land in ``BENCH_P2.json``.
"""

import os

from repro.runtime import install_crystalball
from repro.statemachine import Cluster, Service, timer_handler

from conftest import print_table, record_metrics

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))


class BigStateService(Service):
    """Mostly-stable state with one hot counter: the delta sweet spot."""

    state_fields = ("blob", "counter")

    def __init__(self, node_id):
        super().__init__(node_id)
        self.blob = {f"entry{i}": list(range(16)) for i in range(120)}
        self.counter = 0

    def on_init(self):
        self.set_timer("bump", 0.4)

    @timer_handler("bump")
    def on_bump(self, payload):
        self.counter += 1
        self.set_timer("bump", 0.4)


def test_p2_delta_checkpoints_cut_bytes():
    horizon = 8.0 if QUICK else 16.0

    def run(deltas):
        cluster = Cluster(4, BigStateService, seed=5)
        runtimes = install_crystalball(
            cluster, BigStateService, checkpoint_period=0.5,
            checkpoint_deltas=deltas, full_checkpoint_every=5,
        )
        cluster.start_all()
        cluster.run(until=horizon)
        stats = {
            key: sum(r.stats[key] for r in runtimes)
            for key in (
                "checkpoint_bytes_sent", "checkpoints_sent",
                "delta_checkpoints_sent", "full_checkpoints_sent",
                "resync_fulls_sent", "checkpoint_acks_sent",
            )
        }
        # Models converged identically either way.
        states = {
            (r.node.node_id, peer): r.state_model.get(peer).state["counter"]
            for r in runtimes for peer in r.state_model.known_nodes()
        }
        return stats, states

    delta_stats, delta_states = run(True)
    full_stats, full_states = run(False)
    assert delta_states == full_states
    reduction = full_stats["checkpoint_bytes_sent"] / delta_stats["checkpoint_bytes_sent"]

    print_table(
        "P2: checkpoint bytes on the wire (4-node big-blob cluster)",
        ("mode", "bytes", "fulls", "deltas", "resyncs", "acks"),
        [
            ("full every period", full_stats["checkpoint_bytes_sent"],
             full_stats["checkpoints_sent"], 0, 0, 0),
            ("ack-anchored deltas", delta_stats["checkpoint_bytes_sent"],
             delta_stats["full_checkpoints_sent"],
             delta_stats["delta_checkpoints_sent"],
             delta_stats["resync_fulls_sent"],
             delta_stats["checkpoint_acks_sent"]),
        ],
    )
    record_metrics(
        "P2",
        checkpoint_bytes_full=full_stats["checkpoint_bytes_sent"],
        checkpoint_bytes_delta=delta_stats["checkpoint_bytes_sent"],
        delta_bytes_reduction=round(reduction, 2),
    )
    assert reduction >= 2.0, (
        f"delta checkpoints cut bytes only {reduction:.2f}x (floor 2.0x)"
    )
