#!/usr/bin/env python
"""Execution steering: predicting and preventing a safety violation.

Recreates CrystalBall's headline behaviour (Section 2): each node's
runtime periodically collects neighborhood checkpoints, runs
consequence prediction over the assembled snapshot, and — when some
future message delivery would violate a safety property — installs an
event filter that drops the offending message and breaks the connection
with its sender.

The demo service is a quota cell: writers blindly push increments at a
storage node whose invariant is ``value <= QUOTA``.  Without steering
the quota is breached; with steering the runtime predicts the breach
one hop ahead and filters exactly the overflowing increments.
"""

from dataclasses import dataclass

from repro.mc import SafetyProperty
from repro.runtime import install_crystalball
from repro.statemachine import Cluster, Message, Service, msg_handler, timer_handler

QUOTA = 3
STORAGE = 0
N = 3


@dataclass
class Increment(Message):
    amount: int


class QuotaCell(Service):
    """Node 0 stores a value; the others blindly increment it."""

    state_fields = ("value", "sent")

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.value = 0
        self.sent = 0

    def on_init(self) -> None:
        if self.node_id != STORAGE:
            # Writers are staggered so increments arrive one at a time —
            # prediction runs between arrivals and can intervene.
            self.set_timer("push", 1.0 + 0.5 * self.node_id)

    @timer_handler("push")
    def on_push(self, payload) -> None:
        self.send(STORAGE, Increment(amount=1))
        self.sent += 1
        self.set_timer("push", 1.0)

    @msg_handler(Increment)
    def on_increment(self, src: int, msg: Increment) -> None:
        self.value += msg.amount


def quota_property():
    return SafetyProperty(
        "quota-respected",
        lambda world: world.state_of(STORAGE).get("value", 0) <= QUOTA
        if STORAGE in world.node_states else True,
    )


def run(steering: bool):
    cluster = Cluster(N, QuotaCell, seed=11)
    runtimes = install_crystalball(
        cluster, QuotaCell,
        properties=[quota_property()],
        checkpoint_period=0.3,
        prediction_period=0.4 if steering else 0.0,
        chain_depth=2, budget=300,
    )
    cluster.start_all()
    cluster.run(until=15.0)
    storage = cluster.service(STORAGE)
    runtime = runtimes[STORAGE]
    return storage.value, runtime.stats, cluster


def main():
    print(__doc__)
    value, _, _ = run(steering=False)
    print(f"without steering: stored value = {value}  (quota = {QUOTA})  "
          f"-> violated: {value > QUOTA}")

    value, stats, cluster = run(steering=True)
    print(f"with steering:    stored value = {value}  (quota = {QUOTA})  "
          f"-> violated: {value > QUOTA}")
    print(f"  predictions run:       {stats['predictions']}")
    print(f"  event filters installed: {stats['filters_installed']}")
    print(f"  messages steered away:   {stats['steered_messages']}")
    broken = sum(
        1 for peer in range(1, N)
        if cluster.network.connection_epoch(STORAGE, peer) > 0
    )
    print(f"  connections broken:      {broken}")
    assert value <= QUOTA, "steering failed to protect the invariant"
    print("\nThe runtime predicted the overflow and filtered the offending")
    print("deliveries — the application code never mentioned the quota.")


if __name__ == "__main__":
    main()
