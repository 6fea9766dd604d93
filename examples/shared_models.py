#!/usr/bin/env python
"""Runtime models as shared infrastructure (Sections 3.3.1 and 3.4).

Two extension mechanisms the paper sketches, demonstrated live:

1. **iPlane-style model sharing** — "the network and the system model
   should be exported and kept in the runtime ... allowing the runtime
   to leverage other information services".  Here only node 0 probes
   the network, yet after a round of ``ModelShareMsg`` exchange every
   runtime predicts latencies for pairs it never measured.

2. **Precomputed choice policies** — "removing complex mechanisms for
   making the choices from the critical path, using choices based on
   previous similar scenarios as a fast alternative".  The amortized
   scheduler (``steering_policy=True``) runs a scored prediction round
   only when no earlier round covers the scenario; repeat scenarios are
   answered from the distilled ranking or a coalesced answer.  Rankings
   age out, which is the paper's "updating the choices as more
   information becomes available"; until a round can run, the
   ``fallback`` resolver answers.
"""

import time

from repro.choice import FirstResolver
from repro.runtime import install_crystalball, merge_steering_snapshots
from repro.statemachine import Cluster

# Reuse the quickstart's load-balancer service.
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from quickstart import LoadBalancer, make_objective  # noqa: E402

N = 4


def demo_model_sharing():
    print("--- 1. iPlane-style model sharing ---")
    cluster = Cluster(N, LoadBalancer, seed=3)
    runtimes = install_crystalball(
        cluster, LoadBalancer, set_resolver=False,
        checkpoint_period=0.0, model_share_period=1.0,
    )
    # Only node 0 measures anything.
    for peer in range(1, N):
        runtimes[0].probe(peer)
    cluster.run(until=0.5)
    before = runtimes[2].network_model.confidence(0, 1, now=cluster.sim.now)
    cluster.run(until=3.0)
    after = runtimes[2].network_model.confidence(0, 1, now=cluster.sim.now)
    rtt = runtimes[2].network_model.rtt(0, 1)
    print(f"node 2's confidence in the (0,1) link: {before:.2f} -> {after:.2f}")
    print(f"node 2 predicts rtt(0,1) = {rtt * 1000:.0f} ms without ever probing it")
    adopted = sum(r.stats["model_entries_adopted"] for r in runtimes)
    print(f"model entries adopted across the cluster: {adopted}\n")


def demo_amortized_policy():
    print("--- 2. precomputed choices off the critical path ---")
    walls = {}
    for label, amortized in (("per-choice", False), ("amortized", True)):
        cluster = Cluster(N, LoadBalancer, seed=7)
        runtimes = install_crystalball(
            cluster, LoadBalancer, objective=make_objective(),
            checkpoint_period=0.5, chain_depth=3, budget=300,
            steering_policy=amortized, fallback=FirstResolver(),
        )
        cluster.start_all()
        start = time.perf_counter()
        cluster.run(until=20.0)
        walls[label] = time.perf_counter() - start
        total = sum(s.done for s in cluster.services)
        print(f"{label:>18}: wall {walls[label]:.2f}s  work done {total}")
        if amortized:
            steering = merge_steering_snapshots(r.amortized.snapshot() for r in runtimes)
            paths = "  ".join(f"{path} {n}" for path, n in steering["counters"].items())
            print(f"{'':>18}  {steering['resolutions']} resolutions: {paths}")
    slow, fast = walls["per-choice"], walls["amortized"]
    print(f"\n{slow / fast:.1f}x less wall-clock on the critical path")


def main():
    print(__doc__)
    demo_model_sharing()
    demo_amortized_policy()


if __name__ == "__main__":
    main()
