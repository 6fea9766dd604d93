#!/usr/bin/env python
"""Precomputed choice policies (Section 3.4).

"Removing complex mechanisms for making the choices from the critical
path, using choices based on previous similar scenarios as a fast
alternative".  The amortized scheduler (``steering_policy=True``) runs a
scored prediction round only when no earlier round covers the scenario;
repeat scenarios are answered from the distilled ranking or a coalesced
answer.  Rankings age out, which is the paper's "updating the choices as
more information becomes available"; until a round can run, the
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


def main():
    print(__doc__)
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


if __name__ == "__main__":
    main()
