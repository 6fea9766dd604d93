#!/usr/bin/env python
"""Consensus over a WAN: exposing the proposer choice (Section 3.1).

Runs one Multi-Paxos replica class in three configurations over a
three-region wide-area topology with CPU load on two replicas.  The
replica exposes the proposer of every batch as a choice; each design is
a resolver of that one choice:

* fixed    — ``leader_resolver(0)``: every command routes through
             replica 0 (classic leader);
* mencius  — the default first-candidate resolver: every origin
             proposes its own commands (round-robin slots);
* choice   — ``make_proposer_resolver()``: the runtime's network model
             picks the replica minimizing predicted commit latency,
             routing around both loaded machines.

One mechanism, three policies: the protocol code is identical across
all three, and for ``choice`` the policy lives in the runtime.
"""

from repro.eval import DEFAULT_LOADS, PAXOS_VARIANTS, run_paxos_experiment


def main():
    print(__doc__)
    print(f"CPU load model (s/proposal per replica): {DEFAULT_LOADS}")
    print(f"\n{'variant':>8} {'mean':>9} {'p99':>9} {'committed':>10}   per-origin mean (ms)")
    for variant in PAXOS_VARIANTS:
        result = run_paxos_experiment(variant, seed=1, requests_per_node=10)
        per_node = {k: round(v * 1000) for k, v in sorted(result.per_node_mean.items())}
        print(
            f"{variant:>8} {result.mean_latency * 1000:>7.0f}ms "
            f"{result.p99_latency * 1000:>7.0f}ms "
            f"{result.committed:>5}/{result.expected}   {per_node}"
        )
    print("\nFixed-leader collapses under the leader's CPU queue; Mencius")
    print("recovers except at the loaded edge replica; the exposed choice")
    print("routes that replica's commands through a fast proxy.")


if __name__ == "__main__":
    main()
