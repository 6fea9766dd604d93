"""Fuzz targets check the protocols' own safety properties, live and at
the end of every execution, with byte-stable violation messages."""

from repro.apps.paxos import PaxosReplica
from repro.apps.randtree import RandTreeConfig
from repro.chaos import FaultPlan
from repro.fuzz import make_target
from repro.fuzz.executor import RandTreeFuzzTarget
from repro.mc import WorldState

AGREEMENT_BROKEN = "paxos-agreement: two replicas chose different values"
AT_MOST_ONCE_BROKEN = "paxos-at-most-once: a replica applied a command twice"


def _replicas(last_chosen, last_executed):
    """Five replicas that agree, except for what the last one holds."""
    states = {nid: {"chosen": {0: (0, 0)}, "executed": [(0, 0)]} for nid in range(4)}
    states[4] = {"chosen": {0: last_chosen}, "executed": last_executed}
    return WorldState(states)


def test_paxos_targets_name_each_broken_property():
    target = make_target("paxos")
    assert target.live_violations(_replicas((0, 0), [(0, 0)])) == []
    assert target.live_violations(_replicas((4, 0), [(4, 0)])) == [AGREEMENT_BROKEN]
    assert target.live_violations(_replicas((0, 0), [(0, 0), (0, 0)])) == [
        AT_MOST_ONCE_BROKEN]
    both = _replicas((4, 0), [(4, 0), (4, 0)])
    assert target.live_violations(both) == [AGREEMENT_BROKEN, AT_MOST_ONCE_BROKEN]


class LastReplicaDecidesAlone(PaxosReplica):
    """The last replica learns a value for instance 0 no one proposed."""

    def _value_chosen(self, instance, value):
        if self.node_id == 4 and instance == 0:
            value = ((4, 99),)
        super()._value_chosen(instance, value)


def test_paxos_execution_reports_agreement_live_and_at_end():
    target = make_target("paxos")
    target.factory = lambda nid: LastReplicaDecidesAlone(nid, target.config)
    execution = target.execute(FaultPlan(), seed=1, probes=False)
    assert execution.violations == [
        f"t={t}: {AGREEMENT_BROKEN}" for t in ("3", "5", "7", "end")
    ]


def test_randtree_execution_reports_degree_bound():
    """Checked against a bound of one child, the protocol's two-child
    tree breaks the degree rule in the 0.5 s sweep and at the end."""
    target = RandTreeFuzzTarget()
    target.config = RandTreeConfig(max_children=1)
    execution = target.execute(FaultPlan(), seed=1, probes=False)
    assert any(v.startswith("t=end: ") and "exceeds degree bound: 2 > 1" in v
               for v in execution.violations)
    assert any(v.startswith("t=3: ") and "exceeds degree bound" in v
               for v in execution.violations)


def test_randtree_live_check_reads_live_nodes_only():
    target = make_target("randtree")
    states = {0: {"joined": True, "parent": None, "children": [1, 2, 3]},
              1: {"joined": True, "parent": 1, "children": []}}
    assert target.live_violations(WorldState(states)) == [
        "node 0 exceeds degree bound: 3 > 2", "node 1 is its own parent",
    ]
    assert target.live_violations(WorldState(states, down=[0, 1])) == []
