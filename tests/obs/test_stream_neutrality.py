"""Digest neutrality: sampling at ANY cadence never perturbs a run.

The ISSUE-level contract for streaming telemetry — property-tested over
sampler cadences:

* trace digests are byte-identical to sampling-off on a fully traced
  workload;
* ``PredictionReport.digest()`` from a CrystalBall runtime is
  byte-identical to sampling-off;
* ``RunStream`` records round-trip losslessly through
  ``cli tail --json``.
"""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.apps.gossip import GossipConfig, make_exposed_gossip_factory
from repro.choice.resolvers import RandomResolver
from repro.cli import main
from repro.obs import TelemetrySampler
from repro.obs.stream import RunStream, parse_record, read_stream
from repro.runtime import install_crystalball
from repro.sim.trace import trace_digest
from repro.statemachine import Cluster, Message, Service, msg_handler, timer_handler

# Cadences deliberately include sub-event-scale, co-periodic-with-app
# (timers fire at 0.1/1.0), and irrational-looking values.
CADENCES = st.sampled_from([0.07, 0.1, 0.25, 0.5, 1.0, 1.3, 2.0, 3.9])


# ----------------------------------------------------------------------
# Trace-digest neutrality on a traced workload
# ----------------------------------------------------------------------

def _gossip_trace_digest(cadence=None) -> str:
    config = GossipConfig(n=8, rumor_count=4, publish_interval=0.1)
    cluster = Cluster(8, make_exposed_gossip_factory(config), seed=1,
                      resolver_factory=lambda nid: RandomResolver(1))
    if cadence is not None:
        sampler = TelemetrySampler(cluster.sim, cadence=cadence)
        sampler.watch("net.messages", lambda: cluster.network.messages_sent)
        sampler.watch("sim.events", lambda: cluster.sim.events_dispatched)
        sampler.start(until=4.0)
    cluster.start_all()
    cluster.run(until=4.0)
    return trace_digest(cluster.sim.trace)


_GOSSIP_BASELINE = _gossip_trace_digest(cadence=None)


@settings(max_examples=8, deadline=None)
@given(cadence=CADENCES)
def test_trace_digest_identical_at_any_cadence(cadence):
    assert _gossip_trace_digest(cadence) == _GOSSIP_BASELINE


# ----------------------------------------------------------------------
# PredictionReport.digest() neutrality on a CrystalBall runtime
# ----------------------------------------------------------------------

@dataclass
class Bump(Message):
    amount: int


class CounterService(Service):
    state_fields = ("value",)

    def __init__(self, node_id: int, n: int = 3) -> None:
        super().__init__(node_id)
        self.n = n
        self.value = 0

    def on_init(self) -> None:
        self.set_timer("bump", 1.0)

    @timer_handler("bump")
    def on_bump_timer(self, payload) -> None:
        self.send((self.node_id + 1) % self.n, Bump(amount=1))
        self.set_timer("bump", 1.0)

    @msg_handler(Bump)
    def on_bump(self, src: int, msg: Bump) -> None:
        self.value += msg.amount


def _factory(node_id):
    return CounterService(node_id, 3)


def _prediction_digest(cadence=None) -> str:
    cluster = Cluster(3, _factory, seed=3)
    runtimes = install_crystalball(cluster, _factory, checkpoint_period=0.5)
    if cadence is not None:
        sampler = TelemetrySampler(cluster.sim, cadence=cadence)
        sampler.watch("sim.events", lambda: cluster.sim.events_dispatched)
        sampler.start(until=3.0)
    cluster.start_all()
    cluster.run(until=3.0)
    return runtimes[0].run_prediction().digest()


_PREDICTION_BASELINE = _prediction_digest(cadence=None)


@settings(max_examples=8, deadline=None)
@given(cadence=CADENCES)
def test_prediction_digest_identical_at_any_cadence(cadence):
    assert _prediction_digest(cadence) == _PREDICTION_BASELINE


# ----------------------------------------------------------------------
# RunStream records round-trip through ``cli tail --json``
# ----------------------------------------------------------------------

def test_records_round_trip_through_cli_tail_json(tmp_path, capsys):
    path = str(tmp_path / "run.jsonl")
    stream = RunStream(path, kind="demo", run_id="rt-1",
                       config={"seed": 7, "plan": "chaos"})
    stream.write_sample({"ops": 12, "lat": 0.0315}, t=1.0)
    stream.write_event("safety.probe", t=1.5, agreement=True, probe=1)
    stream.write_summary(t=2.0, committed=12, safe=True)

    assert main(["tail", path, "--json"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    round_tripped = [parse_record(line) for line in lines]
    assert round_tripped == read_stream(path)
    assert [r["type"] for r in round_tripped] == \
        ["header", "sample", "event", "summary"]
