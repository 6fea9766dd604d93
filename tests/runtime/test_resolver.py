"""Predictive choice resolution via dispatch replay."""

from dataclasses import dataclass

from repro.choice import PerformanceObjective
from repro.mc import DeliverAction, TimerAction
from repro.runtime import DEGRADE_REASONS, install_crystalball
from repro.statemachine import Cluster, Message, Service, msg_handler, timer_handler


@dataclass
class Gift(Message):
    amount: int


class GiverService(Service):
    """Node 0 periodically gives to a chosen peer; peers differ in how
    much the objective values them receiving."""

    state_fields = ("wealth",)

    def __init__(self, node_id: int, n: int = 3) -> None:
        super().__init__(node_id)
        self.n = n
        self.wealth = 0

    def on_init(self) -> None:
        if self.node_id == 0:
            self.set_timer("give", 1.0)

    @timer_handler("give")
    def on_give(self, payload) -> None:
        target = self.choose("gift-target", [p for p in range(self.n) if p != 0])
        self.send(target, Gift(amount=1))
        self.set_timer("give", 1.0)

    @msg_handler(Gift)
    def on_gift(self, src: int, msg: Gift) -> None:
        self.wealth += msg.amount


def factory(node_id):
    return GiverService(node_id, 3)


def weighted_wealth(world):
    # Node 2's wealth is worth double: the predictive resolver should
    # learn to always give to node 2.
    total = 0.0
    for node_id in world.node_ids:
        weight = 2.0 if node_id == 2 else 1.0
        total += weight * world.state_of(node_id).get("wealth", 0)
    return total


def test_predictive_resolver_maximizes_objective():
    cluster = Cluster(3, factory, seed=1)
    install_crystalball(
        cluster, factory,
        objective=PerformanceObjective("wealth", weighted_wealth),
        checkpoint_period=0.5, chain_depth=2, budget=200,
    )
    cluster.start_all()
    cluster.run(until=5.5)
    assert cluster.service(2).wealth == 5
    assert cluster.service(1).wealth == 0


def test_choice_scores_traced():
    cluster = Cluster(3, factory, seed=1)
    install_crystalball(
        cluster, factory,
        objective=PerformanceObjective("wealth", weighted_wealth),
        checkpoint_period=0.5, chain_depth=2, budget=200,
    )
    cluster.start_all()
    cluster.run(until=2.5)
    records = cluster.sim.trace.select("runtime.choice_score")
    assert len(records) >= 2  # two candidates scored per resolution
    assert records[0].data["label"] == "gift-target"


def test_choices_resolved_counted():
    cluster = Cluster(3, factory, seed=1)
    runtimes = install_crystalball(
        cluster, factory,
        objective=PerformanceObjective("wealth", weighted_wealth),
        checkpoint_period=0.5, chain_depth=2, budget=200,
    )
    cluster.start_all()
    cluster.run(until=3.5)
    assert runtimes[0].stats["choices_resolved"] == 3
    # Every choice was predicted: no reason counter moved.
    assert not any(runtimes[0].stats[f"degraded.{r}"] for r in DEGRADE_REASONS)


def test_per_choice_runtime_counts_every_scored_prediction():
    # A per-choice runtime predicts once per scored candidate, and
    # ``predictions`` counts those as it counts periodic passes.
    cluster = Cluster(3, factory, seed=1)
    runtimes = install_crystalball(
        cluster, factory,
        objective=PerformanceObjective("wealth", weighted_wealth),
        checkpoint_period=0.5, chain_depth=2, budget=200,
    )
    cluster.start_all()
    cluster.run(until=3.5)
    scored = cluster.sim.trace.count("runtime.choice_score")
    assert scored == 6   # two candidates at each of three choices
    assert runtimes[0].stats["predictions"] == scored
    assert [r.stats["predictions"] for r in runtimes[1:]] == [0, 0]


class TickingGiver(GiverService):
    """A giver whose peers also keep a timer pending."""

    def on_init(self) -> None:
        super().on_init()
        if self.node_id != 0:
            self.set_timer("tick", 0.4)

    @timer_handler("tick")
    def on_tick(self, payload) -> None:
        self.set_timer("tick", 0.4)


def test_per_choice_scoring_predicts_a_crashed_neighbour_down():
    # Node 2 checkpoints, then crashes: every world the next resolution
    # scores holds it down, so the gift replayed towards it stays in
    # flight and none of its timers fires.
    def ticking(node_id):
        return TickingGiver(node_id, 3)

    scored = []

    def record(world):
        scored.append(world)
        return weighted_wealth(world)

    cluster = Cluster(3, ticking, seed=1)
    runtimes = install_crystalball(
        cluster, ticking, objective=PerformanceObjective("wealth", record),
        checkpoint_period=0.3, chain_depth=2, budget=200,
    )
    cluster.start_all()
    cluster.run(until=0.9)
    assert runtimes[0].state_model.timers_of(2)
    cluster.node(2).crash()
    cluster.run(until=1.5)
    assert runtimes[0].stats["choices_resolved"] == 1
    assert scored and all(2 in world.down for world in scored)
    assert any(m.dst == 2 for world in scored for m in world.inflight)
    explorer = runtimes[0].make_explorer()
    for world in scored:
        for action in explorer.enabled_actions(world):
            target = action.dst if isinstance(action, DeliverAction) else action.node
            assert isinstance(action, (DeliverAction, TimerAction)) and target != 2
