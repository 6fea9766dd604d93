"""A restored service copies a field when it first reads it, and a
sandbox step hands its state over without another copy.

``Service.restore`` assigns scalars and defers containers;
``Explorer.sandbox_step`` returns ``live_state()``: the handler's copies
plus the untouched fields of its input checkpoint.  The judge is
:mod:`.eager_checkpoint`, the copy-everything restore and checkpoint it
replaced: from the same checkpoint, a step must reach an equal
checkpoint (digest and container types) with equal effects, and leave
its input checkpoint's digest as it was — also when the next step
starts from the checkpoint it handed over.  The steps are every live
dispatch of small RandTree, gossip, dissemination, Paxos and two-layer
stack runs, drawn by hypothesis against one explorer per family, so
pooled instances carry state between examples as they do in a search.
A second step replays another dispatch's choice script, which the
handed-over state may not offer: then both sides must raise the same
:class:`~repro.choice.ChoiceError`.
"""

from collections import deque
from dataclasses import dataclass, fields
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.apps.dissemination import DisseminationConfig, make_exposed_swarm_factory, make_views
from repro.apps.gossip import GossipConfig, make_exposed_gossip_factory
from repro.apps.paxos import PaxosConfig, make_paxos_factory
from repro.apps.randtree import RandTreeConfig, make_exposed_factory
from repro.choice import ChoiceError, RandomResolver
from repro.mc import DeliverAction, Explorer
from repro.statemachine import (
    ChoiceRequested,
    Cluster,
    Message,
    Service,
    digest,
    freeze,
    msg_handler,
)

from .eager_checkpoint import eager_sandbox_step
from .test_stack import stack_factory


def _randtree():
    return 9, make_exposed_factory(RandTreeConfig()), 20.0


def _gossip():
    return 8, make_exposed_gossip_factory(GossipConfig(n=8, rumor_count=4)), 20.0


def _dissemination():
    config = DisseminationConfig(n=6, block_count=8, seeds=(0,), view_size=5)
    return 6, make_exposed_swarm_factory(config, make_views(6, 5, 2)), 60.0


def _paxos():
    config = PaxosConfig(n=3, requests_per_node=3, request_interval=0.5)
    return 3, make_paxos_factory(config), 30.0


def _stack():
    return 3, stack_factory(3), 10.0


FAMILIES = {
    "randtree": _randtree,
    "gossip": _gossip,
    "dissemination": _dissemination,
    "paxos": _paxos,
    "stack": _stack,
}


@lru_cache(maxsize=None)
def _family(name):
    """``(factory, rng seed, explorer, steps)`` of one family: ``steps``
    holds ``(node id, DispatchRecord, clock)`` for every live dispatch."""
    n, factory, until = FAMILIES[name]()
    cluster = Cluster(n, factory, seed=1, resolver_factory=lambda nid: RandomResolver(1))
    steps = []
    for node in cluster.nodes:
        node.capture_dispatch = True
        service = node.service
        service.deliver = _spied(node, service.deliver, steps)
        service.fire_timer = _spied(node, service.fire_timer, steps)
    cluster.start_all()
    cluster.run(until=until)
    seed = cluster.sim.rng.root_seed
    return factory, seed, Explorer(factory, rng_seed=seed), steps


def _spied(node, dispatch, steps):
    def spied(*args):
        steps.append((node.node_id, node.current_dispatch, node.sim.now + node.clock_skew))
        return dispatch(*args)
    return spied


def _shape(value):
    """The container types of ``value``, all the way down."""
    if isinstance(value, dict):
        return type(value), sorted((repr(k), _shape(v)) for k, v in value.items())
    if isinstance(value, (list, tuple, deque)):
        return type(value), [_shape(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return type(value), sorted(repr(_shape(v)) for v in value)
    if hasattr(type(value), "__dataclass_fields__"):
        return type(value), [_shape(getattr(value, f.name)) for f in fields(value)]
    return type(value)


def _outcome(step, *args):
    """A step's checkpoint (digest and shape) and effects, the
    unscripted choice it stopped at, or the scripted choice it
    rejected."""
    try:
        checkpoint, effects, time_read = step(*args)
    except ChoiceRequested as request:
        point = request.point
        return None, ("choice", point.label, freeze(point.candidates), freeze(request.consumed))
    except ChoiceError as error:
        return None, ("error", str(error))
    events = (effects.sent, effects.timers_set, effects.timers_cancelled, time_read)
    return checkpoint, (digest(checkpoint), _shape(checkpoint), freeze(events))


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_sandbox_step_matches_the_eager_oracle(family, data):
    factory, seed, explorer, steps = _family(family)
    node_id, record, now = data.draw(st.sampled_from(steps))
    state = record.checkpoint
    before = digest(state)
    if data.draw(st.booleans()) and isinstance(record.event, DeliverAction):
        # A read-only acquire first (guards read fields, copying them):
        # the step then reuses that instance without a restore.
        event = record.event
        explorer.materialize(node_id, state, readonly=True).applicable_handlers(
            event.src, event.msg)
    script = list(record.choices)
    handed, got = _outcome(explorer.sandbox_step, node_id, state, record.event, now, script)
    oracle, expected = _outcome(
        eager_sandbox_step, factory, node_id, state, record.event, now, script, seed)
    assert got == expected
    assert digest(state) == before
    if handed is None:
        return
    # The next step starts from the checkpoint the first one handed over.
    _, second, later = data.draw(st.sampled_from([s for s in steps if s[0] == node_id]))
    _second_step(family, node_id, handed, oracle, second, later)
    assert digest(state) == before


def _second_step(family, node_id, handed, oracle, second, later):
    """Step ``second`` from the handed-over checkpoint and from the
    oracle's; both must agree and leave the handed-over one as it was."""
    factory, seed, explorer, _ = _family(family)
    script = list(second.choices)
    handed_before = digest(handed)
    _, got = _outcome(explorer.sandbox_step, node_id, handed, second.event, later, script)
    _, expected = _outcome(
        eager_sandbox_step, factory, node_id, oracle, second.event, later, script, seed)
    assert got == expected
    assert digest(handed) == handed_before
    return got


def test_a_second_script_the_handed_over_state_rejects_raises_on_both_sides():
    # The first recorded dissemination pair whose second step's script
    # names a block the handed-over state does not offer.
    factory, seed, explorer, steps = _family("dissemination")
    for node_id, first, now in steps:
        state = first.checkpoint
        script = list(first.choices)
        handed, _ = _outcome(explorer.sandbox_step, node_id, state, first.event, now, script)
        if handed is None:
            continue
        oracle, _ = _outcome(
            eager_sandbox_step, factory, node_id, state, first.event, now, script, seed)
        for other, second, later in steps:
            if other != node_id:
                continue
            script = list(second.choices)
            _, got = _outcome(explorer.sandbox_step, node_id, handed, second.event, later, script)
            if got[0] == "error":
                assert "not among candidates" in got[1]
                assert _second_step("dissemination", node_id, handed, oracle, second, later) == got
                return
    raise AssertionError("no recorded dissemination step pair rejects its script")


# ----------------------------------------------------------------------
# The cases a deferred field can get wrong
# ----------------------------------------------------------------------

@dataclass
class Put(Message):
    n: int


class Reset(Service):
    """Assigns ``items`` before it reads it."""

    state_fields = ("items", "count")

    def __init__(self, node_id):
        super().__init__(node_id)
        self.items = [0]
        self.count = 0

    @msg_handler(Put)
    def on_put(self, src, msg):
        self.items = [msg.n]
        self.items.append(len(self.items))
        self.count += 1


class Marked(Service):
    """State fields that are also class attributes."""

    state_fields = ("marks", "seen")
    marks = ()
    seen = []

    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen = []

    @msg_handler(Put)
    def on_put(self, src, msg):
        self.marks = self.marks + (msg.n,)
        self.seen.append(msg.n)


class Appender(Service):
    state_fields = ("log", "total")

    def __init__(self, node_id):
        super().__init__(node_id)
        self.log = []
        self.total = 0

    @msg_handler(Put)
    def on_put(self, src, msg):
        self.log.append(msg.n)
        self.total += msg.n


def _both(factory, state, n, node_id=1):
    """The step's and the oracle's checkpoint of delivering ``Put(n)``."""
    event = DeliverAction(src=0, dst=node_id, msg=Put(n=n))
    explorer = Explorer(factory)
    handed, _, _ = explorer.sandbox_step(node_id, state, event, 0.0, [])
    oracle, _, _ = eager_sandbox_step(factory, node_id, state, event, 0.0, [])
    return handed, oracle, explorer


def test_a_field_assigned_before_it_is_read_is_handed_over_as_assigned():
    state = {"items": [5, 6], "count": 2}
    handed, oracle, explorer = _both(Reset, state, 9)
    assert handed == oracle == {"items": [9, 1], "count": 3}
    assert state == {"items": [5, 6], "count": 2}
    # The stale deferred value is shadowed in a checkpoint too.
    assert explorer.pool._instances[1].checkpoint() == handed


def test_a_state_field_that_is_a_class_attribute_is_restored_at_once():
    state = {"marks": (1,), "seen": [1]}
    handed, oracle, _ = _both(Marked, state, 2)
    assert handed == oracle == {"marks": (1, 2), "seen": [1, 2]}
    assert state == {"marks": (1,), "seen": [1]}
    assert (Marked.marks, Marked.seen) == ((), [])


def test_a_missing_attribute_is_still_missing():
    service = Appender(1)
    service.defer_copies()
    state = {"log": [1], "total": 1}
    service.restore(state)
    assert getattr(service, "missing", "default") == "default"
    assert not hasattr(service, "missing")
    # A deferred field is found, as a copy.
    assert getattr(service, "log", None) == [1]
    assert service.log is not state["log"]


def test_two_steps_in_a_row_from_a_handed_over_checkpoint():
    state = {"log": [], "total": 0}
    first, oracle_first, explorer = _both(Appender, state, 3)
    event = DeliverAction(src=0, dst=1, msg=Put(n=4))
    second, _, _ = explorer.sandbox_step(1, first, event, 0.0, [])
    oracle_second, _, _ = eager_sandbox_step(Appender, 1, oracle_first, event, 0.0, [])
    assert second == oracle_second == {"log": [3, 4], "total": 7}
    assert first == {"log": [3], "total": 3}
    assert state == {"log": [], "total": 0}


def test_live_state_hands_over_untouched_fields_and_the_copies_of_touched_ones():
    state = {"log": [1], "total": 1}
    service = Appender(1)
    service.defer_copies()
    service.restore(state)
    untouched = service.live_state()
    assert untouched == state and untouched["log"] is state["log"]
    service.log.append(2)
    touched = service.live_state()
    assert touched == {"log": [1, 2], "total": 1} and touched["log"] is service.log
    assert state == {"log": [1], "total": 1}
    # A checkpoint of a sandbox instance is still a copy.
    assert service.checkpoint() == touched and service.checkpoint()["log"] is not service.log


def test_live_services_keep_a_class_without_an_attribute_hook():
    # A __getattr__ on a class makes every attribute read of its
    # instances slower; only pooled sandbox instances carry one, and a
    # live restore copies eagerly.
    cluster = Cluster(2, stack_factory(), seed=1)
    cluster.start_all()
    cluster.run(until=2.5)
    live = cluster.service(0)
    saved = live.checkpoint()
    live.restore(saved)
    for service in (live, *live.layers.values()):
        assert not hasattr(type(service), "__getattr__")
    assert live.layer("counter").targets is not saved["counter"]["targets"]
    pooled = Explorer(stack_factory()).materialize(0, saved)
    assert not hasattr(type(pooled), "__getattr__")
    for name, layer in pooled.layers.items():
        assert hasattr(type(layer), "__getattr__")
        assert isinstance(layer, type(live.layer(name)))
