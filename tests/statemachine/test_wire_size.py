"""``Message.wire_size`` without per-call reflection.

The field names of a message class are looked up once; the estimate
itself must stay what the reflective walk produced, for every message
class the protocols ship.  A warm world is then run a little further to
check that the hop path no longer reflects, and no longer asks the
topology about pairs it already knows.
"""

import dataclasses
import importlib
import pkgutil

import repro.apps
import repro.net.membership
from repro.apps.gossip import GossipConfig, make_view_gossip_factory
from repro.choice.resolvers import RandomResolver
from repro.net import Topology, ViewConfig
from repro.statemachine import Cluster, Message
from repro.statemachine import messages as messages_module


def reflective_wire_size(msg) -> int:
    """The estimate as ``Message.wire_size`` computed it before the
    field-name cache: one ``dataclasses.fields`` walk per call."""
    size = 64
    for f in dataclasses.fields(msg):
        value = getattr(msg, f.name)
        if isinstance(value, (bytes, str)):
            size += len(value)
        elif isinstance(value, (list, tuple, set, frozenset, dict)):
            size += 8 * max(1, len(value))
        else:
            size += 8
    return size


def shipped_message_classes():
    for info in pkgutil.walk_packages(repro.apps.__path__, "repro.apps."):
        importlib.import_module(info.name)
    found, stack = [], [Message]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith(("repro.apps.", "repro.net.membership")):
                found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


SAMPLES = (7, 2.5, None, True, "x" * 33, b"\x00" * 9, [], [1, 2, 3], (4, 5), {6}, frozenset(),
           {"k": [1], "j": 2})


def test_wire_size_matches_the_reflective_oracle_for_every_shipped_message():
    checked = 0
    for cls in shipped_message_classes():
        if cls.wire_size is not Message.wire_size:
            continue                    # sized by the application (bulk payloads)
        names = [f.name for f in dataclasses.fields(cls)]
        for shift in range(len(SAMPLES)):
            values = {name: SAMPLES[(shift + i) % len(SAMPLES)] for i, name in enumerate(names)}
            msg = cls(**values)
            assert msg.wire_size() == reflective_wire_size(msg), (cls, values)
        checked += 1
    assert checked >= 20                # membership's nine plus the paxos/randtree families


def test_subclass_fields_are_not_confused_with_the_base_class():
    @dataclasses.dataclass
    class One(Message):
        a: int

    @dataclasses.dataclass
    class Two(One):
        b: str = ""

    assert One(a=1).wire_size() == 72
    assert Two(a=1, b="x" * 10).wire_size() == 82
    assert One(a=1).wire_size() == 72


def test_warm_world_neither_reflects_nor_reasks_known_links(monkeypatch):
    n = 16
    config = GossipConfig(n=n, rumor_count=2, publish_interval=0.1)
    cluster = Cluster(n, make_view_gossip_factory(config, ViewConfig()), seed=4,
                      resolver_factory=lambda node_id: RandomResolver(4))
    cluster.sim.trace.enabled = False
    cluster.start_all()
    cluster.run(until=3.0)
    network = cluster.network
    warm = set(network._paths)
    sent_before = network.messages_sent
    assert len(warm) > n

    reflections, asked = [], []
    real_fields, real_link = dataclasses.fields, Topology.link

    def counting_fields(obj):
        reflections.append(type(obj))
        return real_fields(obj)

    def counting_link(self, src, dst):
        asked.append((src, dst))
        return real_link(self, src, dst)

    monkeypatch.setattr(dataclasses, "fields", counting_fields)
    monkeypatch.setattr(messages_module, "fields", counting_fields, raising=False)
    monkeypatch.setattr(Topology, "link", counting_link)
    cluster.run(until=4.0)

    assert network.messages_sent - sent_before > 100
    assert reflections == []
    assert [pair for pair in asked if pair in warm] == []
    assert len(asked) == len(set(asked)) == len(network._paths) - len(warm)
