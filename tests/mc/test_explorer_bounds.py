"""Explorer bounding behaviour: choice-variant caps, unknown targets,
the worlds a depth-bounded search holds."""

import weakref
from collections import Counter
from dataclasses import dataclass

from repro.mc import Explorer, InFlightMessage, WorldState
from repro.mc import explorer as explorer_module
from repro.statemachine import Message, Service, msg_handler

from .test_bfs_reduction import settled_join_world


@dataclass
class Fanout(Message):
    rounds: int


class WideChooser(Service):
    """A handler with several sequential wide choices (variant blow-up)."""

    state_fields = ("picks",)

    def __init__(self, node_id):
        super().__init__(node_id)
        self.picks = []

    @msg_handler(Fanout)
    def on_fanout(self, src, msg):
        for _ in range(msg.rounds):
            self.picks.append(self.choose("wide", list(range(4))))


def make_world(factory, msg, n=2):
    states = {i: factory(i).checkpoint() for i in range(n)}
    return WorldState(node_states=states, inflight=[InFlightMessage(0, 1, msg)])


def test_variants_enumerate_fully_when_small():
    explorer = Explorer(WideChooser)
    world = make_world(WideChooser, Fanout(rounds=1))
    action = explorer.enabled_actions(world)[0]
    successors = explorer.successors(world, action)
    assert len(successors) == 4
    picks = {tuple(s.state_of(1)["picks"]) for s in successors}
    assert picks == {(0,), (1,), (2,), (3,)}


def test_variant_cap_bounds_blowup(monkeypatch):
    # 3 sequential 4-way choices = 64 full variants; cap at 10 expansions.
    monkeypatch.setattr(explorer_module, "MAX_CHOICE_VARIANTS", 10)
    explorer = Explorer(WideChooser)
    world = make_world(WideChooser, Fanout(rounds=3))
    action = explorer.enabled_actions(world)[0]
    successors = explorer.successors(world, action)
    assert 0 < len(successors) < 64


def test_unknown_destination_not_enabled():
    explorer = Explorer(WideChooser)
    states = {0: WideChooser(0).checkpoint()}  # node 7 unknown
    world = WorldState(
        node_states=states,
        inflight=[InFlightMessage(0, 7, Fanout(rounds=1))],
    )
    assert explorer.enabled_actions(world) == []


def test_successors_do_not_mutate_input_world():
    explorer = Explorer(WideChooser)
    world = make_world(WideChooser, Fanout(rounds=1))
    digest = world.digest()
    explorer.successors(world, explorer.enabled_actions(world)[0])
    assert world.digest() == digest
    assert len(world.inflight) == 1


def test_bfs_holds_no_world_at_the_depth_bound(monkeypatch):
    # A settled 15-node tree with one join in flight: most states sit at
    # the bound (1 / 16 / 152 / 1,326 by depth).  They are checked when
    # found and then dropped, so the worlds alive at once stay below the
    # count of states above the bound.
    root, make_explorer = settled_join_world(n=15)
    live = weakref.WeakSet()
    high_water = [0]
    init = WorldState.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)
        high_water[0] = max(high_water[0], len(live))

    monkeypatch.setattr(WorldState, "__init__", tracking)
    explorer = make_explorer()
    depths = Counter()
    check = explorer.check

    def counting(world):
        depths[world.depth - root.depth] += 1
        return check(world)

    explorer.check = counting
    result = explorer.bfs(root, max_depth=3, max_states=20_000)
    assert not result.truncated and result.max_depth == 3
    above = sum(count for depth, count in depths.items() if depth < 3)
    assert depths[3] > above
    assert high_water[0] < above + 8, (high_water[0], dict(depths))
