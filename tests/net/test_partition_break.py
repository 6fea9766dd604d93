"""Interactions between connection breaking and partitions.

Steering breaks connections while chaos plans partition the network;
the two mechanisms must compose: partitions drop at send time, breaks
invalidate in-flight traffic by epoch, and neither resets the other.
"""

from repro.net import Network, full_mesh
from repro.sim import LivenessRegistry, Simulator


def make_net(n=4, latency=0.5):
    sim = Simulator(seed=6)
    net = Network(sim, full_mesh(n, latency=latency), LivenessRegistry())
    inboxes = {i: [] for i in range(n)}
    broken = {i: [] for i in range(n)}
    for i in range(n):
        net.attach(
            i,
            lambda src, dst, payload, i=i: inboxes[i].append(payload),
            lambda peer, i=i: broken[i].append(peer),
        )
    return sim, net, inboxes, broken


def drop_reasons(sim):
    return [r.data["reason"] for r in sim.trace.select("net.drop")]


def test_break_then_heal_partition_delivers_on_fresh_epoch():
    sim, net, inboxes, _ = make_net(latency=0.1)
    net.break_connection(0, 1)
    net.set_partition([{0}, {1, 2, 3}])
    net.send(0, 1, "walled")          # dropped: partition wins at send time
    net.clear_partition()
    net.send(0, 1, "after-heal")      # new epoch, no partition: delivered
    sim.run()
    assert inboxes[1] == ["after-heal"]
    assert drop_reasons(sim) == ["partition"]


def test_partition_drop_does_not_touch_connection_epoch():
    sim, net, _, _ = make_net()
    net.set_partition([{0}, {1, 2, 3}])
    net.send(0, 1, "walled")
    assert net.connection_epoch(0, 1) == 0


def test_break_while_partitioned_still_notifies_endpoints():
    # break_connection is a local action on both endpoints; the
    # partition blocks *messages*, not the teardown notification.
    sim, net, _, broken = make_net()
    net.set_partition([{0}, {1, 2, 3}])
    net.break_connection(0, 1)
    assert broken[0] == [1]
    assert broken[1] == [0]
    assert net.connection_epoch(0, 1) == 1


def test_inflight_message_survives_partition_but_not_break():
    # Partitions are enforced at send time only — a message already in
    # flight when the wall goes up still arrives (it already "left").
    # Breaking the connection, by contrast, kills in-flight traffic.
    sim, net, inboxes, _ = make_net(latency=1.0)
    net.send(0, 1, "in-flight")
    net.set_partition([{0}, {1, 2, 3}])
    sim.run()
    assert inboxes[1] == ["in-flight"]

    sim, net, inboxes, _ = make_net(latency=1.0)
    net.send(0, 1, "doomed")
    net.break_connection(0, 1)
    sim.run()
    assert inboxes[1] == []


def test_epoch_monotone_across_partition_cycles():
    sim, net, _, _ = make_net()
    epochs = [net.connection_epoch(0, 1)]
    net.break_connection(0, 1)
    epochs.append(net.connection_epoch(0, 1))
    net.set_partition([{0, 1}, {2, 3}])
    net.break_connection(1, 0)        # same pair, opposite order
    epochs.append(net.connection_epoch(0, 1))
    net.clear_partition()
    epochs.append(net.connection_epoch(0, 1))
    net.break_connection(0, 1)
    epochs.append(net.connection_epoch(0, 1))
    assert epochs == [0, 1, 2, 2, 3]  # never reset by partition changes
    assert net.connection_epoch(2, 3) == 0  # other pairs untouched


def test_breaks_are_per_pair_under_partition():
    sim, net, inboxes, _ = make_net(latency=0.1)
    net.set_partition([{0, 1, 2}, {3}])
    net.send(0, 1, "a")
    net.send(0, 2, "b")
    net.break_connection(0, 1)
    sim.run()
    assert inboxes[1] == []
    assert inboxes[2] == ["b"]


def test_nodes_outside_every_group_form_implicit_group():
    sim, net, inboxes, _ = make_net(latency=0.1)
    net.set_partition([{0, 1}])       # 2 and 3 are in the implicit rest
    net.send(2, 3, "rest-to-rest")
    net.send(0, 2, "listed-to-rest")
    net.send(3, 1, "rest-to-listed")
    net.send(0, 1, "listed-to-listed")
    sim.run()
    assert inboxes[3] == ["rest-to-rest"]
    assert inboxes[2] == []
    assert inboxes[1] == ["listed-to-listed"]
    assert drop_reasons(sim) == ["partition", "partition"]


def test_implicit_group_follows_each_installed_partition():
    # The node -> group table is built per set_partition and dropped by
    # clear_partition: a node unlisted in one partition may be listed in
    # the next, and nobody is walled off once healed.
    sim, net, inboxes, _ = make_net(n=5, latency=0.1)
    net.set_partition([{0}, {1}])     # 2, 3, 4 implicit
    net.send(2, 4, "rest-1")
    net.send(2, 0, "walled-1")
    net.set_partition([{2, 0}])       # now 1, 3, 4 implicit
    net.send(2, 0, "together-2")
    net.send(2, 4, "walled-2")
    net.send(1, 3, "rest-2")
    net.clear_partition()
    net.send(2, 4, "healed")
    sim.run()
    assert inboxes[0] == ["together-2"]
    assert inboxes[3] == ["rest-2"]
    assert inboxes[4] == ["rest-1", "healed"]
    assert drop_reasons(sim) == ["partition", "partition"]
