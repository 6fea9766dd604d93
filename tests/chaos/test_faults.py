"""Link-level fault injection: profiles, flaps, the interposer hook."""

import pytest

from repro.chaos import (
    ChaosError,
    CorruptedPayload,
    FaultDecision,
    FlapSpec,
    LinkChaos,
    LinkFaultProfile,
    NULL_PROFILE,
)
from repro.net import Network, full_mesh
from repro.sim import LivenessRegistry, Simulator


def make_net(n=3, seed=7, latency=0.05):
    sim = Simulator(seed=seed)
    net = Network(sim, full_mesh(n, latency=latency), LivenessRegistry())
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        net.attach(i, lambda src, dst, payload, i=i: inboxes[i].append(payload))
    return sim, net, inboxes


class TestLinkFaultProfile:
    def test_probabilities_validated(self):
        with pytest.raises(ChaosError):
            LinkFaultProfile(drop=1.0)
        with pytest.raises(ChaosError):
            LinkFaultProfile(corrupt=-0.1)
        with pytest.raises(ChaosError):
            LinkFaultProfile(reorder=0.1, reorder_jitter=0.0)

    def test_null_profile(self):
        assert NULL_PROFILE.is_null
        assert not LinkFaultProfile(drop=0.1).is_null


class TestFlapSpec:
    def test_down_during_duty_fraction(self):
        flap = FlapSpec(a=0, b=1, start=2.0, period=2.0, duty=0.5, until=10.0)
        assert not flap.is_down(1.9)      # before start
        assert flap.is_down(2.5)          # first down-phase
        assert not flap.is_down(3.5)      # up-phase
        assert flap.is_down(4.1)          # next period's down-phase
        assert not flap.is_down(10.0)     # expired

    def test_is_pure_function_of_time(self):
        flap = FlapSpec(a=0, b=1, period=1.0, duty=0.3)
        assert [flap.is_down(t / 10) for t in range(20)] == \
               [flap.is_down(t / 10) for t in range(20)]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ChaosError):
            FlapSpec(a=0, b=1, period=0.0)
        with pytest.raises(ChaosError):
            FlapSpec(a=0, b=1, duty=1.0)


class TestLinkChaos:
    def test_null_by_default(self):
        sim, net, _ = make_net()
        chaos = LinkChaos(sim)
        assert chaos.apply(0, 1, "m", 0.0) is None

    def test_drop_probability_applies(self):
        sim, net, inboxes = make_net()
        chaos = LinkChaos(sim)
        chaos.set_profile(LinkFaultProfile(drop=0.5))
        net.add_fault_interposer(chaos)
        for _ in range(100):
            net.send(0, 1, "m", reliable=False)
        sim.run()
        assert 0 < len(inboxes[1]) < 100
        assert chaos.stats["dropped"] == 100 - len(inboxes[1])

    def test_drop_applies_to_reliable_sends_too(self):
        # Chaos drops model adversarial loss the TCP abstraction cannot
        # mask — unlike link.loss, they hit reliable traffic as well.
        sim, net, inboxes = make_net()
        chaos = LinkChaos(sim)
        chaos.set_profile(LinkFaultProfile(drop=0.9))
        net.add_fault_interposer(chaos)
        for _ in range(50):
            net.send(0, 1, "m", reliable=True)
        sim.run()
        assert len(inboxes[1]) < 50

    def test_duplicate_delivers_extra_copy(self):
        sim, net, inboxes = make_net()
        chaos = LinkChaos(sim)
        chaos.set_profile(LinkFaultProfile(duplicate=0.99))
        net.add_fault_interposer(chaos)
        net.send(0, 1, "m", reliable=False)
        sim.run()
        assert len(inboxes[1]) == 2
        assert net.messages_duplicated == 1

    def test_corrupt_replaces_payload_with_marker(self):
        sim, net, inboxes = make_net()
        chaos = LinkChaos(sim)
        chaos.set_profile(LinkFaultProfile(corrupt=0.99))
        net.add_fault_interposer(chaos)
        net.send(0, 1, "precious", reliable=False)
        sim.run()
        [received] = inboxes[1]
        assert isinstance(received, CorruptedPayload)
        assert received.original_type == "str"

    def test_reorder_lets_later_send_overtake(self):
        sim, net, inboxes = make_net(latency=0.05)
        chaos = LinkChaos(sim)
        # First message displaced by ~0.5s, second untouched.
        class OneShot:
            fired = False
            def apply(self, src, dst, payload, now):
                if not self.fired:
                    self.fired = True
                    return FaultDecision(extra_delay=0.5)
                return None
        net.add_fault_interposer(OneShot())
        net.send(0, 1, "first", reliable=True)
        net.send(0, 1, "second", reliable=True)
        sim.run()
        assert inboxes[1] == ["second", "first"]

    def test_per_pair_profile_overrides_default(self):
        sim, net, _ = make_net()
        chaos = LinkChaos(sim)
        chaos.set_profile(LinkFaultProfile(drop=0.1))
        chaos.set_profile(LinkFaultProfile(drop=0.5), 0, 2)
        assert chaos.profile_for(0, 1).drop == 0.1
        assert chaos.profile_for(2, 0).drop == 0.5  # unordered pair

    def test_flap_drops_while_down(self):
        sim, net, inboxes = make_net()
        chaos = LinkChaos(sim)
        chaos.add_flap(FlapSpec(a=0, b=1, start=0.0, period=2.0, duty=0.5))
        net.add_fault_interposer(chaos)
        net.send(0, 1, "down-phase", reliable=False)   # t=0: down
        sim.schedule_at(1.5, lambda: net.send(0, 1, "up-phase", reliable=False))
        sim.run()
        assert inboxes[1] == ["up-phase"]
        assert chaos.stats["flap_dropped"] == 1

    def test_slow_node_delays_inbound(self):
        sim, net, inboxes = make_net(latency=0.05)
        chaos = LinkChaos(sim)
        chaos.set_slow(1, 1.0)
        net.add_fault_interposer(chaos)
        arrivals = []
        net.attach(1, lambda src, dst, payload: arrivals.append(sim.now))
        net.send(0, 1, "m", reliable=False)
        net.send(0, 2, "m", reliable=False)
        sim.run()
        assert arrivals[0] > 1.0
        chaos.set_slow(1, None)
        assert chaos.slow_delay(1) == 0.0

    def test_same_seed_same_fault_pattern(self):
        outcomes = []
        for _ in range(2):
            sim, net, inboxes = make_net(seed=11)
            chaos = LinkChaos(sim)
            chaos.set_profile(LinkFaultProfile(drop=0.3, duplicate=0.2,
                                               reorder=0.2))
            net.add_fault_interposer(chaos)
            for _ in range(50):
                net.send(0, 1, "m", reliable=False)
            sim.run()
            outcomes.append((len(inboxes[1]), dict(chaos.stats)))
        assert outcomes[0] == outcomes[1]

