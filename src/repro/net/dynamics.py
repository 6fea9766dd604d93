"""Time-varying network conditions.

Section 3.1 motivates choices with "choosing how to adapt to a change
in the underlying network"; Section 3.3 with models that must be kept
"up-to-date".  :class:`LinkDynamics` makes the substrate actually
change: it perturbs link latencies over simulated time (random
congestion episodes), so adaptive mechanisms
have something real to adapt to and EWMA models have something real to
track.

Topology objects are shared by reference with the transport, so an
installed change affects every subsequent send immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..sim import Simulator
from .link import Link
from .topology import Topology


@dataclass
class CongestionEpisode:
    """One transient slowdown on a pair of nodes."""

    a: int
    b: int
    started_at: float
    ends_at: float
    original: Link


class LinkDynamics:
    """Random transient congestion on a live topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        period: float = 2.0,
        episode_duration: float = 4.0,
        latency_factor: float = 5.0,
        bandwidth_factor: float = 0.25,
        episode_probability: float = 0.5,
        focus_node: Optional[int] = None,
        stream: str = "net.dynamics",
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.period = period
        self.episode_duration = episode_duration
        self.latency_factor = latency_factor
        self.bandwidth_factor = bandwidth_factor
        self.episode_probability = episode_probability
        # With a focus node, every episode hits one of its links — the
        # "my access link is congested" scenario.
        self.focus_node = focus_node
        self._rng = sim.rng.stream(stream)
        self.active: List[CongestionEpisode] = []
        self.episodes_started = 0

    def start(self) -> None:
        """Begin the periodic congestion process."""
        self._running = True
        self.sim.schedule(self.period, self._tick, tag="net.dynamics")

    def stop(self) -> None:
        """Stop creating new episodes (active ones still end normally)."""
        self._running = False

    def _tick(self) -> None:
        if not getattr(self, "_running", False):
            return
        if self._rng.random() < self.episode_probability:
            self._start_episode()
        self.sim.schedule(self.period, self._tick, tag="net.dynamics")

    def _pick_pair(self) -> Tuple[int, int]:
        n = self.topology.n
        if self.focus_node is not None:
            a = self.focus_node
        else:
            a = self._rng.randrange(n)
        b = self._rng.randrange(n - 1)
        if b >= a:
            b += 1
        return a, b

    def _start_episode(self) -> None:
        a, b = self._pick_pair()
        busy = {(e.a, e.b) for e in self.active} | {(e.b, e.a) for e in self.active}
        if (a, b) in busy:
            return  # never stack episodes: the saved "original" must be clean
        original = self.topology.link(a, b)
        congested = Link(
            latency=original.latency * self.latency_factor,
            bandwidth=max(1.0, original.bandwidth * self.bandwidth_factor),
            loss=original.loss,
        )
        self.topology.set_symmetric(a, b, congested)
        episode = CongestionEpisode(
            a=a, b=b, started_at=self.sim.now,
            ends_at=self.sim.now + self.episode_duration, original=original,
        )
        self.active.append(episode)
        self.episodes_started += 1
        self.sim.trace.record(self.sim.now, "net.congestion_start", node=a, peer=b)
        self.sim.schedule(
            self.episode_duration, lambda: self._end_episode(episode),
            tag="net.dynamics.end",
        )

    def _end_episode(self, episode: CongestionEpisode) -> None:
        self.topology.set_symmetric(episode.a, episode.b, episode.original)
        if episode in self.active:
            self.active.remove(episode)
        self.sim.trace.record(
            self.sim.now, "net.congestion_end", node=episode.a, peer=episode.b,
        )


__all__ = ["LinkDynamics", "CongestionEpisode"]
