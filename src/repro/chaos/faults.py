"""Adversarial message-level fault injection.

The base network models *benign* imperfection: latency, bandwidth,
independent loss, clean crash-stop.  Real deployments also face the
adversarial end of the spectrum — duplicated and reordered datagrams,
flapping links, corrupted payloads — and CrystalBall's claim is that a
predictive runtime keeps protocols safe under exactly this adversity.

:class:`LinkChaos` is a *fault interposer*: the transport consults it on
every send (``Network.add_fault_interposer``) and applies the returned
:class:`FaultDecision` — drop, duplicate, delay (reorder), or payload
replacement.  All randomness flows through named RNG streams of the
simulator (``chaos.drop``, ``chaos.duplicate``, ...), so a chaos run is
a pure function of ``(configuration, seed)`` and every trace is
replayable bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


class ChaosError(ValueError):
    """Raised for invalid fault configurations.

    A :class:`ValueError` subclass so callers validating plans and
    events can catch either the chaos-specific type or the plain
    built-in — invalid schedules fail fast at construction/arm time
    with a clear message instead of deep inside the controller.
    """


@dataclass
class FaultDecision:
    """What the fault layer does to one send.

    ``duplicates`` extra copies are delivered ``duplicate_delays``
    seconds after the primary copy; ``extra_delay`` displaces the
    primary copy itself (the transport treats a displaced reliable
    message as reordered: it skips the FIFO in-order clamp).
    ``replace`` substitutes the delivered payload (corruption marker).
    """

    drop: bool = False
    reason: str = "chaos"
    duplicates: int = 0
    duplicate_delays: Tuple[float, ...] = ()
    extra_delay: float = 0.0
    replace: Any = None


@dataclass
class CorruptedPayload:
    """Marker delivered in place of a corrupted message.

    Services have no handler registered for it, so dispatch falls into
    the unhandled-message path (traced and ignored) — the corruption is
    *detected* at the application boundary, modelling a checksum-failed
    datagram rather than silent bit-rot.
    """

    original_type: str
    src: int
    dst: int


@dataclass(frozen=True)
class LinkFaultProfile:
    """Per-link fault probabilities.

    :param drop: probability a message is silently dropped.
    :param duplicate: probability one extra copy is delivered.
    :param reorder: probability the message is displaced by a uniform
        extra delay in ``(0, reorder_jitter]`` (bounded jitter), which
        lets it overtake or be overtaken by neighbouring traffic.
    :param corrupt: probability the payload is replaced by a
        :class:`CorruptedPayload` marker.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_jitter: float = 0.05
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder", "corrupt"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ChaosError(f"{name} probability must be in [0, 1), got {p!r}")
        if self.reorder_jitter <= 0.0:
            raise ChaosError(f"reorder_jitter must be positive, got {self.reorder_jitter!r}")

    @property
    def is_null(self) -> bool:
        return not (self.drop or self.duplicate or self.reorder or self.corrupt)


NULL_PROFILE = LinkFaultProfile()


@dataclass(frozen=True)
class FlapSpec:
    """A periodically failing (flapping) link.

    From ``start`` until ``until`` (forever when ``None``), the link is
    down for the first ``duty`` fraction of every ``period`` seconds —
    a deterministic function of simulated time, so flap schedules need
    no event-queue traffic and replay exactly.
    """

    a: int
    b: int
    start: float = 0.0
    period: float = 2.0
    duty: float = 0.5
    until: Optional[float] = None

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ChaosError(f"flap period must be positive, got {self.period!r}")
        if not 0.0 < self.duty < 1.0:
            raise ChaosError(f"flap duty must be in (0, 1), got {self.duty!r}")

    def is_down(self, now: float) -> bool:
        """Whether the link is in a down-phase at simulated ``now``."""
        if now < self.start or (self.until is not None and now >= self.until):
            return False
        return (now - self.start) % self.period < self.duty * self.period


def _pair(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class LinkChaos:
    """Per-link fault interposer driven by named RNG streams.

    One instance is installed on the network; profiles can target a
    default (all links) plus per-pair overrides, flaps are registered
    per unordered pair, and slow nodes add a fixed processing delay to
    every message *toward* them.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.default_profile: LinkFaultProfile = NULL_PROFILE
        self._profiles: Dict[Tuple[int, int], LinkFaultProfile] = {}
        self._flaps: List[FlapSpec] = []
        self._slow: Dict[int, float] = {}
        # One named stream per fault kind, resolved once: a stream's
        # draws depend on (seed, name) only, never on when it was made.
        stream = sim.rng.stream
        self._drop_rng = stream("chaos.drop")
        self._duplicate_rng = stream("chaos.duplicate")
        self._reorder_rng = stream("chaos.reorder")
        self._corrupt_rng = stream("chaos.corrupt")
        self._counts = dict.fromkeys(
            ("dropped", "duplicated", "reordered", "corrupted", "flap_dropped"), 0)

    @property
    def stats(self) -> Dict[str, int]:
        """Faults injected so far, by kind."""
        return dict(self._counts)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def set_profile(
        self,
        profile: LinkFaultProfile,
        a: Optional[int] = None,
        b: Optional[int] = None,
    ) -> None:
        """Install ``profile`` for the unordered pair ``(a, b)``, or as
        the default for every link when no pair is given."""
        if a is None or b is None:
            if (a is None) != (b is None):
                raise ChaosError("give both endpoints or neither")
            self.default_profile = profile
            return
        self._profiles[_pair(a, b)] = profile

    def profile_for(self, a: int, b: int) -> LinkFaultProfile:
        """The effective profile on the ``(a, b)`` link."""
        return self._profiles.get(_pair(a, b), self.default_profile)

    def add_flap(self, flap: FlapSpec) -> None:
        """Register a flapping link."""
        self._flaps.append(flap)

    def set_slow(self, node_id: int, delay: Optional[float]) -> None:
        """Add ``delay`` seconds to every delivery toward ``node_id``
        (``None`` clears the slowdown)."""
        if delay is None:
            self._slow.pop(node_id, None)
        elif delay < 0:
            raise ChaosError(f"slow-node delay must be non-negative, got {delay!r}")
        else:
            self._slow[node_id] = delay

    def slow_delay(self, node_id: int) -> float:
        """Current processing slowdown toward ``node_id``."""
        return self._slow.get(node_id, 0.0)

    # ------------------------------------------------------------------
    # The interposer hook (called by Network.send)
    # ------------------------------------------------------------------

    def apply(self, src: int, dst: int, payload: Any, now: float) -> Optional[FaultDecision]:
        """Decide the fate of one send; ``None`` means untouched."""
        for flap in self._flaps:
            if _pair(src, dst) == _pair(flap.a, flap.b) and flap.is_down(now):
                self._counts["flap_dropped"] += 1
                self.sim.trace.record(now, "chaos.flap", node=src, dst=dst)
                return FaultDecision(drop=True, reason="chaos-flap")

        profile = self.profile_for(src, dst)
        extra_delay = 0.0
        slow = self._slow.get(dst, 0.0)
        decision: Optional[FaultDecision] = None
        if not profile.is_null:
            if profile.drop and self._drop_rng.random() < profile.drop:
                self._counts["dropped"] += 1
                self.sim.trace.record(now, "chaos.drop", node=src, dst=dst,
                                      kind=type(payload).__name__)
                return FaultDecision(drop=True, reason="chaos-drop")
            decision = FaultDecision()
            if profile.duplicate and self._duplicate_rng.random() < profile.duplicate:
                decision.duplicates = 1
                decision.duplicate_delays = (
                    self._duplicate_rng.uniform(0.0, profile.reorder_jitter),)
                self._counts["duplicated"] += 1
                self.sim.trace.record(now, "chaos.duplicate", node=src, dst=dst,
                                      kind=type(payload).__name__)
            if profile.reorder and self._reorder_rng.random() < profile.reorder:
                extra_delay += self._reorder_rng.uniform(0.0, profile.reorder_jitter)
                self._counts["reordered"] += 1
                self.sim.trace.record(now, "chaos.reorder", node=src, dst=dst,
                                      kind=type(payload).__name__)
            if profile.corrupt and self._corrupt_rng.random() < profile.corrupt:
                decision.replace = CorruptedPayload(
                    original_type=type(payload).__name__, src=src, dst=dst,
                )
                self._counts["corrupted"] += 1
                self.sim.trace.record(now, "chaos.corrupt", node=src, dst=dst,
                                      kind=type(payload).__name__)
        if slow > 0.0:
            extra_delay += slow
        if decision is None and extra_delay == 0.0:
            return None
        if decision is None:
            decision = FaultDecision()
        decision.extra_delay = extra_delay
        return decision

    def __repr__(self) -> str:
        return (
            f"LinkChaos(profiles={len(self._profiles)}, flaps={len(self._flaps)}, "
            f"slow={sorted(self._slow)}, stats={self.stats})"
        )


__all__ = [
    "ChaosError",
    "FaultDecision",
    "CorruptedPayload",
    "LinkFaultProfile",
    "NULL_PROFILE",
    "FlapSpec",
    "LinkChaos",
]
