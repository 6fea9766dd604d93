"""The chaos controller: arms a :class:`FaultPlan` against a cluster.

The controller owns one :class:`~repro.chaos.faults.LinkChaos`
interposer (installed on the cluster's raw network), schedules every
plan event on the deterministic simulator, and models stable storage
for crash-recovery: while a node is up its state is snapshotted every
``checkpoint_period`` simulated seconds, and a non-amnesia recovery
restores the last snapshot — everything since is lost, which is the
adversity the recovery protocol must absorb.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .faults import FlapSpec, LinkChaos, LinkFaultProfile
from .plan import (
    ClockSkewEvent,
    CrashEvent,
    FaultPlan,
    FlapEvent,
    LinkFaultEvent,
    PartitionEvent,
    SlowNodeEvent,
)


class ChaosController:
    """Drives a fault plan against a live cluster.

    ``cluster`` is any object with ``sim``, ``network`` (the raw
    :class:`~repro.net.Network`), and ``nodes`` (indexable by id) — a
    :class:`~repro.statemachine.Cluster` in practice.
    """

    def __init__(
        self,
        cluster,
        plan: Optional[FaultPlan] = None,
        checkpoint_period: float = 0.0,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.plan = plan if plan is not None else FaultPlan()
        self.checkpoint_period = checkpoint_period
        self.link_chaos = LinkChaos(self.sim)
        self.network.add_fault_interposer(self.link_chaos)
        self._saved_checkpoints: Dict[int, Any] = {}
        self._armed = False

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every plan event (idempotent; call before running).

        Validates the plan against the cluster first: an event naming a
        node outside the world raises :class:`ChaosError` here, not an
        ``IndexError`` mid-run.
        """
        if self._armed:
            return
        self.plan.validate(n_nodes=len(self.cluster.nodes))
        self._armed = True
        for event in self.plan.events:
            self._arm_event(event)
        if self.checkpoint_period > 0:
            self.sim.schedule(
                self.checkpoint_period, self._checkpoint_tick, tag="chaos.checkpoint",
            )

    def _arm_event(self, event) -> None:
        if isinstance(event, PartitionEvent):
            groups = [set(g) for g in event.groups]
            self._at(event.at, lambda: self._partition(groups), "partition")
            if event.heal_at is not None:
                self._at(event.heal_at, self._heal, "heal")
        elif isinstance(event, FlapEvent):
            # Flaps are pure functions of time: register now, active
            # from event.at.
            self.link_chaos.add_flap(FlapSpec(
                a=event.a, b=event.b, start=event.at, period=event.period,
                duty=event.duty, until=event.until,
            ))
            self._at(event.at, lambda: self._trace(
                "chaos.flap_start", a=event.a, b=event.b, period=event.period,
            ), "flap")
        elif isinstance(event, CrashEvent):
            self._at(event.at, lambda: self._crash(event), "crash")
            if event.recover_at is not None:
                self._at(event.recover_at, lambda: self._recover(event), "recover")
        elif isinstance(event, LinkFaultEvent):
            profile = LinkFaultProfile(
                drop=event.drop, duplicate=event.duplicate, reorder=event.reorder,
                reorder_jitter=event.reorder_jitter, corrupt=event.corrupt,
            )
            self._at(event.at, lambda: self._set_profile(event, profile), "link")
        elif isinstance(event, SlowNodeEvent):
            self._at(event.at, lambda: self._slow(event.node, event.delay), "slow")
            if event.until is not None:
                self._at(event.until, lambda: self._slow(event.node, None), "unslow")
        elif isinstance(event, ClockSkewEvent):
            self._at(event.at, lambda: self._skew(event.node, event.offset), "skew")
        else:
            raise TypeError(f"unknown fault event {event!r}")

    def _at(self, time: float, callback, tag: str) -> None:
        self.sim.schedule_at(max(time, self.sim.now), callback, tag=f"chaos.{tag}")

    # ------------------------------------------------------------------
    # Event actions
    # ------------------------------------------------------------------

    def _trace(self, category: str, **data) -> None:
        self.sim.trace.record(self.sim.now, category, **data)

    def _partition(self, groups) -> None:
        self.network.set_partition(groups)
        self._trace("chaos.partition", groups=[sorted(g) for g in groups])

    def _heal(self) -> None:
        self.network.clear_partition()
        self._trace("chaos.heal")

    def _crash(self, event: CrashEvent) -> None:
        node = self.cluster.nodes[event.node]
        if not node.is_up:
            return
        node.crash()
        self._trace("chaos.crash", node_id=event.node, amnesia=event.amnesia)

    def _recover(self, event: CrashEvent) -> None:
        node = self.cluster.nodes[event.node]
        if node.is_up:
            return
        if event.amnesia:
            node.restart(fresh_state=True)
        else:
            # Crash-recovery: restore the last periodic checkpoint.  With
            # no checkpointing configured this degrades to perfect stable
            # storage (resume from the crash-time state) — what protocols
            # like Paxos, whose safety hinges on persisted promises,
            # assume of their acceptors.
            saved = self._saved_checkpoints.get(event.node)
            node.restart(fresh_state=False, checkpoint=saved)
        self._trace("chaos.recover", node_id=event.node, amnesia=event.amnesia,
                    from_checkpoint=not event.amnesia
                    and event.node in self._saved_checkpoints)

    def _set_profile(self, event: LinkFaultEvent, profile: LinkFaultProfile) -> None:
        self.link_chaos.set_profile(profile, event.a, event.b)
        self._trace("chaos.link_profile", a=event.a, b=event.b,
                    drop=profile.drop, duplicate=profile.duplicate,
                    reorder=profile.reorder, corrupt=profile.corrupt)

    def _slow(self, node_id: int, delay) -> None:
        self.link_chaos.set_slow(node_id, delay)
        self._trace("chaos.slow", node_id=node_id, delay=delay)

    def _skew(self, node_id: int, offset: float) -> None:
        self.cluster.nodes[node_id].clock_skew = offset
        self._trace("chaos.skew", node_id=node_id, offset=offset)

    # ------------------------------------------------------------------
    # Stable-storage model for crash-recovery
    # ------------------------------------------------------------------

    def _checkpoint_tick(self) -> None:
        for node in self.cluster.nodes:
            if node.is_up:
                self._saved_checkpoints[node.node_id] = node.service.checkpoint()
        self.sim.schedule(
            self.checkpoint_period, self._checkpoint_tick, tag="chaos.checkpoint",
        )

    def saved_checkpoint(self, node_id: int):
        """The last persisted checkpoint for ``node_id`` (or ``None``)."""
        return self._saved_checkpoints.get(node_id)

    def stats(self) -> Dict[str, int]:
        """Aggregate chaos statistics (link faults injected so far)."""
        return self.link_chaos.stats

    def __repr__(self) -> str:
        return (
            f"ChaosController(plan={self.plan.name or 'unnamed'!r}, "
            f"events={len(self.plan)}, armed={self._armed})"
        )


__all__ = ["ChaosController"]
