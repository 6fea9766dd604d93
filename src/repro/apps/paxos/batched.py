"""Batched Multi-Paxos with pipelined instances and proactive quorums.

:class:`BatchedPaxosReplica` grows the single-value-per-instance
replica into a production-shaped Multi-Paxos:

* **Batching** — queued commands are pulled, up to a batch size, into
  one instance; the batch (a tuple of commands) is the log value, and
  execution unpacks it.  Batch size is an exposed choice
  (``"batch-size"``): the candidates come from
  ``PaxosConfig.batch_size_choices``, whose first entry (1) is the
  static default a steering-off deployment gets — i.e. the legacy
  one-command-per-decree behaviour.
* **Pipelining** — up to ``pipeline_depth`` own-slot instances may be
  in flight concurrently; the pump keeps pulling batches while there
  is depth to spare.
* **Proposer selection** — each batch may be forwarded to a better
  proposer (the ``"proposer"`` choice), the paper's Section 3.1
  example at batch granularity.
* **Retry pacing** — the retry sweep's effective timeout is scaled by
  the ``"retry-pacing"`` choice, letting the runtime de-synchronize
  dueling proposers when it observes conflict.
* **Proactive quorum reuse** — ownership makes round 0 implicitly
  promised, so the fast path needs no phase 1 at all.  When the
  privilege is lost (a Nack on an own-slot proposal — in practice
  after an amnesia recovery finds higher floors), the replica runs
  *one* ranged prepare (:class:`PrepareRange`) covering all its slots
  from ``from_instance`` to infinity; a promise quorum re-establishes
  phase-1-free operation at the new round until preempted again.
  ``PromiseRange`` replies carry ``max_inst`` so the owner advances
  its instance sequence past the decided prefix (the
  ``instance_seq``/``max_inst`` advancement), and carry the
  acceptors' accepted proposals in the range so undecided instances
  are recovered at the new round.
* **Learner catch-up** — a recovering replica broadcasts
  :class:`QueryLastInstance`, learns how far the log extends, and
  pages decided values in with :class:`Catchup`/:class:`CatchupResponse`
  instead of waiting for gap-fill rounds to close every hole.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ...statemachine import msg_handler, timer_handler
from .messages import (
    Accept,
    Catchup,
    CatchupResponse,
    Command,
    LastInstanceResponse,
    NO_BALLOT,
    NOOP,
    PaxosConfig,
    PrepareRange,
    PromiseRange,
    QueryLastInstance,
    SubmitBurst,
    make_ballot,
    slot_owner,
    unpack_value,
)
from .replica import PaxosReplica


def _plain_value(value):
    """Tuple-ize a decided/accepted value (command or batch) so it is
    hashable and wire-stable."""
    value = tuple(value)
    if value and isinstance(value[0], (tuple, list)):
        if set(map(type, value)) == {tuple}:
            return value  # already a tuple of tuples: nothing to rebuild
        return tuple(tuple(v) for v in value)
    return value


class BatchedPaxosReplica(PaxosReplica):
    """Multi-Paxos replica: batching, pipelining, ranged prepares,
    learner catch-up.  Routing is Mencius-style (own slots) with the
    proposer exposed as a per-batch choice."""

    state_fields = PaxosReplica.state_fields + (
        "pending", "max_inst",
        "phase1_ok", "range_round", "range_from",
        "pending_range_round", "pending_range_from",
        "range_promises", "range_accepted", "range_started_at",
        "range_promised", "recent_conflicts",
    )

    def __init__(self, node_id: int, config: Optional[PaxosConfig] = None) -> None:
        super().__init__(node_id, config)
        # Commands waiting to be pulled into a batch.
        self.pending: deque = deque()
        # Highest instance known to be occupied anywhere (from decided
        # values, accept traffic, and catch-up replies).
        self.max_inst = -1
        # Proposer privilege: round 0 of our own slots is implicitly
        # promised by ownership, so we start phase-1-free.
        self.phase1_ok = True
        self.range_round = 0
        self.range_from = 0
        # In-flight ranged prepare (when phase1_ok is False).
        self.pending_range_round = 0
        self.pending_range_from = 0
        self.range_promises: List[int] = []
        self.range_accepted: Dict[int, list] = {}
        self.range_started_at = 0.0
        # Acceptor side: owner -> [round, from_instance] range grants.
        self.range_promised: Dict[int, list] = {}
        # Decayed conflict counter feeding the batch-size / retry-pacing
        # choices (each preemption bumps it; the housekeeping timer
        # halves it).
        self.recent_conflicts = 0.0

    # ------------------------------------------------------------------
    # Workload intake
    # ------------------------------------------------------------------

    def on_init(self) -> None:
        super().on_init()
        self.set_timer("catchup", self.config.catchup_period)
        # Rejoin protocol: ask everyone how far the log extends.  On a
        # fresh start peers answer max_inst=-1 and this is a no-op.
        self.broadcast(
            [p for p in self._replicas() if p != self.node_id],
            QueryLastInstance(),
        )

    def route_command(self, command: Command) -> None:
        self.submit(command)

    def submit(self, command: Command) -> None:
        """Enqueue one locally-originated command and pump."""
        command = tuple(command)
        if command not in self.my_requests:
            self.my_requests[command] = self.now()
        self.pending.append(command)
        self._pump()

    @msg_handler(SubmitBurst)
    def on_submit_burst(self, src: int, msg: SubmitBurst) -> None:
        now = self.now()
        for command in msg.commands:
            command = tuple(command)
            if msg.origin == self.node_id:
                if command in self.my_requests:
                    continue  # duplicate delivery of a tracked command
                self.my_requests[command] = now
            self.pending.append(command)
        self._pump()

    # ------------------------------------------------------------------
    # The pump: batches, pipelining, proposer selection
    # ------------------------------------------------------------------

    def _own_inflight(self) -> int:
        n = self.config.n
        return sum(1 for i in self.proposals if i % n == self.node_id)

    def _pump(self) -> None:
        """Pull pending commands into batched, pipelined instances."""
        if not self.phase1_ok:
            return  # re-pumped once the ranged prepare completes
        depth = self._own_inflight()
        while self.pending and depth < self.config.pipeline_depth:
            size = self._choose_batch_size(depth)
            batch = tuple(
                self.pending.popleft()
                for _ in range(min(size, len(self.pending)))
            )
            proposer = self._choose_proposer(batch)
            if proposer == self.node_id:
                self.propose(batch)
                depth += 1
            else:
                self.send(proposer, SubmitBurst(commands=batch, origin=self.node_id))

    def _choose_batch_size(self, depth: int) -> int:
        choices = self.config.batch_size_choices
        return self.choose(
            "batch-size", list(choices),
            queue=len(self.pending),
            conflicts=round(self.recent_conflicts, 3),
            inflight=depth,
        )

    def _choose_proposer(self, batch) -> int:
        candidates = [self.node_id] + [
            p for p in self._replicas() if p != self.node_id
        ]
        return self.choose(
            "proposer", candidates,
            origin=self.node_id, size=len(batch),
            queue=len(self.pending),
            conflicts=round(self.recent_conflicts, 3),
        )

    # ------------------------------------------------------------------
    # Phase-1-free coordination at the privileged round
    # ------------------------------------------------------------------

    def _coordinate_in(self, instance: int, value) -> None:
        """Fast-path proposal at the current privileged round.

        Round 0 is safe by ownership; a higher ``range_round`` is safe
        because a promise quorum covers ``[range_from, inf)`` of our
        slots and every accepted value it reported was re-proposed when
        the range was acquired.
        """
        ballot = make_ballot(self.range_round, self.node_id, self.config.n)
        self.proposals[instance] = {
            "ballot": ballot,
            "value": value,
            "proposing": value,
            "phase": "accept",
            "promise_from": [],
            "best_accepted_ballot": NO_BALLOT,
            "best_accepted_value": None,
            "accepted_from": [],
            "started_at": self.now(),
        }
        self.broadcast(
            self._replicas(),
            Accept(instance=instance, ballot=ballot, value=value),
        )

    def _retry_timeout(self) -> float:
        """Effective retry timeout: base timeout scaled by the exposed
        retry-pacing choice (longer pacing de-synchronizes duelists
        when conflict is observed)."""
        choices = self.config.retry_pacing_choices
        pacing = self.choose(
            "retry-pacing", list(choices),
            conflicts=round(self.recent_conflicts, 3),
        )
        return self.config.retry_timeout * pacing

    def _resequence(self, lost_value) -> None:
        """A batch lost its instance to a recovered value: re-enqueue
        its commands (minus anything already applied) instead of
        re-proposing the stale batch wholesale."""
        for command in unpack_value(lost_value):
            if command not in self.applied:
                self.pending.append(command)
        self._pump()

    # ------------------------------------------------------------------
    # Proactive quorum (ranged prepares)
    # ------------------------------------------------------------------

    def _on_preempted(self, instance: int, promised: int) -> None:
        self.recent_conflicts += 1.0
        if slot_owner(instance, self.config.n) != self.node_id:
            return
        # Our own-slot privilege was rejected: re-acquire phase-1
        # freedom at a round beating the observed promise.
        target = promised // self.config.n + 1
        self._acquire_range(max(target, self.range_round + 1,
                                self.pending_range_round + 1))

    def _acquire_range(self, round_number: int) -> None:
        self.phase1_ok = False
        self.pending_range_round = round_number
        self.pending_range_from = self.next_own_round * self.config.n + self.node_id
        self.range_promises = []
        self.range_accepted = {}
        self.range_started_at = self.now()
        self.record("paxos.range_acquire", round=round_number,
                    from_instance=self.pending_range_from)
        self.broadcast(
            self._replicas(),
            PrepareRange(from_instance=self.pending_range_from,
                         round_number=round_number),
        )

    @msg_handler(PrepareRange)
    def on_prepare_range(self, src: int, msg: PrepareRange) -> None:
        granted = self.range_promised.get(src)
        if granted is not None and granted[0] > msg.round_number:
            return  # stale acquisition; the owner's retry will re-bid
        self.range_promised[src] = [msg.round_number, msg.from_instance]
        n = self.config.n
        accepted = {
            i: (acc[0], _plain_value(acc[1]))
            for i, acc in self.accepted.items()
            if i % n == src and i >= msg.from_instance
        }
        self.send(src, PromiseRange(
            round_number=msg.round_number,
            from_instance=msg.from_instance,
            max_inst=self.max_inst,
            accepted=accepted,
        ))

    def _promise_floor(self, instance: int) -> int:
        """Fold ranged promises into the acceptor's floor: a granted
        range is a promise for every owned instance >= its start."""
        floor = super()._promise_floor(instance)
        owner = slot_owner(instance, self.config.n)
        granted = self.range_promised.get(owner)
        if granted is not None and instance >= granted[1]:
            floor = max(floor, make_ballot(granted[0], owner, self.config.n))
        return floor

    @msg_handler(PromiseRange)
    def on_promise_range(self, src: int, msg: PromiseRange) -> None:
        if self.phase1_ok or msg.round_number != self.pending_range_round:
            return
        if src in self.range_promises:
            return
        self.range_promises.append(src)
        self._observe_instance(msg.max_inst)
        for instance, acc in msg.accepted.items():
            instance = int(instance)
            best = self.range_accepted.get(instance)
            if best is None or acc[0] > best[0]:
                self.range_accepted[instance] = [acc[0], _plain_value(acc[1])]
        if len(self.range_promises) < self.config.majority:
            return
        # Quorum: phase 1 is done for every own slot >= range_from,
        # permanently, until the next preemption.
        self.range_round = self.pending_range_round
        self.range_from = self.pending_range_from
        self.phase1_ok = True
        recovered = self.range_accepted
        self.range_accepted = {}
        self.range_promises = []
        self.record("paxos.range_held", round=self.range_round,
                    from_instance=self.range_from, recovered=len(recovered))
        # Re-propose every accepted value the quorum reported, then
        # advance the instance sequence past the occupied prefix,
        # NOOP-filling own slots the quorum proved empty.
        for instance in sorted(recovered):
            if instance not in self.chosen and instance not in self.proposals:
                self._coordinate_in(instance, recovered[instance][1])
        self._advance_instance_seq()
        self._pump()

    def _advance_instance_seq(self) -> None:
        """Advance ``next_own_round`` past ``max_inst``.

        Own slots skipped by the jump are NOOP-filled at the privileged
        round — safe, because the promise quorum reported every
        accepted value at or above ``range_from`` and those were just
        re-proposed."""
        n = self.config.n
        target = (self.max_inst - self.node_id) // n + 1
        while self.next_own_round < target:
            instance = self.next_own_round * n + self.node_id
            self.next_own_round += 1
            if (instance >= self.range_from
                    and instance not in self.chosen
                    and instance not in self.proposals):
                self._coordinate_in(instance, NOOP)

    def _observe_instance(self, instance: int) -> None:
        if instance > self.max_inst:
            self.max_inst = instance

    def _value_chosen(self, instance: int, value) -> None:
        super()._value_chosen(instance, value)
        # A decision frees a pipeline slot: refill it immediately
        # instead of waiting for the next submission to pump.
        if self.pending:
            self._pump()

    # ------------------------------------------------------------------
    # Learner catch-up
    # ------------------------------------------------------------------

    @msg_handler(QueryLastInstance)
    def on_query_last_instance(self, src: int, msg: QueryLastInstance) -> None:
        self.send(src, LastInstanceResponse(max_inst=self.max_inst))

    @msg_handler(LastInstanceResponse)
    def on_last_instance_response(self, src: int, msg: LastInstanceResponse) -> None:
        self._observe_instance(msg.max_inst)

    @timer_handler("catchup")
    def on_catchup_timer(self, payload) -> None:
        # Housekeeping shared by the catch-up loop: decay the conflict
        # signal and retry a stuck ranged prepare.
        self.recent_conflicts *= 0.5
        if (not self.phase1_ok
                and self.now() - self.range_started_at > self.config.retry_timeout):
            self._acquire_range(self.pending_range_round + 1)
        if self.exec_upto <= self.max_inst and self.exec_upto not in self.chosen:
            peers = [p for p in self._replicas() if p != self.node_id]
            if peers:
                peer = peers[self.exec_upto % len(peers)]
                self.send(peer, Catchup(from_instance=self.exec_upto))
        self.set_timer("catchup", self.config.catchup_period)

    @msg_handler(Catchup)
    def on_catchup(self, src: int, msg: Catchup) -> None:
        frontier = max(self.chosen, default=-1)
        upto = min(msg.from_instance + self.config.catchup_window, frontier + 1)
        entries = {
            i: self.chosen[i]
            for i in range(msg.from_instance, upto)
            if i in self.chosen
        }
        if entries or self.max_inst >= 0:
            self.send(src, CatchupResponse(entries=entries, max_inst=self.max_inst))

    @msg_handler(CatchupResponse)
    def on_catchup_response(self, src: int, msg: CatchupResponse) -> None:
        self._observe_instance(msg.max_inst)
        for instance in sorted(msg.entries):
            self._value_chosen(int(instance), _plain_value(msg.entries[instance]))


def make_batched_factory(config: Optional[PaxosConfig] = None):
    """Factory for batched Multi-Paxos replicas."""
    cfg = config if config is not None else PaxosConfig()
    return lambda node_id: BatchedPaxosReplica(node_id, cfg)


__all__ = ["BatchedPaxosReplica", "make_batched_factory"]
