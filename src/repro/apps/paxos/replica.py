"""Multi-Paxos replica with the proposer exposed as a choice.

:class:`PaxosReplica` implements all three roles (proposer, acceptor,
learner) over an ownership-partitioned instance space (see
``messages``): a replica sequences commands through its own slots with
a one-round-trip fast path, and full two-phase Paxos with ballot
escalation handles retries and contention.

The paper's consensus example (Section 3.1): the original Paxos "does
not offer a choice as to which node is allowed to propose a new value";
Mencius rotates proposers round-robin for WAN performance; "we argue
that an implementation can expose the choice of a proposer and let the
runtime pick the best proposer".  One mechanism, three policies: the
replica exposes ``"proposer"`` for every batch, and each design is a
resolver of that one choice (:mod:`.score`):

* *Mencius* — the default first-candidate resolver: the candidate list
  starts with the replica itself, so every origin proposes its own
  commands;
* *fixed leader* — :func:`~.score.leader_resolver` forwards every batch
  to one leader;
* *exposed choice* — :func:`~.score.make_proposer_resolver` picks the
  proposer minimizing predicted commit latency.

The rest is production-shaped Multi-Paxos:

* **Batching** — queued commands are pulled, up to a batch size, into
  one instance; the batch (a tuple of commands) is the log value, and
  execution unpacks it.  Batch size is an exposed choice
  (``"batch-size"``) over ``PaxosConfig.batch_size_choices``, whose
  first entry is what a steering-off deployment gets.
* **Pipelining** — up to ``pipeline_depth`` own-slot instances may be
  in flight concurrently; the pump keeps pulling batches while there
  is depth to spare.
* **Retry pacing** — the retry sweep's timeout is scaled by the
  ``"retry-pacing"`` choice, letting the runtime de-synchronize
  dueling proposers when it observes conflict.
* **Proactive quorum reuse** — ownership makes round 0 implicitly
  promised, so the fast path needs no phase 1 at all.  When the
  privilege is lost (a Nack on an own-slot proposal — in practice
  after an amnesia recovery finds higher floors), the replica runs
  *one* ranged prepare (:class:`PrepareRange`) covering all its slots
  from ``from_instance`` to infinity; a promise quorum re-establishes
  phase-1-free operation at the new round until preempted again.
  ``PromiseRange`` replies carry ``max_inst`` so the owner advances
  its instance sequence past the decided prefix, and carry the
  acceptors' accepted proposals in the range so undecided instances
  are recovered at the new round.
* **Learner catch-up** — a recovering replica broadcasts
  :class:`QueryLastInstance`, learns how far the log extends, and
  pages decided values in with :class:`Catchup`/:class:`CatchupResponse`
  instead of waiting for gap-fill rounds to close every hole.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from ...statemachine import Service, msg_handler, timer_handler
from .messages import (
    Accept,
    AcceptedMsg,
    Catchup,
    CatchupResponse,
    Command,
    LastInstanceResponse,
    Learn,
    NO_BALLOT,
    NOOP,
    Nack,
    PaxosConfig,
    Prepare,
    PrepareRange,
    Promise,
    PromiseRange,
    QueryLastInstance,
    SubmitBurst,
    make_ballot,
    slot_owner,
    unpack_value,
)


def _plain_value(value):
    """Tuple-ize a decided/accepted value (command or batch) so it is
    hashable and wire-stable."""
    value = tuple(value)
    if value and isinstance(value[0], (tuple, list)):
        if set(map(type, value)) == {tuple}:
            return value  # already a tuple of tuples: nothing to rebuild
        return tuple(tuple(v) for v in value)
    return value


class PaxosReplica(Service):
    """One replica: proposer + acceptor + learner."""

    state_fields = (
        "promised", "accepted", "chosen",
        "next_seq", "next_own_round", "proposals",
        "my_requests", "committed", "cpu_queue",
        "exec_upto", "executed", "applied",
        "pending", "max_inst",
        "phase1_ok", "range_round", "range_from",
        "pending_range_round", "pending_range_from",
        "range_promises", "range_accepted", "range_started_at",
        "range_promised", "recent_conflicts",
    )

    def __init__(self, node_id: int, config: Optional[PaxosConfig] = None) -> None:
        super().__init__(node_id)
        self.config = config if config is not None else PaxosConfig()
        # Acceptor state.
        self.promised: Dict[int, int] = {}
        self.accepted: Dict[int, list] = {}
        # Learner state.
        self.chosen: Dict[int, Command] = {}
        # Proposer state.
        self.next_seq = 0
        self.next_own_round = 0
        self.proposals: Dict[int, dict] = {}
        # Client bookkeeping: command -> created_at / [created, committed].
        self.my_requests: Dict[Command, float] = {}
        self.committed: Dict[Command, list] = {}
        # Batches waiting for this (loaded) replica's CPU.
        self.cpu_queue: deque = deque()
        # Replicated-log execution: instances [0, exec_upto) are decided
        # and applied; ``executed`` is the in-order command sequence
        # (NOOP fillers excluded).  ``applied`` enforces at-most-once
        # apply: a command chosen in two instances (recovery can
        # duplicate it) still executes exactly once.
        self.exec_upto = 0
        self.executed: List[Command] = []
        self.applied: Set[Command] = set()
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
        self.set_timer("client", self.config.request_interval)
        self.set_timer("retry-sweep", self.config.retry_sweep_period)
        self.set_timer("gap-fill", self.config.gapfill_period)
        self.set_timer("catchup", self.config.catchup_period)
        # Rejoin protocol: ask everyone how far the log extends.  On a
        # fresh start peers answer max_inst=-1 and this is a no-op.
        self.broadcast(
            [p for p in self._replicas() if p != self.node_id],
            QueryLastInstance(),
        )

    @timer_handler("client")
    def on_client_timer(self, payload) -> None:
        if self.next_seq < self.config.requests_per_node:
            command: Command = (self.node_id, self.next_seq)
            self.next_seq += 1
            self.submit(command)
            self.set_timer("client", self.config.request_interval)

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

    def _replicas(self) -> List[int]:
        return list(range(self.config.n))

    def _pump(self) -> None:
        """Pull pending commands into batched, pipelined instances, each
        batch proposed by the replica the ``"proposer"`` choice names.

        Pipeline depth counts own-slot ``proposals`` only.  On a loaded
        replica (``processing_delays``) a batch waiting in ``cpu_queue``
        is not a proposal yet, so every pump with commands pending, a
        re-learn's included, may move up to ``pipeline_depth`` more
        batches in behind it."""
        if not self.phase1_ok:
            return  # re-pumped once the ranged prepare completes
        n = self.config.n
        depth = sum(1 for i in self.proposals if i % n == self.node_id)
        while self.pending and depth < self.config.pipeline_depth:
            conflicts = round(self.recent_conflicts, 3)
            size = self.choose(
                "batch-size", list(self.config.batch_size_choices),
                queue=len(self.pending), conflicts=conflicts, inflight=depth,
            )
            batch = tuple(
                self.pending.popleft()
                for _ in range(min(size, len(self.pending)))
            )
            proposer = self.choose(
                "proposer",
                [self.node_id] + [p for p in self._replicas() if p != self.node_id],
                origin=self.node_id, size=len(batch),
                queue=len(self.pending), conflicts=conflicts,
            )
            if proposer == self.node_id:
                self.propose(batch)
                depth += 1
            else:
                self.send(proposer, SubmitBurst(commands=batch, origin=self.node_id))

    # ------------------------------------------------------------------
    # Proposer
    # ------------------------------------------------------------------

    def propose(self, value) -> None:
        """Queue a proposal through this replica's CPU, then coordinate.

        An unloaded replica proposes immediately; a loaded one
        serializes coordination work through its CPU queue,
        ``processing_delay`` seconds apiece.
        """
        delay = self.config.processing_delay(self.node_id)
        if delay <= 0:
            self._coordinate(value)
            return
        self.cpu_queue.append(value)
        if len(self.cpu_queue) == 1:
            self.set_timer("cpu-drain", delay)

    @timer_handler("cpu-drain")
    def on_cpu_drain(self, payload) -> None:
        if self.cpu_queue:
            self._coordinate(tuple(self.cpu_queue.popleft()))
        if self.cpu_queue:
            self.set_timer("cpu-drain", self.config.processing_delay(self.node_id))

    def _coordinate(self, value) -> None:
        """Fast-path proposal in the next self-owned instance."""
        instance = self.next_own_round * self.config.n + self.node_id
        self.next_own_round += 1
        self._coordinate_in(instance, value)

    def _coordinate_in(self, instance: int, value) -> None:
        """Fast-path proposal at the current privileged round.

        Round 0 is safe by ownership; a higher ``range_round`` is safe
        because a promise quorum covers ``[range_from, inf)`` of our
        slots and every accepted value it reported was re-proposed when
        the range was acquired.  Either way the proposal goes straight
        to phase 2: one round trip to a majority.
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
        self.broadcast(self._replicas(), Accept(instance=instance, ballot=ballot, value=value))

    def _escalate(self, instance: int, min_round: int) -> None:
        """Restart an instance with full two-phase Paxos at a higher round."""
        proposal = self.proposals.get(instance)
        if proposal is None:
            return
        current_round = proposal["ballot"] // self.config.n
        round_number = max(current_round + 1, min_round)
        ballot = make_ballot(round_number, self.node_id, self.config.n)
        proposal.update(
            ballot=ballot,
            phase="prepare",
            promise_from=[],
            best_accepted_ballot=NO_BALLOT,
            best_accepted_value=None,
            accepted_from=[],
            started_at=self.now(),
            proposing=proposal["value"],
        )
        self.broadcast(self._replicas(), Prepare(instance=instance, ballot=ballot))

    @timer_handler("retry-sweep")
    def on_retry_sweep(self, payload) -> None:
        now = self.now()
        rng = self.rng("retry")
        timeout = self.config.retry_timeout
        if self.proposals:
            # Longer pacing de-synchronizes duelists under conflict.
            timeout *= self.choose(
                "retry-pacing", list(self.config.retry_pacing_choices),
                conflicts=round(self.recent_conflicts, 3),
            )
        for instance in sorted(self.proposals):
            proposal = self.proposals[instance]
            if now - proposal["started_at"] > timeout:
                # Randomized escalation breaks dueling-proposer
                # symmetry: without it two contenders re-prepare in
                # lock-step and livelock (the classic Paxos liveness
                # caveat).
                if rng.random() < 0.6:
                    self._escalate(instance, proposal.get("min_round", 1))
        self.set_timer("retry-sweep", self.config.retry_sweep_period)

    @timer_handler("gap-fill")
    def on_gap_fill(self, payload) -> None:
        """Decide NOOP in our own skipped slots (Mencius skip messages).

        Once instances beyond our partition's frontier are decided, our
        unused slots block every replica's executable prefix; an idle
        owner fills them with no-ops.
        """
        max_chosen = max(self.chosen, default=-1)
        while self.next_own_round * self.config.n + self.node_id < max_chosen:
            instance = self.next_own_round * self.config.n + self.node_id
            self.next_own_round += 1
            if instance not in self.chosen and instance not in self.proposals:
                self._coordinate_in(instance, NOOP)
        self.set_timer("gap-fill", self.config.gapfill_period)

    @msg_handler(Promise)
    def on_promise(self, src: int, msg: Promise) -> None:
        proposal = self.proposals.get(msg.instance)
        if proposal is None or proposal["ballot"] != msg.ballot or proposal["phase"] != "prepare":
            return
        if src in proposal["promise_from"]:
            return
        proposal["promise_from"].append(src)
        if msg.accepted_ballot > proposal["best_accepted_ballot"]:
            proposal["best_accepted_ballot"] = msg.accepted_ballot
            proposal["best_accepted_value"] = msg.accepted_value
        if len(proposal["promise_from"]) >= self.config.majority:
            value = proposal["best_accepted_value"]
            if value is None:
                value = proposal["value"]
            proposal["proposing"] = value
            proposal["phase"] = "accept"
            proposal["accepted_from"] = []
            self.broadcast(
                self._replicas(),
                Accept(instance=msg.instance, ballot=msg.ballot, value=value),
            )

    @msg_handler(AcceptedMsg)
    def on_accepted(self, src: int, msg: AcceptedMsg) -> None:
        proposal = self.proposals.get(msg.instance)
        if proposal is None or proposal["ballot"] != msg.ballot or proposal["phase"] != "accept":
            return
        if src in proposal["accepted_from"]:
            return
        proposal["accepted_from"].append(src)
        if len(proposal["accepted_from"]) >= self.config.majority:
            value = proposal["proposing"]
            self._value_chosen(msg.instance, value)
            self.broadcast(self._replicas(), Learn(instance=msg.instance, value=value))

    @msg_handler(Nack)
    def on_nack(self, src: int, msg: Nack) -> None:
        proposal = self.proposals.get(msg.instance)
        if proposal is None or proposal["ballot"] >= msg.promised:
            return
        if msg.ballot != NO_BALLOT and msg.ballot != proposal["ballot"]:
            # Stale rejection of a ballot we already abandoned: a
            # superseded round's Nack must not inflate min_round and
            # force a needless multi-round escalation.
            return
        # Defer to the jittered retry sweep instead of escalating
        # immediately: eager re-preparation is what fuels the
        # dueling-proposers livelock.
        n = self.config.n
        proposal["min_round"] = max(proposal.get("min_round", 1), msg.promised // n + 1)
        self.recent_conflicts += 1.0
        if slot_owner(msg.instance, n) == self.node_id:
            # Our own-slot privilege was rejected: re-acquire phase-1
            # freedom at a round beating the observed promise.
            self._acquire_range(max(msg.promised // n + 1, self.range_round + 1,
                                    self.pending_range_round + 1))

    # ------------------------------------------------------------------
    # Proactive quorum (ranged prepares)
    # ------------------------------------------------------------------

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

    @msg_handler(PromiseRange)
    def on_promise_range(self, src: int, msg: PromiseRange) -> None:
        if self.phase1_ok or msg.round_number != self.pending_range_round:
            return
        if src in self.range_promises:
            return
        self.range_promises.append(src)
        self.max_inst = max(self.max_inst, msg.max_inst)
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

    # ------------------------------------------------------------------
    # Acceptor
    # ------------------------------------------------------------------

    def _promise_floor(self, instance: int) -> int:
        """The lowest ballot this acceptor may still accept at
        ``instance``: its point promise, raised by a granted range
        (a promise for every owned instance >= its start)."""
        floor = self.promised.get(instance, NO_BALLOT)
        owner = slot_owner(instance, self.config.n)
        granted = self.range_promised.get(owner)
        if granted is not None and instance >= granted[1]:
            floor = max(floor, make_ballot(granted[0], owner, self.config.n))
        return floor

    @msg_handler(Prepare)
    def on_prepare(self, src: int, msg: Prepare) -> None:
        self.max_inst = max(self.max_inst, msg.instance)
        if msg.instance in self.chosen:
            self.send(src, Learn(instance=msg.instance, value=self.chosen[msg.instance]))
            return
        floor = self._promise_floor(msg.instance)
        if msg.ballot > floor:
            self.promised[msg.instance] = msg.ballot
            accepted = self.accepted.get(msg.instance)
            self.send(
                src,
                Promise(
                    instance=msg.instance,
                    ballot=msg.ballot,
                    accepted_ballot=accepted[0] if accepted else NO_BALLOT,
                    accepted_value=tuple(accepted[1]) if accepted else None,
                ),
            )
        else:
            self.send(src, Nack(instance=msg.instance, promised=floor, ballot=msg.ballot))

    @msg_handler(Accept)
    def on_accept(self, src: int, msg: Accept) -> None:
        self.max_inst = max(self.max_inst, msg.instance)
        if msg.instance in self.chosen:
            self.send(src, Learn(instance=msg.instance, value=self.chosen[msg.instance]))
            return
        floor = self._promise_floor(msg.instance)
        if msg.ballot >= floor:
            self.promised[msg.instance] = msg.ballot
            self.accepted[msg.instance] = [msg.ballot, list(msg.value)]
            self.send(
                src,
                AcceptedMsg(instance=msg.instance, ballot=msg.ballot, value=msg.value),
            )
        else:
            self.send(src, Nack(instance=msg.instance, promised=floor, ballot=msg.ballot))

    # ------------------------------------------------------------------
    # Learner
    # ------------------------------------------------------------------

    @msg_handler(Learn)
    def on_learn(self, src: int, msg: Learn) -> None:
        self._value_chosen(msg.instance, msg.value)

    def _value_chosen(self, instance: int, value) -> None:
        self.max_inst = max(self.max_inst, instance)
        if instance in self.chosen and instance not in self.proposals:
            # Re-learning a decided instance (a duplicate Learn, an
            # overlapping catch-up page) is one lookup: ``chosen`` keeps
            # its first value, the first learn committed every command
            # requested by then, and ``exec_upto`` moves only when
            # ``chosen`` grows.  A command requested again after a
            # restart commits when its re-proposal is decided.  Only the
            # pump can do work here, as at the end of the full path.
            if self.pending:
                self._pump()
            return
        value = tuple(value)
        if instance not in self.chosen:
            self.chosen[instance] = value
            self.record("paxos.chosen", instance=instance)
        proposal = self.proposals.pop(instance, None)
        if proposal is not None and tuple(proposal["value"]) != value:
            lost = tuple(proposal["value"])
            if lost != NOOP:
                # Our batch lost this instance to a recovered value:
                # re-enqueue its commands (minus anything already
                # applied) instead of re-proposing the stale batch.  A
                # lost NOOP is simply dropped — the slot it was meant to
                # fill is decided, so re-proposing it would burn a fresh
                # slot and trigger more gap-fill churn.
                for command in unpack_value(lost):
                    if command not in self.applied:
                        self.pending.append(command)
                self._pump()
        now = self.now()
        for command in unpack_value(value):
            if command in self.my_requests and command not in self.committed:
                self.committed[command] = [self.my_requests[command], now]
        # Advance the executable prefix of the replicated log.
        while self.exec_upto in self.chosen:
            decided = tuple(self.chosen[self.exec_upto])
            for command in unpack_value(decided):
                if command not in self.applied:
                    self.applied.add(command)
                    self.executed.append(command)
            self.exec_upto += 1
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
        self.max_inst = max(self.max_inst, msg.max_inst)

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
        self.max_inst = max(self.max_inst, msg.max_inst)
        for key in sorted(msg.entries):
            instance = int(key)
            value = msg.entries[key]
            if instance not in self.chosen or instance in self.proposals:
                value = _plain_value(value)  # only the full path reads it
            self._value_chosen(instance, value)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def commit_latencies(self) -> List[float]:
        """Latency of every committed command this node originated."""
        return sorted(done - created for created, done in self.committed.values())


def make_paxos_factory(config: PaxosConfig):
    """Factory for replicas sharing one configuration."""
    return lambda node_id: PaxosReplica(node_id, config)


__all__ = ["PaxosReplica", "make_paxos_factory"]
