"""Paxos wire protocol and configuration.

Commands are ``(origin, sequence)`` tuples.  Ballots are integers
encoding ``(round, proposer)`` as ``round * n + proposer``, so every
proposer's ballots are unique and totally ordered; ``ballot < 0`` means
"none yet".

The instance space is partitioned by ownership, ``instance mod n``
belonging to replica ``instance % n`` (the Mencius arrangement).  An
owner proposing in its own slot may skip the prepare phase for its
round-0 ballot — no other proposer uses that ballot, so acceptance is
safe — giving the one-round-trip fast path; proposing in *any* slot
with a higher ballot goes through the full two-phase protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ...statemachine import Message

Command = Tuple[int, int]

# A log value is a batch: a tuple of commands decided in one instance.
# ``unpack_value`` also reads a bare command as a batch of one, so
# hand-built worlds may decide single commands.
Batch = Tuple[Command, ...]

NO_BALLOT = -1

# Mencius-style filler for skipped instances: idle owners decide NOOP in
# their unused slots so the replicated log's executable prefix advances.
NOOP: Command = (-1, -1)


@dataclass(frozen=True)
class PaxosConfig:
    """Replica-group parameters.

    ``processing_delays`` models per-replica CPU load: coordinating a
    proposal costs the proposer that many seconds of (serialized) CPU
    work before the accept round leaves the node — the "reduced
    performance due to CPU overload" failure mode of a fixed proposer
    (Section 3.1).  ``None`` means every replica is unloaded.
    """

    n: int = 5
    request_interval: float = 1.0
    requests_per_node: int = 10
    retry_timeout: float = 2.0
    retry_sweep_period: float = 0.5
    gapfill_period: float = 1.0
    processing_delays: Optional[Tuple[float, ...]] = None
    # Multi-Paxos (see apps.paxos.replica).  ``batch_size_choices`` are
    # the candidates of the exposed "batch-size" choice — the first entry
    # is the static default a steering-off deployment gets, so one
    # command per instance is candidates[0] == 1.
    # ``pipeline_depth`` bounds concurrent in-flight own-slot instances;
    # ``retry_pacing_choices`` scale ``retry_timeout`` (the exposed
    # "retry-pacing" choice); ``catchup_period``/``catchup_window``
    # drive the learner catch-up protocol.
    batch_size_choices: Tuple[int, ...] = (1, 8, 32, 128)
    pipeline_depth: int = 4
    retry_pacing_choices: Tuple[float, ...] = (1.0, 2.0, 4.0)
    catchup_period: float = 1.0
    catchup_window: int = 256

    @property
    def majority(self) -> int:
        return self.n // 2 + 1

    def processing_delay(self, node_id: int) -> float:
        """The CPU cost of coordinating one proposal at ``node_id``."""
        if self.processing_delays is None:
            return 0.0
        return self.processing_delays[node_id]


def make_ballot(round_number: int, proposer: int, n: int) -> int:
    """Encode a (round, proposer) ballot as a unique ordered integer."""
    return round_number * n + proposer


def ballot_proposer(ballot: int, n: int) -> int:
    """The proposer that owns a ballot."""
    return ballot % n


def slot_owner(instance: int, n: int) -> int:
    """The replica owning this instance's fast path."""
    return instance % n


@dataclass
class Prepare(Message):
    """Phase 1a: ask acceptors to promise ballot for an instance."""

    instance: int
    ballot: int


@dataclass
class Promise(Message):
    """Phase 1b: promise, reporting any previously accepted proposal."""

    instance: int
    ballot: int
    accepted_ballot: int
    accepted_value: Optional[Command]


@dataclass
class Accept(Message):
    """Phase 2a: ask acceptors to accept a value at a ballot."""

    instance: int
    ballot: int
    value: Command


@dataclass
class AcceptedMsg(Message):
    """Phase 2b: acceptor accepted the proposal."""

    instance: int
    ballot: int
    value: Command


@dataclass
class Nack(Message):
    """Rejection carrying the acceptor's current promise, so the
    proposer can escalate to a higher round.

    ``ballot`` echoes the rejected proposal's ballot: the proposer only
    honours a Nack whose ballot matches its *current* attempt, so a
    stale Nack from a superseded round cannot inflate ``min_round``.
    """

    instance: int
    promised: int
    ballot: int = NO_BALLOT


@dataclass
class Learn(Message):
    """Commit notification broadcast once a value is chosen."""

    instance: int
    value: Command


def unpack_value(value) -> Tuple[Command, ...]:
    """The commands carried by a decided log value.

    A value is either the NOOP filler (no commands), a single command
    ``(origin, seq)``, or a batch — a tuple of commands.  Batches are
    distinguished structurally: their first element is itself a tuple.
    """
    value = tuple(value)
    if value == NOOP or not value:
        return ()
    if isinstance(value[0], (tuple, list)):
        if set(map(type, value)) == {tuple}:
            return value  # already a tuple of tuples: nothing to rebuild
        return tuple(tuple(v) for v in value)
    return (value,)


@dataclass
class SubmitBurst(Message):
    """A burst of client commands submitted to one replica.

    ``origin`` names the replica responsible for latency bookkeeping:
    a burst forwarded between replicas (the exposed proposer choice)
    keeps its original origin so commands are not double-counted.
    """

    commands: Tuple[Command, ...]
    origin: int


@dataclass
class PrepareRange(Message):
    """Phase 1a over the sender's own slots ``>= from_instance``.

    The proactive prepare of batched Multi-Paxos: one promise quorum
    for an unbounded instance range lets the owner skip phase 1 for
    every future own-slot proposal until preempted.
    """

    from_instance: int
    round_number: int


@dataclass
class PromiseRange(Message):
    """Phase 1b for a ranged prepare.

    ``accepted`` reports every proposal this acceptor has accepted in
    the granted range (instance -> (ballot, value)) so the new owner
    round re-proposes them; ``max_inst`` is the highest instance the
    acceptor has seen occupied anywhere, driving the owner's
    ``instance_seq`` advancement past the decided prefix.
    """

    round_number: int
    from_instance: int
    max_inst: int
    accepted: Dict[int, Tuple[int, Batch]] = field(default_factory=dict)


@dataclass
class QueryLastInstance(Message):
    """Learner catch-up, step 1: ask peers how far the log extends."""


@dataclass
class LastInstanceResponse(Message):
    """Reply to :class:`QueryLastInstance`: the peer's ``max_inst``."""

    max_inst: int


@dataclass
class Catchup(Message):
    """Learner catch-up, step 2: request decided values from
    ``from_instance`` onward."""

    from_instance: int


@dataclass
class CatchupResponse(Message):
    """A window of decided values (instance -> value), plus the
    responder's ``max_inst`` so the learner knows whether to keep
    asking."""

    entries: Dict[int, Batch]
    max_inst: int


__all__ = [
    "Command",
    "Batch",
    "NO_BALLOT",
    "NOOP",
    "PaxosConfig",
    "make_ballot",
    "ballot_proposer",
    "slot_owner",
    "unpack_value",
    "Prepare",
    "Promise",
    "Accept",
    "AcceptedMsg",
    "Nack",
    "Learn",
    "SubmitBurst",
    "PrepareRange",
    "PromiseRange",
    "QueryLastInstance",
    "LastInstanceResponse",
    "Catchup",
    "CatchupResponse",
]
