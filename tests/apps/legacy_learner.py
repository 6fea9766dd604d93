"""The Paxos learner as it was before a re-learn became one lookup.

``PaxosReplica._value_chosen`` used to run every learn, first or
repeated, through its whole body: tuple-ize the value, pop the
proposal, walk the ``committed`` loop over the value's commands, walk
the ``exec_upto`` loop, pump.  The body is kept here, and only here, as
the oracle: a replica that learns this way must reach the same states
and trace as the current one, but for the commit stamps that
``test_paxos_relearn`` lists.  It is the old method's statements
verbatim (its comments dropped) on a subclass.  Handlers collect
base-first, so only this non-handler method is overridden; the current
catch-up handler feeds it, and hands a decided entry over unnormalized
(the old body tuple-izes it itself, and ``unpack_value`` rebuilds any
nested lists).
"""

from repro.apps.paxos import NOOP, PaxosReplica, unpack_value


class LegacyLearnerReplica(PaxosReplica):
    """A replica whose learner re-runs the full path on every learn."""

    def _value_chosen(self, instance, value):
        value = tuple(value)
        self.max_inst = max(self.max_inst, instance)
        if instance not in self.chosen:
            self.chosen[instance] = value
            self.record("paxos.chosen", instance=instance)
        proposal = self.proposals.pop(instance, None)
        if proposal is not None and tuple(proposal["value"]) != value:
            lost = tuple(proposal["value"])
            if lost != NOOP:
                for command in unpack_value(lost):
                    if command not in self.applied:
                        self.pending.append(command)
                self._pump()
        now = self.now()
        for command in unpack_value(value):
            if command in self.my_requests and command not in self.committed:
                self.committed[command] = [self.my_requests[command], now]
        while self.exec_upto in self.chosen:
            decided = tuple(self.chosen[self.exec_upto])
            for command in unpack_value(decided):
                if command not in self.applied:
                    self.applied.add(command)
                    self.executed.append(command)
            self.exec_upto += 1
        if self.pending:
            self._pump()
