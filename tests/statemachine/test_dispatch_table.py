"""``Service.deliver``: one table lookup for the common case.

A message type with exactly one handler and no guard is dispatched
straight from a per-class table; guarded and NFA types take the general
``applicable_handlers`` / ``choose_handler`` path, which is also what
the explorer keeps calling directly.
"""

from dataclasses import dataclass

from repro.statemachine import Message, SandboxContext, Service, msg_handler


@dataclass
class Ping(Message):
    n: int


@dataclass
class Pong(Message):
    n: int


class _Recording(SandboxContext):
    """Sandbox context that keeps trace records and handler choices."""

    def __init__(self):
        super().__init__(node_id=0)
        self.records = []
        self.handler_choices = []

    def record(self, category, **data):
        self.records.append((category, data))

    def choose_handler(self, src, msg, specs):
        self.handler_choices.append([spec.name for spec in specs])
        return specs[-1]


class Plain(Service):
    state_fields = ("seen",)

    def __init__(self, node_id=0):
        super().__init__(node_id)
        self.seen = []
        self.ctx = _Recording()

    @msg_handler(Ping)
    def on_ping(self, src, msg):
        self.seen.append(("on_ping", src, msg.n))

    @msg_handler(Pong, guard=lambda svc, src, msg: msg.n > 0)
    def on_positive_pong(self, src, msg):
        self.seen.append(("on_positive_pong", src, msg.n))


class SecondHandler(Plain):
    @msg_handler(Ping)
    def also_ping(self, src, msg):
        self.seen.append(("also_ping", src, msg.n))


class GuardedSecond(Plain):
    @msg_handler(Ping, guard=lambda svc, src, msg: msg.n < 0)
    def negative_ping(self, src, msg):
        self.seen.append(("negative_ping", src, msg.n))


def count_calls(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_sole_unguarded_handler_skips_the_applicability_scan(monkeypatch):
    scans = count_calls(monkeypatch, Service, "applicable_handlers")
    service = Plain()
    assert service.deliver(7, Ping(n=1)) is True
    assert service.seen == [("on_ping", 7, 1)]
    assert scans == []
    assert service.ctx.records == [] and service.ctx.handler_choices == []


def test_sole_handler_still_runs_through_invoke_handler(monkeypatch):
    # perf/tracer.py and the explorer hook this method: the table must
    # not call spec.fn behind its back.
    invoked = count_calls(monkeypatch, Service, "invoke_handler")
    service = Plain()
    service.deliver(7, Ping(n=1))
    assert [(spec.name, src) for spec, src, _ in invoked] == [("on_ping", 7)]


def test_single_guarded_handler_takes_the_general_path(monkeypatch):
    scans = count_calls(monkeypatch, Service, "applicable_handlers")
    service = Plain()
    assert service.deliver(3, Pong(n=2)) is True
    assert service.seen == [("on_positive_pong", 3, 2)]
    assert len(scans) == 1


def test_failed_guard_is_unhandled_not_dispatched():
    service = Plain()
    assert service.deliver(3, Pong(n=0)) is False
    assert service.seen == []
    assert service.ctx.records == [("service.unhandled", {"msg": "Pong", "src": 3})]


def test_unknown_type_is_unhandled():
    service = Plain()
    assert service.deliver(3, object()) is False
    assert service.ctx.records == [("service.unhandled", {"msg": "object", "src": 3})]


def test_two_handlers_reach_choose_handler():
    service = SecondHandler()
    assert service.deliver(1, Ping(n=5)) is True
    assert service.ctx.handler_choices == [["on_ping", "also_ping"]]
    assert service.seen == [("also_ping", 1, 5)]


def test_subclass_adding_a_handler_takes_the_type_off_its_table_only():
    assert Ping in Plain._sole_handlers
    assert Ping not in SecondHandler._sole_handlers
    assert Ping not in GuardedSecond._sole_handlers
    assert Pong not in Plain._sole_handlers            # guarded from the start
    # The base class is untouched by its subclasses.
    service = Plain()
    service.deliver(1, Ping(n=5))
    assert service.seen == [("on_ping", 1, 5)]


def test_subclass_adding_a_guarded_handler_consults_the_guard():
    service = GuardedSecond()
    service.deliver(1, Ping(n=5))                      # guard fails: one applicable
    assert service.seen == [("on_ping", 1, 5)]
    assert service.ctx.handler_choices == []
    service.deliver(1, Ping(n=-5))                     # guard passes: a choice
    assert service.ctx.handler_choices == [["on_ping", "negative_ping"]]


def test_applicable_handlers_unchanged_for_the_explorer():
    service = SecondHandler()
    assert [s.name for s in service.applicable_handlers(0, Ping(n=1))] == \
        ["on_ping", "also_ping"]
    plain = Plain()
    specs = plain.applicable_handlers(0, Ping(n=1))
    assert [s.name for s in specs] == ["on_ping"]
    assert specs[0] is Plain._sole_handlers[Ping]
    assert plain.applicable_handlers(0, Pong(n=0)) == []
    assert plain.applicable_handlers(0, object()) == []
