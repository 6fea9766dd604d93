"""The benchmark's tracer still fits the program it instruments.

``perf/tracer.py`` wraps entry points of ``src/repro`` by name, from
outside.  A boundary renamed in ``src/`` would otherwise surface only at
the next traced benchmark run; here it fails tier-1.
"""

import importlib
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent / "perf"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERF))
    tracer_module = importlib.import_module("tracer")

    from repro.mc import world
    from repro.mc.explorer import Explorer
    from repro.statemachine import serialization, service

    def boundaries():
        # The six serialization functions, each in a namespace that
        # imported it, and one wrapped method.
        return (service.digest, service.checkpoint_state, service.restore_state,
                world.freeze, world.digest_of_frozen, world.snapshot_value,
                Explorer.__dict__["bfs"])

    originals = boundaries()
    assert {fn.__name__ for fn in originals[:6]} == {
        name for _, name, _ in tracer_module.FUNCTIONS}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # raises on an entry point that no longer exists
        assert all(now is not before for now, before in zip(boundaries(), originals))
        service.digest({"a": [1]})
        assert tracer.table()["statemachine.serialization.digest"]["calls"] == 1
    finally:
        tracer.uninstall()
    assert boundaries() == originals
    assert serialization.digest is originals[0]
