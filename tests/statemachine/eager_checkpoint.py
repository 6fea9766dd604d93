"""Checkpoint and restore as they were before restore deferred copies.

``Service.restore`` used to deep-copy every field of a checkpoint into
the service, ``Service.checkpoint`` to deep-copy every field back out,
and ``Explorer.sandbox_step`` to return ``service.checkpoint()`` of a
pooled instance restored that way.  They are kept here, and only here,
as the oracle: a step from the same checkpoint must reach an equal
checkpoint, with equal effects, and leave its input as it was.  The
bodies are the old ones; a stack restores and checkpoints layer by
layer, as ``ServiceStack`` did, and a step runs on a fresh instance,
which the old pool promised to be indistinguishable from.
"""

from repro.statemachine import SandboxContext, ServiceStack
from repro.statemachine.serialization import checkpoint_state, restore_state


def eager_checkpoint(service):
    """Every field deep-copied out of ``service``."""
    if isinstance(service, ServiceStack):
        return {name: eager_checkpoint(service.layers[name]) for name in service._order}
    return checkpoint_state(service, service.state_fields)


def eager_restore(service, checkpoint):
    """Every field of ``checkpoint`` deep-copied into ``service``."""
    if isinstance(service, ServiceStack):
        for name, layer_state in checkpoint.items():
            eager_restore(service.layers[name], layer_state)
        return
    restore_state(service, checkpoint)


def eager_sandbox_step(factory, node_id, state, event, now, script, rng_seed=0):
    """``Explorer.sandbox_step`` over an eagerly restored fresh instance:
    ``(checkpoint, effects, time_read)``."""
    service = factory(node_id)
    eager_restore(service, state)
    ctx = service.ctx = SandboxContext(
        node_id, now=now, choice_script=script, rng_seed=rng_seed)
    event.dispatch(service)
    return eager_checkpoint(service), ctx.effects, ctx.time_read
