"""State model: checkpoint storage."""

from repro.model import StateModel


def test_update_and_get():
    model = StateModel(owner_id=0)
    assert model.update(1, epoch=1, taken_at=0.5, state={"x": 1})
    checkpoint = model.get(1)
    assert checkpoint.epoch == 1
    assert checkpoint.state == {"x": 1}


def test_stale_update_rejected():
    model = StateModel(0)
    model.update(1, epoch=2, taken_at=1.0, state={"x": 2})
    assert not model.update(1, epoch=1, taken_at=5.0, state={"x": 1})
    assert model.get(1).state == {"x": 2}


def test_same_epoch_later_time_accepted():
    model = StateModel(0)
    model.update(1, epoch=1, taken_at=1.0, state={"x": 1})
    assert model.update(1, epoch=1, taken_at=2.0, state={"x": 2})


def test_forget():
    model = StateModel(0)
    model.update(1, epoch=1, taken_at=0.0, state={})
    model.forget(1)
    assert model.get(1) is None
    assert len(model) == 0


def test_known_nodes_sorted():
    model = StateModel(0)
    for node in (5, 1, 3):
        model.update(node, epoch=1, taken_at=0.0, state={})
    assert model.known_nodes() == [1, 3, 5]


def test_neighbor_checkpoint_default_timers_is_fresh_list():
    # Regression: ``timers`` defaulted to ``None`` (annotated as a
    # list), so every default-constructed checkpoint either crashed
    # iteration or shared one mutable list.
    from repro.model import NeighborCheckpoint

    a = NeighborCheckpoint(node_id=1, epoch=1, taken_at=0.0, state={})
    b = NeighborCheckpoint(node_id=2, epoch=1, taken_at=0.0, state={})
    assert a.timers == []
    a.timers.append(("t", 1.0, None))
    assert b.timers == []


def test_latest_states_shares_stored_checkpoints_in_a_new_mapping():
    # The model stores the checkpoint it is handed; readers get that
    # checkpoint (immutable by the WorldState contract), not a copy.
    model = StateModel(0)
    model.update(1, epoch=1, taken_at=0.0, state={"x": [1]})
    states = model.latest_states()
    assert states[1] is model.get(1).state
    # The outer mapping is the caller's own: _score_candidate swaps the
    # local node's entry for a replayed checkpoint.
    states[1] = {"x": [2]}
    states[7] = {}
    assert model.get(1).state == {"x": [1]}
    assert model.known_nodes() == [1]
