"""State model: checkpoint storage, ages, consistent cuts."""

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


def test_stored_state_is_copied():
    model = StateModel(0)
    state = {"list": [1]}
    model.update(1, epoch=1, taken_at=0.0, state=state)
    state["list"].append(2)
    assert model.get(1).state == {"list": [1]}


def test_age_and_unknown():
    model = StateModel(0)
    model.update(1, epoch=1, taken_at=3.0, state={})
    assert model.age(1, now=5.0) == 2.0
    assert model.age(9, now=5.0) is None


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


def test_consistent_cut_uses_common_epoch():
    # Regression: the filter used to be ``cp.epoch >= min(epochs)`` — a
    # tautology that admitted every checkpoint, mixing epochs.  The cut
    # must hold only checkpoints *from* the common (minimum) epoch.
    model = StateModel(0)
    model.update(1, epoch=3, taken_at=1.0, state={"v": "new"})
    model.update(2, epoch=2, taken_at=0.5, state={"v": "old"})
    cut = model.consistent_cut(now=2.0)
    assert set(cut) == {2}
    assert cut[2] == {"v": "old"}


def test_consistent_cut_same_epoch_includes_everyone():
    model = StateModel(0)
    model.update(1, epoch=4, taken_at=1.0, state={"v": "a"})
    model.update(2, epoch=4, taken_at=1.5, state={"v": "b"})
    model.update(3, epoch=4, taken_at=0.9, state={"v": "c"})
    cut = model.consistent_cut(now=2.0)
    assert set(cut) == {1, 2, 3}


def test_consistent_cut_mixed_epochs_keeps_only_cut_epoch():
    model = StateModel(0)
    model.update(1, epoch=5, taken_at=2.0, state={})
    model.update(2, epoch=3, taken_at=1.0, state={})
    model.update(3, epoch=3, taken_at=1.2, state={})
    cut = model.consistent_cut(now=3.0)
    assert set(cut) == {2, 3}


def test_consistent_cut_max_age_filters():
    model = StateModel(0)
    model.update(1, epoch=1, taken_at=0.0, state={})
    model.update(2, epoch=1, taken_at=9.0, state={})
    cut = model.consistent_cut(now=10.0, max_age=5.0)
    assert set(cut) == {2}


def test_consistent_cut_max_age_raises_cut_epoch():
    # The age filter runs first: once the stale low-epoch checkpoint is
    # dropped, the cut epoch is recomputed over the survivors.
    model = StateModel(0)
    model.update(1, epoch=1, taken_at=0.0, state={})
    model.update(2, epoch=4, taken_at=9.0, state={})
    model.update(3, epoch=4, taken_at=8.0, state={})
    cut = model.consistent_cut(now=10.0, max_age=5.0)
    assert set(cut) == {2, 3}


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
    # The model copied the state once on update(); readers get that copy
    # (immutable by the WorldState contract), not a copy of the copy.
    model = StateModel(0)
    model.update(1, epoch=1, taken_at=0.0, state={"x": [1]})
    states = model.latest_states()
    assert states[1] is model.get(1).state
    assert model.consistent_cut(now=1.0)[1] is model.get(1).state
    # The outer mapping is the caller's own: _score_candidate swaps the
    # local node's entry for a replayed checkpoint.
    states[1] = {"x": [2]}
    states[7] = {}
    assert model.get(1).state == {"x": [1]}
    assert model.known_nodes() == [1]
