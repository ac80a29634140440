import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionpose.errors import CheckpointMismatchError, ContractError
from fusionpose.model import ModelConfig, build_model
from fusionpose.params import Adam, ParameterStore
from fusionpose.train import (TrainState, latest_checkpoint, load_checkpoint,
                              save_checkpoint)


def test_paths_iterate_lexicographically():
    store = ParameterStore(seed=0)
    for name in ("zeta.w", "alpha.w", "mid.b"):
        store.zeros(name, (2,))
    assert store.paths() == ["alpha.w", "mid.b", "zeta.w"]


def test_duplicate_path_rejected():
    store = ParameterStore(seed=0)
    store.zeros("w", (2,))
    with pytest.raises(ContractError):
        store.weight("w", (2, 2))


def test_weight_init_bounds_follow_fan_in():
    store = ParameterStore(seed=1)
    w = store.weight("w", (100, 50))
    bound = 1.0 / np.sqrt(100)
    assert np.abs(w.data).max() <= bound
    assert np.abs(w.data).max() > 0.5 * bound  # actually spread out


def test_same_seed_same_initialization():
    a = ParameterStore(seed=7).weight("w", (20, 20))
    b = ParameterStore(seed=7).weight("w", (20, 20))
    np.testing.assert_array_equal(a.data, b.data)


CFG = ModelConfig(n_points=16, width=16, image_hw=16, joint_feat_dim=4,
                  head_hidden=8)


def saved_entries(tmp_path, adam: bool = False) -> dict[str, np.ndarray]:
    """The entries of a checkpoint of a seed-1 model of ``CFG``."""
    _, store = build_model(CFG, seed=1)
    if adam:
        Adam(store).step({p: np.ones_like(t.data) for p, t in store.items()})
    path = tmp_path / "saved.fpck"
    save_checkpoint(store, path, CFG, TrainState(epoch=5, step=7, seed=1))
    return ParameterStore.read_entries(path)


def test_checkpoint_round_trip_exact(tmp_path):
    entries = saved_entries(tmp_path, adam=True)
    _, other = build_model(CFG, seed=99)
    state = load_checkpoint(other, tmp_path / "saved.fpck", CFG)
    assert (state.epoch, state.step, state.seed) == (5, 7, 1)
    for path, t in other.items():
        np.testing.assert_array_equal(t.data, entries[path])
    assert sorted(other.state) == sorted(k for k in entries if k.startswith("__opt__"))
    for key, arr in other.state.items():
        np.testing.assert_array_equal(arr, entries[key])


def _refused_and_untouched(path, match):
    _, fresh = build_model(CFG, seed=2)
    before = {p: t.data.copy() for p, t in fresh.items()}
    with pytest.raises(CheckpointMismatchError, match=match):
        load_checkpoint(fresh, path, CFG)
    for p, t in fresh.items():
        np.testing.assert_array_equal(t.data, before[p])
    assert fresh.state == {}


def test_checkpoint_parameter_set_mismatch(tmp_path):
    entries = saved_entries(tmp_path)
    name = next(k for k in entries if not k.startswith("__"))
    entries["renamed." + name] = entries.pop(name)
    path = tmp_path / "m.fpck"
    ParameterStore().save(path, entries)
    _refused_and_untouched(path, f"missing \\['{name}'\\]")


def test_checkpoint_shape_mismatch(tmp_path):
    entries = saved_entries(tmp_path)
    name = next(k for k, v in entries.items() if not k.startswith("__") and v.ndim == 1)
    entries[name] = entries[name][None, :]
    path = tmp_path / "m.fpck"
    ParameterStore().save(path, entries)
    _refused_and_untouched(path, f"{name} has shape \\(1, ")


def test_checkpoint_with_a_negative_second_moment_is_refused(tmp_path):
    entries = saved_entries(tmp_path, adam=True)
    name = sorted(k for k in entries if k.startswith("__opt__.v."))[0]
    entries[name] = entries[name].copy()
    entries[name].flat[-1] = -1e-300  # finite, and every other entry is valid
    path = tmp_path / "m.fpck"
    ParameterStore().save(path, entries)
    _refused_and_untouched(path, f"{name} holds negative values")


def test_not_a_checkpoint_file(tmp_path):
    path = tmp_path / "junk.fpck"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointMismatchError):
        ParameterStore.read_entries(path)


def small_store(seed=8):
    store = ParameterStore(seed=seed)
    store.weight("layer.w", (3, 2))
    store.zeros("layer.b", (2,))
    return store


def test_every_truncated_checkpoint_raises_mismatch(tmp_path):
    path = tmp_path / "m.fpck"
    small_store().save(path, extra={"__state__.epoch": np.asarray(2.0)})
    blob = path.read_bytes()
    assert ParameterStore.read_entries(path)["layer.w"].shape == (3, 2)
    cut = tmp_path / "cut.fpck"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(CheckpointMismatchError):
            ParameterStore.read_entries(cut)


def test_entry_of_rank_above_two_raises_mismatch_naming_it(tmp_path):
    path = tmp_path / "m.fpck"
    small_store().save(path, extra={"__opt__.cube": np.zeros((2, 2, 2))})
    with pytest.raises(CheckpointMismatchError, match="__opt__.cube has rank 3"):
        ParameterStore.read_entries(path)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, request):
    first = tmp_path / "epoch_000.fpck"
    small_store(seed=8).save(first)
    before = first.read_bytes()
    request.getfixturevalue("full_disk")
    for target in (tmp_path / "epoch_001.fpck", first):
        with pytest.raises(OSError):
            small_store(seed=9).save(target)
    assert first.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["epoch_000.fpck"]
    assert latest_checkpoint(tmp_path) == first


NAMES = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)
ENTRIES = st.dictionaries(
    NAMES,
    st.lists(st.integers(0, 3), max_size=2).flatmap(
        lambda shape: st.lists(st.floats(), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))).map(
            lambda values: np.reshape(values, shape))),
    max_size=5)


@settings(max_examples=60, deadline=None)
@given(entries=ENTRIES)
@example(entries={"gewicht.ä": np.asarray(-0.0), "層.w": np.arange(6.0).reshape(2, 3)})
def test_saved_entries_read_back_exactly(tmp_path_factory, entries):
    """Any names, non-ASCII too, and entries of rank 0 to 2 round trip."""
    path = tmp_path_factory.mktemp("rt") / "m.fpck"
    ParameterStore().save(path, entries)
    back = ParameterStore.read_entries(path)
    assert list(back) == sorted(entries)
    for name, arr in entries.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.astype("<f8").tobytes()


def test_latest_checkpoint_orders_epochs_by_number(tmp_path):
    for epoch in (998, 999, 1000):
        small_store(seed=epoch).save(tmp_path / f"epoch_{epoch:03d}.fpck")
    small_store().save(tmp_path / "epoch_last.fpck")  # no epoch number: never picked
    assert latest_checkpoint(tmp_path) == tmp_path / "epoch_1000.fpck"
    (tmp_path / "epoch_1000.fpck").write_bytes(b"FPCK")  # unreadable: skipped
    assert latest_checkpoint(tmp_path) == tmp_path / "epoch_999.fpck"


def test_checkpoint_with_legacy_best_val_pck_loads(tmp_path):
    cfg = ModelConfig(n_points=16, width=16, image_hw=16, joint_feat_dim=4,
                      head_hidden=8)
    _, store = build_model(cfg, seed=1)
    current = tmp_path / "current.fpck"
    save_checkpoint(store, current, cfg, TrainState(epoch=3, step=12, seed=1))
    extra = {k: v for k, v in ParameterStore.read_entries(current).items()
             if k.startswith("__")}
    legacy = tmp_path / "legacy.fpck"
    store.save(legacy, {**extra, "__state__.best_val_pck": np.asarray(71.5)})
    _, fresh = build_model(cfg, seed=2)
    state = load_checkpoint(fresh, legacy, cfg)
    assert (state.epoch, state.step, state.seed) == (3, 12, 1)
    for path, t in store.items():
        np.testing.assert_array_equal(fresh[path].data, t.data)


def test_adam_deterministic_and_descends():
    def run():
        store = ParameterStore(seed=5)
        w = store.weight("w", (4, 4))
        opt = Adam(store, step_size=0.05)
        target = np.eye(4)
        losses = []
        for _ in range(50):
            diff = w.data - target
            losses.append(float((diff * diff).sum()))
            opt.step({"w": 2.0 * diff})
        return losses, w.data.copy()

    losses1, w1 = run()
    losses2, w2 = run()
    assert losses1 == losses2
    np.testing.assert_array_equal(w1, w2)
    assert losses1[-1] < 0.05 * losses1[0]


def test_adam_updates_in_place_with_the_bits_of_the_out_of_place_formula():
    _, store = build_model(CFG, seed=1)
    opt = Adam(store, step_size=0.01)
    arrays = {path: t.data for path, t in store.items()}
    state = dict(store.state)
    want = {path: a.copy() for path, a in arrays.items()}
    want_m = {path: np.zeros_like(a) for path, a in arrays.items()}
    want_v = {path: np.zeros_like(a) for path, a in arrays.items()}
    b1, b2 = opt.beta1, opt.beta2
    rng = np.random.default_rng(3)
    for t in (1.0, 2.0, 3.0):
        grads = {path: rng.standard_normal(a.shape) for path, a in arrays.items()}
        opt.step(grads)
        for path, g in grads.items():  # the reference, out of place
            want_m[path] = b1 * want_m[path] + (1.0 - b1) * g
            want_v[path] = b2 * want_v[path] + (1.0 - b2) * (g * g)
            update = ((want_m[path] / (1.0 - b1 ** t))
                      / (np.sqrt(want_v[path] / (1.0 - b2 ** t)) + opt.eps))
            want[path] = want[path] - opt.step_size * update
        assert all(store[path].data is a for path, a in arrays.items())
        assert store.state.keys() == state.keys()
        assert all(store.state[key] is a for key, a in state.items())
        assert float(store.state["__opt__.t"]) == t
        for path in arrays:
            assert store[path].data.tobytes() == want[path].tobytes(), path
            assert store.state[f"__opt__.m.{path}"].tobytes() == want_m[path].tobytes()
            assert store.state[f"__opt__.v.{path}"].tobytes() == want_v[path].tobytes()
