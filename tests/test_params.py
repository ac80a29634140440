import builtins

import numpy as np
import pytest

from fusionpose import params
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


def test_checkpoint_round_trip_exact(tmp_path):
    store = ParameterStore(seed=2)
    store.weight("layer.w", (7, 3))
    store.zeros("layer.b", (3,))
    store.from_value("ln.gain", np.ones(4))
    path = tmp_path / "model.fpck"
    store.save(path, extra={"__state__.epoch": np.asarray(5.0)})

    other = ParameterStore(seed=99)
    other.weight("layer.w", (7, 3))
    other.zeros("layer.b", (3,))
    other.from_value("ln.gain", np.zeros(4))
    extra = other.load(path)
    np.testing.assert_array_equal(other["layer.w"].data, store["layer.w"].data)
    np.testing.assert_array_equal(other["ln.gain"].data, np.ones(4))
    assert float(extra["__state__.epoch"]) == 5.0


def test_checkpoint_parameter_set_mismatch(tmp_path):
    store = ParameterStore(seed=3)
    store.weight("a.w", (2, 2))
    path = tmp_path / "m.fpck"
    store.save(path)
    other = ParameterStore(seed=3)
    other.weight("b.w", (2, 2))
    with pytest.raises(CheckpointMismatchError):
        other.load(path)


def test_checkpoint_shape_mismatch(tmp_path):
    store = ParameterStore(seed=4)
    store.weight("w", (2, 3))
    path = tmp_path / "m.fpck"
    store.save(path)
    other = ParameterStore(seed=4)
    other.weight("w", (3, 2))
    with pytest.raises(CheckpointMismatchError):
        other.load(path)


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


class _FailingFile:
    """Writes the first ``budget`` bytes, then fails like a full disk."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[: self.budget])
            raise OSError("no space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    first = tmp_path / "epoch_000.fpck"
    small_store(seed=8).save(first)
    before = first.read_bytes()
    monkeypatch.setattr(params, "open",
                        lambda path, mode: _FailingFile(builtins.open(path, mode), 40),
                        raising=False)
    for target in (tmp_path / "epoch_001.fpck", first):
        with pytest.raises(OSError):
            small_store(seed=9).save(target)
    assert first.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["epoch_000.fpck"]
    assert latest_checkpoint(tmp_path) == first


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
