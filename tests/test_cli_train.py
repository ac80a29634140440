import csv
from pathlib import Path

import numpy as np
import pytest

from fusionpose.cli import main
from fusionpose.config import load_config
from fusionpose.dataio import InstanceDataset, load_split
from fusionpose.evaluate import export_poses, read_exported_poses
from fusionpose.geometry import default_skeleton
from fusionpose.metrics import pck
from fusionpose.model import FusionPoseModel
from fusionpose.params import ParameterStore
from fusionpose.train import Trainer, TrainState, latest_checkpoint, save_checkpoint

TINY_CFG = """
seed = 3
paths.dataset_dir = data
paths.checkpoint_dir = ckpt
paths.report_dir = reports
model.n_points = 32
model.width = 32
model.image_hw = 16
model.joint_feat_dim = 8
model.head_hidden = 16
scene.persons = 2
scene.frames = 14
scene.raster_h = 64
scene.raster_w = 64
scene.val_fraction = 0.35
optim.epochs = 2
optim.batch_size = 4
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG)
    assert main(["generate", "--config", str(cfg)]) == 0
    return root


def cfg_path(workdir) -> str:
    return str(workdir / "run.cfg")


def test_generate_is_deterministic(workdir, tmp_path):
    other = tmp_path / "again"
    cfg2 = tmp_path / "run.cfg"
    cfg2.write_text(TINY_CFG.replace("paths.dataset_dir = data",
                                     f"paths.dataset_dir = {other}"))
    assert main(["generate", "--config", str(cfg2)]) == 0
    a = (workdir / "data" / "train_000.fpseq").read_bytes()
    b = (other / "train_000.fpseq").read_bytes()
    assert a == b


def test_train_eval_export_round_trip(workdir, capsys):
    cfg = cfg_path(workdir)
    assert main(["train", "--config", cfg]) == 0
    assert latest_checkpoint(workdir / "ckpt") is not None
    log = workdir / "reports" / "loss_log.csv"
    with open(log, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {"epoch", "step", "motion", "consistency", "proj", "cd_agu", "total"} \
        <= set(rows[0])

    assert main(["eval", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "pck=" in out
    metrics = workdir / "reports" / "metrics_val.csv"
    assert metrics.exists()
    assert (workdir / "reports" / "metrics_val_windows.csv").exists()


def test_eval_oracle_scores_perfectly(workdir, capsys):
    assert main(["eval", "--config", cfg_path(workdir), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "pck=100.00" in out and "mpjpe_mm=0.00" in out


def test_eval_untrained_model_is_finite(workdir, tmp_path, capsys):
    # fresh checkpoint dir: train 0 epochs just to materialize a checkpoint
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG
                       .replace("paths.dataset_dir = data",
                                f"paths.dataset_dir = {workdir / 'data'}")
                       .replace("optim.epochs = 2", "optim.epochs = 1"))
    assert main(["train", "--config", str(cfgfile)]) == 0
    assert main(["eval", "--config", str(cfgfile)]) == 0
    line = capsys.readouterr().out.splitlines()[-2]
    values = dict(part.split("=") for part in line.split())
    assert np.isfinite(float(values["pck"]))
    assert np.isfinite(float(values["mpjpe_mm"]))


def test_export_gt_scores_pck_100(workdir, tmp_path):
    cfg = cfg_path(workdir)
    out = tmp_path / "gt_poses.csv"
    assert main(["export-poses", "--config", cfg, "--gt", "--out", str(out)]) == 0
    exported = read_exported_poses(out)
    assert exported

    run_cfg = load_config(cfg)
    data = InstanceDataset(load_split(run_cfg.path("dataset_dir"), "val"),
                           run_cfg.model_config())
    spec = default_skeleton()
    checked = 0
    for sample in data.samples:
        for fs in sample.frames:
            key = (sample.sequence_name, sample.track_id, fs.frame_index)
            if key in exported:
                assert pck(exported[key], fs.gt_pose3d, spec.root_index) == 100.0
                checked += 1
    assert checked > 0


def test_export_row_count(workdir, tmp_path):
    cfg = load_config(cfg_path(workdir))
    data = InstanceDataset(load_split(cfg.path("dataset_dir"), "val"),
                           cfg.model_config())
    out = tmp_path / "poses.csv"
    assert main(["export-poses", "--config", cfg_path(workdir), "--gt",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        n_rows = sum(1 for _ in fh) - 1
    expected = sum(len(s.frames) for s in data.samples) * 21
    assert n_rows == expected


def test_exported_predictions_round_trip_exactly(workdir, tmp_path):
    cfg = load_config(cfg_path(workdir))
    data = InstanceDataset(load_split(cfg.path("dataset_dir"), "val"),
                           cfg.model_config())
    store = ParameterStore(seed=1)
    model = FusionPoseModel(cfg.model_config(), store)
    from fusionpose.evaluate import export_poses
    out = tmp_path / "pred.csv"
    export_poses(model, data, out)
    exported = read_exported_poses(out)
    sample = data.samples[0]
    outs = model.forward(data.model_frames(sample))
    key = (sample.sequence_name, sample.track_id, sample.frames[0].frame_index)
    np.testing.assert_array_equal(exported[key], outs[0].final_pose.data)


def test_export_matches_per_window_forward_byte_for_byte(workdir, tmp_path):
    cfg = load_config(cfg_path(workdir))
    data = InstanceDataset(load_split(cfg.path("dataset_dir"), "val"),
                           cfg.model_config())
    model = FusionPoseModel(cfg.model_config(), ParameterStore(seed=2))
    out = tmp_path / "pred.csv"
    export_poses(model, data, out)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence", "track_id", "frame", "joint", "x", "y", "z"])
        for sample in data.samples:
            outs = model.forward(data.model_frames(sample))
            for fs, o in zip(sample.frames, outs):
                for j, xyz in enumerate(o.final_pose.data):
                    writer.writerow([sample.sequence_name, sample.track_id,
                                     fs.frame_index, j,
                                     *(repr(float(v)) for v in xyz)])
    assert out.read_bytes() == reference.read_bytes()


def test_truncated_checkpoint_exits_3(workdir, tmp_path, capsys):
    cfg = cfg_path(workdir)
    good = tmp_path / "good.fpck"
    bad = tmp_path / "bad.fpck"
    store = ParameterStore(seed=1)
    model_cfg = load_config(cfg).model_config()
    FusionPoseModel(model_cfg, store)
    save_checkpoint(store, good, model_cfg, TrainState())
    bad.write_bytes(good.read_bytes()[:-5])
    assert main(["eval", "--config", cfg, "--checkpoint", str(bad)]) == 3
    assert "truncated" in capsys.readouterr().err


def test_resume_reproduces_uninterrupted_trajectory(workdir, tmp_path):
    data_dir = workdir / "data"

    def make(tree: Path, epochs: int) -> Path:
        tree.mkdir(parents=True, exist_ok=True)
        cfgfile = tree / "run.cfg"
        cfgfile.write_text(TINY_CFG
                           .replace("paths.dataset_dir = data",
                                    f"paths.dataset_dir = {data_dir}")
                           .replace("optim.epochs = 2", f"optim.epochs = {epochs}"))
        return cfgfile

    straight = make(tmp_path / "straight", 4)
    assert main(["train", "--config", str(straight)]) == 0
    log_a = (tmp_path / "straight" / "reports" / "loss_log.csv").read_text()

    resumed = make(tmp_path / "resumed", 2)
    assert main(["train", "--config", str(resumed)]) == 0
    resumed4 = make(tmp_path / "resumed", 4)
    assert main(["train", "--config", str(resumed4)]) == 0
    log_b = (tmp_path / "resumed" / "reports" / "loss_log.csv").read_text()

    # the resumed run logs epochs 2..3; they must match the straight run rows
    rows_a = log_a.strip().splitlines()
    rows_b = log_b.strip().splitlines()
    assert rows_a[0] == rows_b[0]
    assert rows_a[3:] == rows_b[1:]


def _run_cfg(workdir, tree: Path, epochs: int) -> Path:
    """A tiny run config in ``tree`` that reads the shared dataset."""
    tree.mkdir(parents=True, exist_ok=True)
    cfgfile = tree / "run.cfg"
    cfgfile.write_text(TINY_CFG
                       .replace("paths.dataset_dir = data",
                                f"paths.dataset_dir = {workdir / 'data'}")
                       .replace("optim.epochs = 2", f"optim.epochs = {epochs}"))
    return cfgfile


def test_resume_skips_unreadable_newest_checkpoint(workdir, tmp_path, caplog):
    cfgfile = _run_cfg(workdir, tmp_path, 2)
    assert main(["train", "--config", str(cfgfile)]) == 0
    rows = (tmp_path / "reports" / "loss_log.csv").read_text().splitlines()
    newest = tmp_path / "ckpt" / "epoch_001.fpck"
    blob = newest.read_bytes()
    newest.write_bytes(blob[: len(blob) // 2])

    assert main(["train", "--config", str(cfgfile)]) == 0
    assert f"skipping unreadable checkpoint: {newest}" in caplog.text
    resumed = (tmp_path / "reports" / "loss_log.csv").read_text().splitlines()
    # resumed from epoch_000: epoch 1 is trained again, to the same bytes
    assert resumed == [rows[0], rows[2]]
    assert newest.read_bytes() == blob


def test_resume_with_changed_model_still_exits_3(workdir, tmp_path, capsys):
    cfgfile = _run_cfg(workdir, tmp_path, 1)
    assert main(["train", "--config", str(cfgfile)]) == 0
    cfgfile.write_text(cfgfile.read_text()
                       .replace("model.width = 32", "model.width = 64")
                       .replace("optim.epochs = 1", "optim.epochs = 2"))
    assert main(["train", "--config", str(cfgfile)]) == 3
    assert "epoch_000.fpck" in capsys.readouterr().err


def test_resume_with_another_seed_exits_3(workdir, tmp_path, capsys, monkeypatch):
    cfgfile = _run_cfg(workdir, tmp_path, 1)
    assert main(["train", "--config", str(cfgfile)]) == 0
    blob = (tmp_path / "ckpt" / "epoch_000.fpck").read_bytes()
    cfgfile.write_text(cfgfile.read_text().replace("optim.epochs = 1",
                                                   "optim.epochs = 2"))
    monkeypatch.setenv("FUSIONPOSE_SEED", "99")
    capsys.readouterr()
    assert main(["train", "--config", str(cfgfile)]) == 3
    err = capsys.readouterr().err
    assert "seed 3" in err and "seed 99" in err
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == ["epoch_000.fpck"]
    assert (tmp_path / "ckpt" / "epoch_000.fpck").read_bytes() == blob


@pytest.mark.parametrize("manifest, where", [
    (b"train\n", "manifest.txt:1:"),
    (b"val val_000.fpseq\ntrain\n", "manifest.txt:2:"),
    (b"\xff\xfetrain train_000.fpseq\n", "manifest.txt: not UTF-8"),
])
def test_malformed_manifest_exits_2(workdir, tmp_path, capsys, manifest, where):
    data = tmp_path / "data"
    data.mkdir()
    for seq in (workdir / "data").glob("*.fpseq"):
        (data / seq.name).write_bytes(seq.read_bytes())
    (data / "manifest.txt").write_bytes(manifest)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG.replace("paths.dataset_dir = data",
                                        f"paths.dataset_dir = {data}"))
    assert main(["eval", "--config", str(cfgfile), "--oracle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fusionpose: error:")
    assert f"{data}/{where}" in err


def test_warm_start_freezes_image_and_fusion_branches(workdir):
    cfg = load_config(cfg_path(workdir))
    cfg.warm_start_epochs = 1
    data = InstanceDataset(load_split(cfg.path("dataset_dir"), "train"),
                           cfg.model_config())
    store = ParameterStore(seed=6)
    model = FusionPoseModel(cfg.model_config(), store)
    before = {p: t.data.copy() for p, t in store.items()}
    trainer = Trainer(cfg, data, model, store)
    trainer.train(checkpoint_dir=None, epochs=1)
    image_paths = [p for p in store.paths()
                   if p.startswith(("image.", "fuse"))]
    point_paths = [p for p in store.paths() if p.startswith("point.")]
    assert image_paths and point_paths
    for p in image_paths:
        np.testing.assert_array_equal(store[p].data, before[p])
    assert any(np.abs(store[p].data - before[p]).max() > 0 for p in point_paths)


def test_zero_weights_leave_parameters_unchanged(workdir):
    cfg = load_config(cfg_path(workdir))
    data = InstanceDataset(load_split(cfg.path("dataset_dir"), "train"),
                           cfg.model_config())
    store = ParameterStore(seed=5)
    model = FusionPoseModel(cfg.model_config(), store)
    before = {p: t.data.copy() for p, t in store.items()}
    trainer = Trainer(cfg, data, model, store,
                      loss_overrides=dict(motion=0.0, consistency=0.0,
                                          proj=0.0, cd_agu=0.0))
    rows = trainer.train(checkpoint_dir=None, epochs=1)
    assert rows[0]["total"] == 0.0
    for p, t in store.items():
        np.testing.assert_array_equal(t.data, before[p])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_loss_aborts_and_keeps_checkpoint(workdir, tmp_path):
    tree = tmp_path / "nan"
    tree.mkdir()
    cfgfile = tree / "run.cfg"
    base = TINY_CFG.replace("paths.dataset_dir = data",
                            f"paths.dataset_dir = {workdir / 'data'}")
    cfgfile.write_text(base.replace("optim.epochs = 2", "optim.epochs = 1"))
    assert main(["train", "--config", str(cfgfile)]) == 0
    good = sorted((tree / "ckpt").glob("epoch_*.fpck"))
    assert good
    blob = good[-1].read_bytes()

    # resume with an explosive step size: epoch 1 must go non-finite
    cfgfile.write_text(base.replace("optim.epochs = 2", "optim.epochs = 6")
                       + "optim.step_size = 1e150\n")
    rc = main(["train", "--config", str(cfgfile)])
    assert rc == 2
    assert good[-1].read_bytes() == blob  # last good checkpoint untouched


def test_checkpoint_model_mismatch_exits_3(workdir, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG
                       .replace("paths.dataset_dir = data",
                                f"paths.dataset_dir = {workdir / 'data'}")
                       .replace("model.width = 32", "model.width = 64")
                       .replace("paths.checkpoint_dir = ckpt",
                                f"paths.checkpoint_dir = {workdir / 'ckpt'}"))
    assert main(["eval", "--config", str(cfgfile)]) == 3


def test_bad_config_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("model.n_points = 100\n")
    assert main(["eval", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fusionpose: error:")
    assert len(err.strip().splitlines()) == 1


def test_missing_config_exits_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "none.cfg")]) == 2


def test_unknown_study_exits_2(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--config", cfg_path(workdir), "--study", "bogus"])
    assert exc.value.code == 2
