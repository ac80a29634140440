import csv
import dataclasses
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import fusionpose
from fusionpose import cli, train
from fusionpose.cli import main
from fusionpose.config import load_config
from fusionpose.dataio import InstanceDataset, load_split
from fusionpose.errors import FusionPoseError, InvalidInputError
from fusionpose.evaluate import export_poses
from fusionpose.metrics import pck
from fusionpose.model import FusionPoseModel, build_model
from fusionpose.params import ParameterStore
from fusionpose.synthdata import (BodyModel, GaitAmplitudes, MotionScript, pose_at,
                                  simulate_lidar)
from fusionpose.synthdata.generate import SceneConfig, child_seed, generate_dataset
from fusionpose.synthdata.seqfile import read_sequence
from fusionpose.train import (LOSS_NAMES, Trainer, TrainingAborted, TrainState,
                              latest_checkpoint, save_checkpoint)
from support import read_exported_poses

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


def test_each_eval_mode_writes_its_own_default_report(workdir, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG
                       .replace("paths.dataset_dir = data",
                                f"paths.dataset_dir = {workdir / 'data'}")
                       .replace("optim.epochs = 2", "optim.epochs = 1"))
    assert main(["train", "--config", str(cfgfile)]) == 0
    reports = tmp_path / "reports"
    assert main(["eval", "--config", str(cfgfile)]) == 0
    model_only = {name: (reports / name).read_bytes()
                  for name in ("metrics_val.csv", "metrics_val_windows.csv")}
    for flag in ("--baseline", "--oracle"):
        assert main(["eval", "--config", str(cfgfile), flag]) == 0
        name = f"metrics_val_{flag[2:]}.csv"
        assert f"report: {reports / name}" in capsys.readouterr().out
        assert (reports / name).read_bytes() != model_only["metrics_val.csv"]
        assert (reports / f"metrics_val_{flag[2:]}_windows.csv").exists()
    for name, data in model_only.items():
        assert (reports / name).read_bytes() == data
    assert "\nval,100.0," in (reports / "metrics_val_oracle.csv").read_text()


def test_export_gt_scores_pck_100(workdir, tmp_path):
    cfg = cfg_path(workdir)
    out = tmp_path / "gt_poses.csv"
    assert main(["export-poses", "--config", cfg, "--gt", "--out", str(out)]) == 0
    exported = read_exported_poses(out)
    assert exported

    run_cfg = load_config(cfg)
    data = InstanceDataset(load_split(run_cfg.path("dataset_dir"), "val"),
                           run_cfg.model_config())
    checked = 0
    for sample in data.samples:
        for fs in sample.frames:
            key = (sample.sequence_name, sample.track_id, fs.frame_index)
            if key in exported:
                assert pck(exported[key], fs.gt_pose3d) == 100.0
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


def test_resume_reproduces_uninterrupted_trajectory(workdir, tmp_path, monkeypatch):
    """In one process and with the worker, which is forked after the
    checkpoint is loaded and Adam is rebuilt on it."""
    for worker in (False, True):
        monkeypatch.setattr(train, "_second_core", lambda on=worker: on)
        straight, resumed = tmp_path / f"straight_{worker}", tmp_path / f"resumed_{worker}"
        assert main(["train", "--config", str(_run_cfg(workdir, straight, 4))]) == 0
        assert main(["train", "--config", str(_run_cfg(workdir, resumed, 2))]) == 0
        assert main(["train", "--config", str(_run_cfg(workdir, resumed, 4))]) == 0
        # epochs 0..1 are kept from the first run, 2..3 match the straight run
        log = Path("reports") / "loss_log.csv"
        assert (straight / log).read_text() == (resumed / log).read_text()
        last = Path("ckpt") / "epoch_003.fpck"
        assert (straight / last).read_bytes() == (resumed / last).read_bytes()
    assert not multiprocessing.active_children()


def _run_cfg(workdir, tree: Path, epochs: int) -> Path:
    """A tiny run config in ``tree`` that reads the shared dataset."""
    tree.mkdir(parents=True, exist_ok=True)
    cfgfile = tree / "run.cfg"
    cfgfile.write_text(TINY_CFG
                       .replace("paths.dataset_dir = data",
                                f"paths.dataset_dir = {workdir / 'data'}")
                       .replace("optim.epochs = 2", f"optim.epochs = {epochs}"))
    return cfgfile


def _flip(blob: bytes, marker: bytes, k: int, mask: int) -> bytes:
    """XOR ``mask`` into the k-th byte after the first ``marker``."""
    pos = blob.index(marker) + k
    return blob[:pos] + bytes([blob[pos] ^ mask]) + blob[pos + 1:]


@pytest.mark.parametrize("marker, k, mask", [
    (b"__state__.epoch", 23, 0x40),  # top byte of 1.0: epoch becomes inf
    (b"__state__.epoch", 23, 0x80),  # sign bit: epoch becomes -1.0
    (b"__opt__.m.", 10, 0x01),  # one letter of an Adam moment's parameter path
])
def test_checkpoint_that_parses_but_cannot_be_used_exits_3(workdir, tmp_path, capsys,
                                                           marker, k, mask):
    cfgfile = _run_cfg(workdir, tmp_path, 1)
    assert main(["train", "--config", str(cfgfile)]) == 0
    ckpt = tmp_path / "ckpt" / "epoch_000.fpck"
    ckpt.write_bytes(_flip(ckpt.read_bytes(), marker, k, mask))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfgfile), "--checkpoint", str(ckpt)]) == 3
    assert str(ckpt) in capsys.readouterr().err
    resumed = _run_cfg(workdir, tmp_path, 2)
    assert main(["train", "--config", str(resumed)]) == 3
    assert str(ckpt) in capsys.readouterr().err


def test_resume_skips_unreadable_newest_checkpoint(workdir, tmp_path, caplog):
    cfgfile = _run_cfg(workdir, tmp_path, 2)
    assert main(["train", "--config", str(cfgfile)]) == 0
    rows = (tmp_path / "reports" / "loss_log.csv").read_text().splitlines()
    newest = tmp_path / "ckpt" / "epoch_001.fpck"
    blob = newest.read_bytes()
    newest.write_bytes(blob[: len(blob) // 2])

    # eval without --checkpoint resolves the same way as resume
    older = tmp_path / "ckpt" / "epoch_000.fpck"
    metrics = tmp_path / "reports" / "metrics_val.csv"
    assert main(["eval", "--config", str(cfgfile)]) == 0
    assert f"skipping unreadable checkpoint: {newest}" in caplog.text
    resolved = metrics.read_bytes()
    assert main(["eval", "--config", str(cfgfile), "--checkpoint", str(older)]) == 0
    assert metrics.read_bytes() == resolved
    caplog.clear()

    assert main(["train", "--config", str(cfgfile)]) == 0
    assert f"skipping unreadable checkpoint: {newest}" in caplog.text
    resumed = (tmp_path / "reports" / "loss_log.csv").read_text().splitlines()
    # resumed from epoch_000: epoch 1 is trained again, to the same bytes
    assert resumed == rows
    assert newest.read_bytes() == blob


def test_resumed_loss_log_matches_uninterrupted_run(workdir, tmp_path):
    cfgfile = _run_cfg(workdir, tmp_path, 2)
    assert main(["train", "--config", str(cfgfile)]) == 0
    log = tmp_path / "reports" / "loss_log.csv"
    straight = log.read_bytes()
    (tmp_path / "ckpt" / "epoch_001.fpck").unlink()
    assert main(["train", "--config", str(cfgfile)]) == 0
    assert log.read_bytes() == straight
    # a run restarted from scratch starts a new log
    assert main(["train", "--config", str(cfgfile), "--no-resume"]) == 0
    assert log.read_bytes() == straight


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


def test_version_1_sequence_file_exits_2(workdir, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for src in (workdir / "data").iterdir():
        blob = bytearray(src.read_bytes())
        if src.suffix == ".fpseq":
            blob[6:10] = (1).to_bytes(4, "little")  # the u32 after the magic
        (data / src.name).write_bytes(bytes(blob))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG.replace("paths.dataset_dir = data",
                                        f"paths.dataset_dir = {data}"))
    assert main(["eval", "--config", str(cfgfile), "--oracle"]) == 2
    err = capsys.readouterr().err
    assert "unsupported version 1" in err and "regenerate" in err


def test_non_finite_calibration_in_sequence_file_exits_2(workdir, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for src in (workdir / "data").iterdir():
        blob = bytearray(src.read_bytes())
        if src.suffix == ".fpseq":
            blob[21:29] = struct.pack("<d", float("nan"))  # fx, after the header
        (data / src.name).write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError, match="finite"):
        read_sequence(data / "val_000.fpseq")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG.replace("paths.dataset_dir = data",
                                        f"paths.dataset_dir = {data}"))
    assert main(["eval", "--config", str(cfgfile), "--oracle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fusionpose: error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("line, command", [
    ("paths.report_dir = {afile}", ["train"]),
    ("paths.checkpoint_dir = {afile}", ["train"]),
    ("paths.dataset_dir = {afile}", ["generate"]),
    ("", ["eval", "--checkpoint", "{tmp}"]),
    ("", ["eval", "--baseline", "--out", "{afile}/x.csv"]),
], ids=["report_dir", "checkpoint_dir", "dataset_dir", "checkpoint_is_dir",
        "out_under_file"])
def test_paths_the_os_refuses_exit_2(workdir, tmp_path, capsys, line, command):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG.replace("paths.dataset_dir = data",
                                        f"paths.dataset_dir = {workdir / 'data'}")
                       + line.format(afile=afile) + "\n")  # a later key wins
    argv = [arg.format(afile=afile, tmp=tmp_path) for arg in command]
    assert main([*argv, "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fusionpose: error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", [["eval"], ["ablate", "--study", "density"]],
                         ids=["eval", "ablate"])
def test_a_refused_out_path_fails_before_the_work(workdir, tmp_path, capsys, monkeypatch,
                                                  command):
    def the_work(*args, **kwargs):
        raise AssertionError("the pass ran before --out was resolved")

    monkeypatch.setattr(cli, "evaluate_dataset", the_work)
    monkeypatch.setattr(cli, "run_study", the_work)
    cfg = load_config(cfg_path(workdir))
    _, store = build_model(cfg.model_config(), cfg.seed)
    checkpoint = tmp_path / "epoch_000.fpck"
    save_checkpoint(store, checkpoint, cfg.model_config(), TrainState(seed=cfg.seed))
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    assert main([*command, "--config", cfg_path(workdir), "--checkpoint", str(checkpoint),
                 "--out", str(afile / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fusionpose: error:") and len(err.strip().splitlines()) == 1


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


def test_non_finite_gradient_aborts_before_the_optimizer_step(workdir, monkeypatch):
    monkeypatch.setattr(train, "_second_core", lambda: True)  # and stops the worker
    cfg = load_config(cfg_path(workdir))
    data = InstanceDataset(load_split(cfg.path("dataset_dir"), "train"),
                           cfg.model_config())
    model, store = build_model(cfg.model_config(), cfg.seed)
    trainer = Trainer(cfg, data, model, store)
    poisoned = store.paths()[len(store.paths()) // 2]

    def nan_gradients(model, store, dataset, batch, weights, bone_samples, worker):
        grads = {path: np.zeros_like(t.data) for path, t in store.items()}
        grads[poisoned].flat[-1] = np.nan
        return grads, {name: 1.0 for name in (*LOSS_NAMES, "total")}

    monkeypatch.setattr(train, "batch_gradients", nan_gradients)
    params = {p: t.data.copy() for p, t in store.items()}
    moments = {k: v.copy() for k, v in store.state.items()}
    with pytest.raises(TrainingAborted, match=f"gradient of {poisoned} at step 0"):
        trainer.train(checkpoint_dir=None, epochs=1)
    for p, t in store.items():
        np.testing.assert_array_equal(t.data, params[p])
    assert store.state.keys() == moments.keys()
    for k, v in store.state.items():
        np.testing.assert_array_equal(v, moments[k])
    assert trainer.state.step == 0
    assert not multiprocessing.active_children()


def test_a_killed_worker_aborts_training_and_keeps_the_checkpoint(
        workdir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(train, "_second_core", lambda: True)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG.replace("paths.dataset_dir = data",
                                        f"paths.dataset_dir = {workdir / 'data'}"))
    saved, killed = [], []
    save_checkpoint, batch_gradients = train.save_checkpoint, train.batch_gradients

    def saving(*args):
        save_checkpoint(*args)
        saved.append(Path(args[1]).read_bytes())

    def killing(*args):
        worker = args[-1]
        if saved and not killed:  # the first step of epoch 1
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(timeout=10)
            killed.append(worker.process.exitcode)
        return batch_gradients(*args)

    monkeypatch.setattr(train, "save_checkpoint", saving)
    monkeypatch.setattr(train, "batch_gradients", killing)
    assert main(["train", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert killed == [-signal.SIGKILL]
    assert len(err) == 1 and err[0].startswith("fusionpose: error: ")
    assert "training worker stopped (exit code -9); last checkpoint kept" in err[0]
    ckpts = sorted((tmp_path / "ckpt").glob("*.fpck"))
    assert [p.name for p in ckpts] == ["epoch_000.fpck"]
    assert ckpts[0].read_bytes() == saved[0]
    assert not multiprocessing.active_children()


def test_cli_pins_blas_threads_before_numpy_loads(tmp_path):
    probe = textwrap.dedent("""
        import os, sys
        seen = []
        class Spy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append([os.environ.get(v) for v in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")])
        sys.meta_path.insert(0, Spy())
        import fusionpose.cli
        print(*seen[0])
        sys.exit(fusionpose.cli.main(["generate", "--config", "missing.cfg"]))
    """)
    src = str(Path(fusionpose.__file__).parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src

    def numpy_sees(**extra):
        out = subprocess.run([sys.executable, "-c", probe], env={**env, **extra},
                             cwd=tmp_path, capture_output=True, text=True)
        assert out.returncode == 2
        err = out.stderr.splitlines()
        assert err[-1].startswith("fusionpose: error:")
        return out.stdout.split(), err[:-1]

    assert numpy_sees() == (["1", "1"], [])
    assert numpy_sees(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1") == (["1", "1"], [])
    # a count the host sets is replaced, and the command says so in one
    # line that is not an error
    for extra in ({"OPENBLAS_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "2"},
                  {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "4"}):
        seen, notes = numpy_sees(**extra)
        assert seen == ["1", "1"]
        assert len(notes) == 1 and notes[0].startswith("fusionpose: note:"), notes
        assert all(f"{var}={value}" in notes[0] for var, value in extra.items())


def test_outputs_are_byte_identical_at_two_blas_threads(tmp_path):
    # width 64 and up to 128 points per crop: OpenBLAS splits some of these
    # products differently at 2 threads, so the checkpoint and both eval
    # reports differ unless the CLI pins one thread
    cfgtext = (TINY_CFG.replace("model.width = 32", "model.width = 64")
               .replace("model.n_points = 32", "model.n_points = 128")
               .replace("optim.epochs = 2", "optim.epochs = 1"))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(fusionpose.__file__).parents[1])

    def run(name, **threads):
        root = tmp_path / name
        root.mkdir()
        (root / "run.cfg").write_text(cfgtext)
        for command in (["generate"], ["train"], ["eval"]):
            proc = subprocess.run([sys.executable, "-m", "fusionpose.cli", *command,
                                   "--config", "run.cfg"], cwd=root, env={**env, **threads},
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ("fusionpose: note: OPENBLAS_NUM_THREADS=2 "
                                   "OMP_NUM_THREADS=2 replaced by 1 thread, so that "
                                   "outputs do not depend on the thread count\n"
                                   if threads else "")
        return {path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    default = run("default")
    two = run("two", OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    assert len(default) == 8 and default.keys() == two.keys()
    assert [name for name in default if default[name] != two[name]] == []


def test_cli_import_loads_no_scipy():
    """Association has its own solver: scipy is a test oracle only."""
    probe = "import sys, fusionpose.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(fusionpose.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def test_checkpoint_model_mismatch_exits_3(workdir, tmp_path):
    cfg = load_config(cfg_path(workdir))
    _, store = build_model(cfg.model_config(), seed=cfg.seed)
    (tmp_path / "ckpt").mkdir()
    save_checkpoint(store, tmp_path / "ckpt" / "epoch_000.fpck", cfg.model_config(),
                    TrainState(seed=cfg.seed))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG
                       .replace("paths.dataset_dir = data",
                                f"paths.dataset_dir = {workdir / 'data'}")
                       .replace("model.width = 32", "model.width = 64")
                       .replace("paths.checkpoint_dir = ckpt",
                                f"paths.checkpoint_dir = {tmp_path / 'ckpt'}"))
    assert main(["eval", "--config", str(cfgfile)]) == 3


@pytest.mark.parametrize("line, named", [
    ("model.width = 64", "model.width=32 does not match configured 64"),
    ("model.joint_feat_dim = 4", "model.joint_feat_dim=8 does not match configured 4"),
    ("model.head_hidden = 8", "model.head_hidden=16 does not match configured 8"),
    ("model.fusion = local", "model.fusion=ipa does not match configured local"),
])
def test_changed_model_key_is_named_on_load(workdir, tmp_path, capsys, line, named):
    cfg = load_config(cfg_path(workdir))
    _, store = build_model(cfg.model_config(), seed=cfg.seed)
    ckpt = tmp_path / "epoch_000.fpck"
    save_checkpoint(store, ckpt, cfg.model_config(), TrainState(seed=cfg.seed))
    changed = tmp_path / "changed.cfg"
    changed.write_text(Path(cfg_path(workdir)).read_text() + line + "\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(changed), "--checkpoint", str(ckpt)]) == 3
    assert f"{ckpt}: checkpoint {named}" in capsys.readouterr().err


def test_checkpoint_with_a_stale_n_points_entry_loads(workdir, tmp_path):
    cfg = load_config(cfg_path(workdir))
    _, store = build_model(cfg.model_config(), seed=cfg.seed)
    current = tmp_path / "current.fpck"
    save_checkpoint(store, current, cfg.model_config(), TrainState(seed=cfg.seed))
    extra = {k: v for k, v in ParameterStore.read_entries(current).items()
             if k.startswith("__")}
    assert "__cfg__.n_points" not in extra and "__cfg__.n_joints" not in extra
    # written before n_points and n_joints left the signature
    legacy = tmp_path / "legacy.fpck"
    store.save(legacy, {**extra, "__cfg__.n_points": np.asarray(64.0),
                        "__cfg__.n_joints": np.asarray(21.0)})
    out = tmp_path / "metrics.csv"
    args = ["eval", "--checkpoint", str(legacy), "--out", str(out)]
    assert main([*args, "--config", cfg_path(workdir)]) == 0
    wide = tmp_path / "wide.cfg"
    wide.write_text(TINY_CFG
                    .replace("paths.dataset_dir = data",
                             f"paths.dataset_dir = {workdir / 'data'}")
                    .replace("model.width = 32", "model.width = 64"))
    assert main([*args, "--config", str(wide)]) == 3


def test_bad_config_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("model.n_points = 0\n")
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


@pytest.mark.parametrize("command", [
    ["eval", "--oracle", "--baseline"],
    ["eval", "--oracle", "--checkpoint", "{ckpt}"],
    ["eval", "--baseline", "--checkpoint", "{ckpt}"],
    ["export-poses", "--gt", "--checkpoint", "{ckpt}"],
], ids=["eval_oracle_baseline", "eval_oracle_checkpoint", "eval_baseline_checkpoint",
        "export_gt_checkpoint"])
def test_conflicting_flags_exit_2_and_write_nothing(workdir, tmp_path, capsys, command):
    cfg = load_config(cfg_path(workdir))
    _, store = build_model(cfg.model_config(), cfg.seed)
    ckpt = tmp_path / "epoch_000.fpck"
    save_checkpoint(store, ckpt, cfg.model_config(), TrainState(seed=cfg.seed))
    reports = sorted((workdir / "reports").rglob("*"))
    argv = [arg.format(ckpt=ckpt) for arg in command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", cfg_path(workdir), "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [ckpt]
    assert sorted((workdir / "reports").rglob("*")) == reports


@pytest.mark.parametrize("line, key", [
    ("seed = -1", "seed"),
    ("scene.raster_h = 0", "scene.raster_h"),
    ("scene.raster_w = 0", "scene.raster_w"),
    ("scene.val_fraction = nan", "scene.val_fraction"),
    ("scene.val_fraction = 1.5", "scene.val_fraction"),
    ("model.image_hw = 30", "model.image_hw"),
    ("model.width = 30", "model.width"),
    ("model.joints = 21", "model.joints"),
    ("ablate.point_budgets = 256,-1", "ablate.point_budgets"),
    ("loss.bone_samples = -1", "loss.bone_samples"),
    ("scene.frames = 4", "scene.frames"),
    ("scene.frames = 6", "scene.frames"),
    ("optim.step_size = -1", "optim.step_size"),
    ("optim.step_size = nan", "optim.step_size"),
    ("optim.epochs = -3", "optim.epochs"),
    ("assoc.iou_threshold = nan", "assoc.iou_threshold"),
    ("assoc.gate_distance = 0", "assoc.gate_distance"),
    ("assoc.max_misses = -1", "assoc.max_misses"),
    ("ablate.point_budgets =", "ablate.point_budgets"),
    ("ablate.point_budgets = 8,,16", "ablate.point_budgets"),
    ("scene.frames = 8\nmodel.window = 6", "model.window"),
])
def test_config_values_that_cannot_run_exit_2(tmp_path, capsys, line, key):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG.replace("seed = 3\n", "") + line + "\n")
    for command in (["generate"], ["train"], ["eval"], ["ablate", "--study", "density"]):
        assert main([*command, "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fusionpose: error:") and key in err
    assert not (tmp_path / "data").exists()


# Keys that once set the fixed sensor rig, the noise, the Adam betas, the
# overfit / warm-start modes, the loss weights and the occlusion fraction,
# each at its former default value.
_REMOVED_KEYS = {
    "scene.frame_rate_hz": "10.0",
    "scene.kp_noise_sigma_px": "1.0",
    "scene.joint_drop_prob": "0.03",
    "lidar.beams": "32",
    "lidar.azimuth_step_deg": "0.4",
    "lidar.vertical_fov_deg": "30.0",
    "lidar.azimuth_fov_deg": "90.0",
    "lidar.range_sigma_m": "0.01",
    "lidar.max_range_m": "60.0",
    "lidar.drop_prob": "0.02",
    "jitter.center_sigma_m": "0.03",
    "jitter.box2d_sigma_px": "1.0",
    "optim.beta1": "0.9",
    "optim.beta2": "0.999",
    "optim.overfit_steps": "0",
    "optim.warm_start_epochs": "0",
    "loss.lambda_motion": "1.0",
    "loss.lambda_consistency": "0.1",
    "loss.lambda_proj": "1.0",
    "loss.lambda_cd_agu": "0.5",
    "ablate.occlusion_fraction": "0.6",
}


@pytest.mark.parametrize("key", sorted(_REMOVED_KEYS))
def test_removed_keys_exit_2(tmp_path, capsys, key):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG + f"{key} = {_REMOVED_KEYS[key]}\n")
    for command in (["generate"], ["train"], ["eval"], ["export-poses"],
                    ["ablate", "--study", "density"]):
        assert main([*command, "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fusionpose: error:") and f"unknown key {key!r}" in err
    assert not (tmp_path / "data").exists()


def test_negative_env_seed_exits_2(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG)
    monkeypatch.setenv("FUSIONPOSE_SEED", "-1")
    assert main(["generate", "--config", str(cfgfile)]) == 2
    assert "FUSIONPOSE_SEED" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def _finishes_or_fails_cleanly(argv, capsys) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    if code:
        assert err.startswith("fusionpose: error:") and len(err.strip().splitlines()) == 1
    return code


def test_people_leaving_the_view_finish_or_fail_cleanly(tmp_path, capsys):
    # one person walks out of the LiDAR sector and the camera frustum;
    # the other stands still behind the sensor
    frames = 20
    end = (frames - 1) / SceneConfig.frame_rate_hz
    walker = MotionScript(((0.0, 6.0, -1.0), (end, 6.0, 11.0)))
    behind = MotionScript(((0.0, -4.0, 0.0), (end, -4.0, 0.01)),
                          amplitudes=GaitAmplitudes(0.0, 0.0, 0.0, 0.0))
    scene = SceneConfig(persons=((BodyModel(), walker), (BodyModel(), behind)),
                        frame_count=frames, raster_h=64, raster_w=64, val_fraction=0.35,
                        seed=3)
    data = tmp_path / "data"
    generate_dataset(scene, data)
    written = [frame for split in ("train", "val")
               for frame in read_sequence(data / f"{split}_000.fpseq").frames]
    hits = []
    for f, frame in enumerate(written):
        posed = [(pose_at(script, body, f / scene.frame_rate_hz), body)
                 for body, script in scene.persons]
        _, labels = simulate_lidar(posed, scene.lidar, seed=child_seed(scene.seed, 1, f))
        hits.append(np.bincount(labels, minlength=2))
        for pid, person in enumerate(frame.persons):
            assert (person.det3d is None) == (hits[-1][pid] == 0)
    hits = np.array(hits)
    assert hits[0, 0] > 0 and hits[-1, 0] == 0 and not hits[:, 1].any()
    assert written[0].raster[..., 1].any() and not written[-1].raster[..., 1].any()

    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG.replace("paths.dataset_dir = data",
                                        f"paths.dataset_dir = {data}"))
    cfg = load_config(cfgfile)
    for split in ("train", "val"):
        try:
            dataset = InstanceDataset(load_split(data, split), cfg.model_config(),
                                      cfg.iou_threshold, cfg.gate_distance,
                                      cfg.max_misses)
        except FusionPoseError:
            continue
        assert dataset.samples
    trained = _finishes_or_fails_cleanly(["train", "--config", str(cfgfile)], capsys) == 0
    for extra in [["--oracle"], ["--baseline"]] + [[]] * trained:
        _finishes_or_fails_cleanly(["eval", "--config", str(cfgfile), *extra], capsys)


def test_a_scene_with_every_keypoint_invisible_runs_through_the_cli(tmp_path, capsys):
    # no 2D supervision at all: only the point cloud (Chamfer) can train
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CFG.replace("optim.epochs = 2", "optim.epochs = 1"))
    cfg = load_config(cfgfile)
    generate_dataset(dataclasses.replace(cfg.scene_config(), joint_drop_prob=1.0),
                     cfg.path("dataset_dir"))
    frames = read_sequence(cfg.path("dataset_dir") / "train_000.fpseq").frames
    assert not any(person.visibility.any() for frame in frames for person in frame.persons)

    assert main(["train", "--config", str(cfgfile)]) == 0
    with open(tmp_path / "reports" / "loss_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert float(row["motion"]) == float(row["proj"]) == 0.0
        assert np.isfinite(float(row["cd_agu"])) and float(row["cd_agu"]) > 0.0
    capsys.readouterr()

    assert main(["eval", "--config", str(cfgfile)]) == 0
    line = capsys.readouterr().out.splitlines()[-2]
    scores = dict(part.split("=") for part in line.split())
    assert np.isfinite(float(scores["pck"])) and int(scores["n"]) > 0
    assert main(["export-poses", "--config", str(cfgfile),
                 "--out", str(tmp_path / "poses.csv")]) == 0
    assert read_exported_poses(tmp_path / "poses.csv")
    assert main(["ablate", "--study", "occlusion", "--config", str(cfgfile)]) == 0
    arms = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("occlusion/")]
    assert arms and all(np.isfinite(float(line.split("pck=")[1].split()[0]))
                        for line in arms)
