"""Evaluation encodes each (frame, person) once per pass and still gives
exactly what scoring every window on its own gives."""

import numpy as np
import pytest

from fusionpose.cli import main
from fusionpose.config import load_config
from fusionpose.dataio import InstanceDataset, load_split
from fusionpose.evaluate import WindowScore, evaluate_dataset
from fusionpose.metrics import MetricAccumulator, mpjpe, pck
from fusionpose.model import FusionPoseModel, build_model

TINY_CFG = """
seed = 6
paths.dataset_dir = data
model.n_points = 32
model.width = 32
model.image_hw = 16
model.joint_feat_dim = 8
model.head_hidden = 16
scene.persons = 2
scene.frames = 14
scene.raster_h = 64
scene.raster_w = 64
scene.val_fraction = 0.5
"""

ARMS = [dict(), dict(point_budget=16, seed=6), dict(occlusion=0.6, seed=6)]


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("evaluate")
    (root / "run.cfg").write_text(TINY_CFG)
    assert main(["generate", "--config", str(root / "run.cfg")]) == 0
    cfg = load_config(root / "run.cfg")
    data = InstanceDataset(load_split(cfg.path("dataset_dir"), "val"),
                           cfg.model_config())
    model, _ = build_model(cfg.model_config(), seed=2)
    return data, model


def per_window_reference(model, dataset, point_budget=None, occlusion=0.0, seed=0):
    """Every window scored on its own: each frame encoded inside forward."""
    acc = MetricAccumulator(3, False)
    windows = []
    for sample in dataset.samples:
        frames = dataset.model_frames(sample, point_budget, occlusion, seed)
        preds = [o.final_pose.data for o in model.forward(frames)]
        errs = []
        for fs, pred in zip(sample.frames, preds):
            acc.add(pred, fs.gt_pose3d, cloud=fs.crop_cloud)
            errs.append((pred, fs.gt_pose3d))
        windows.append(WindowScore(
            sample.sequence_name, sample.track_id, sample.start_frame,
            pck=float(np.mean([pck(p, g) for p, g in errs])),
            mpjpe_mm=float(np.mean([mpjpe(p, g) for p, g in errs]))))
    return acc.report("val"), windows


@pytest.mark.parametrize("arm", ARMS, ids=["clean", "budget", "occlusion"])
def test_evaluation_matches_per_window_forward(setup, arm):
    data, model = setup
    report, windows = evaluate_dataset(model, data, "val", **arm)
    ref_report, ref_windows = per_window_reference(model, data, **arm)
    assert repr(report) == repr(ref_report)
    assert repr(windows) == repr(ref_windows)
    assert len(windows) == len(data.samples)


def test_each_frame_sample_is_encoded_once_per_pass(setup, monkeypatch):
    data, model = setup
    calls = {"fuse_frame": 0, "forward": 0, "model_frames": 0}

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counting(FusionPoseModel, "fuse_frame")
    counting(FusionPoseModel, "forward")
    counting(InstanceDataset, "model_frames")
    unique = {id(fs) for s in data.samples for fs in s.frames}
    windows = len(data.samples)
    assert len(unique) < model.cfg.window * windows  # windows do share frames
    for arm in ARMS:
        for key in calls:
            calls[key] = 0
        evaluate_dataset(model, data, "val", **arm)
        assert calls == {"fuse_frame": len(unique), "forward": windows,
                         "model_frames": windows}
