"""Evaluation: run the model over a split and score against GT.

This is the only place ground-truth 3D poses are read. Sliding windows
are scored frame by frame, so a (track, frame) pair seen by several
windows contributes once per window; n_samples counts scored poses.
The network encodes each (frame, person) once per pass; the windows
that share a frame reuse its encoded feature.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .dataio import InstanceDataset, InstanceSample
from .geometry import ROOT_INDEX
# perfbench hooks evaluate.pck and evaluate.mpjpe, so both stay importable here.
from .metrics import (PCK_THRESHOLD_MM, MetricAccumulator, MetricReport,  # noqa: F401
                      mpjpe, pck)
from .model import FusionPoseModel
from .synthdata.body import rest_pose


def baseline_pose(box_center: np.ndarray) -> np.ndarray:
    """Static comparator: the unit-scale rest pose with its root placed
    at the 3D crop-box center."""
    rest = rest_pose()
    return rest - rest[ROOT_INDEX] + np.asarray(box_center)


def _predictions(model: FusionPoseModel | None, dataset: InstanceDataset,
                 mode: str, point_budget: int | None = None, occlusion: float = 0.0,
                 seed: int = 0) -> Iterator[tuple[InstanceSample, list[np.ndarray]]]:
    """Each window with its poses under ``mode``, in dataset order.

    In "model" mode, windows share FrameSample objects, and
    ``model_frames`` gives the same input for the same FrameSample
    within one call (the resampling is seeded per frame and person), so
    each frame is encoded once and its feature reused by every later
    window holding it. The features live only for this call: the
    weights may change between passes.
    """
    if mode not in ("model", "baseline", "oracle"):
        raise ValueError(f"unknown eval mode {mode!r}")
    encoded: dict[int, Tensor] = {}
    for sample in dataset.samples:
        if mode == "oracle":
            yield sample, [fs.gt_pose3d for fs in sample.frames]
        elif mode == "baseline":
            yield sample, [baseline_pose(fs.model_input.box_center) for fs in sample.frames]
        else:
            frames = dataset.model_frames(sample, point_budget, occlusion, seed)
            for fs, frame in zip(sample.frames, frames):
                if id(fs) not in encoded:
                    encoded[id(fs)] = model.encode(frame)
            outs = model.forward(frames, [encoded[id(fs)] for fs in sample.frames])
            yield sample, [o.final_pose.data for o in outs]


@dataclass
class WindowScore:
    sequence: str
    track_id: int
    start_frame: int
    pck: float
    mpjpe_mm: float


def evaluate_dataset(model: FusionPoseModel | None, dataset: InstanceDataset,
                     split: str, bone_samples: int = 3, squared_cd: bool = False,
                     point_budget: int | None = None, occlusion: float = 0.0,
                     seed: int = 0, mode: str = "model") -> tuple[MetricReport, list[WindowScore]]:
    """Score a dataset split.

    mode: "model" runs the network; "baseline" scores the static rest
    pose anchored at the box center; "oracle" scores GT against itself
    (the upper bound / plumbing check).
    """
    acc = MetricAccumulator(bone_samples, squared_cd)
    windows: list[WindowScore] = []
    for sample, preds in _predictions(model, dataset, mode, point_budget,
                                      occlusion, seed):
        # Each pose's joint errors are computed once; the window scores
        # use the expressions of metrics.pck and metrics.mpjpe on them.
        errs = [acc.add(pred, fs.gt_pose3d, cloud=fs.crop_cloud)
                for fs, pred in zip(sample.frames, preds)]
        windows.append(WindowScore(
            sample.sequence_name, sample.track_id, sample.start_frame,
            pck=float(np.mean([100.0 * float((e < PCK_THRESHOLD_MM).mean())
                               for e in errs])),
            mpjpe_mm=float(np.mean([float(e.mean()) for e in errs])),
        ))
    return acc.report(split), windows


def write_window_scores(windows: list[WindowScore], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence", "track_id", "start_frame", "pck", "mpjpe_mm"])
        for w in windows:
            writer.writerow([w.sequence, w.track_id, w.start_frame,
                             repr(w.pck), repr(w.mpjpe_mm)])


def export_poses(model: FusionPoseModel | None, dataset: InstanceDataset,
                 path: str | Path, use_gt: bool = False) -> int:
    """Write per-frame world poses as CSV; returns the row count.

    Full-precision floats so a re-read reproduces the in-memory values
    exactly.
    """
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence", "track_id", "frame", "joint", "x", "y", "z"])
        for sample, preds in _predictions(model, dataset,
                                          "oracle" if use_gt else "model"):
            for fs, pose in zip(sample.frames, preds):
                for j, (x, y, z) in enumerate(pose):
                    writer.writerow([sample.sequence_name, sample.track_id,
                                     fs.frame_index, j, repr(float(x)),
                                     repr(float(y)), repr(float(z))])
                    rows += 1
    return rows
