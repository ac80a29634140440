"""From sequence files to network-ready instance windows.

Runs the association stage (2D-3D pairing, tracking, window building)
over each stored sequence, crops and caches per-frame inputs, and hands
the trainer/evaluator lists of `InstanceSample`s. Ground-truth 3D poses
are only reachable through the guarded accessor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .association import (InstanceTracker, PairedObservation, build_sequences,
                          pair_2d_3d)
from .errors import EmptyCropError, InvalidInputError
from .geometry import Pose2D, crop_image, crop_points, downsample
from .model import ModelConfig, ModelFrame
from .synthdata.generate import child_seed
from .synthdata.seqfile import SequenceData, read_manifest, read_sequence
from .synthdata.sensors import occlude_points

log = logging.getLogger(__name__)


@dataclass
class FrameSample:
    """One synchronized frame for one tracked person."""

    frame_index: int
    crop_cloud: np.ndarray  # raw cropped points, world frame
    model_input: ModelFrame  # the crop's clean network input, built once
    kp: Pose2D
    person_index: int
    _gt_person: object = None  # PersonFrame backing the guarded GT accessor

    @property
    def gt_pose3d(self) -> np.ndarray | None:
        """Ground-truth joints (guard-counted; forbidden while training)."""
        return self._gt_person.gt_pose3d if self._gt_person is not None else None


@dataclass
class InstanceSample:
    """T consecutive FrameSamples of one tracked person."""

    sequence_name: str
    track_id: int
    start_frame: int
    frames: list[FrameSample]


def associate_sequence(seq: SequenceData, window: int, iou_threshold: float = 0.3,
                       gate_distance: float = 1.0, max_misses: int = 3):
    """Pair detections per frame, track, and emit fully observed windows."""
    tracker = InstanceTracker(gate_distance, max_misses)
    for frame in seq.frames:
        dets2d, own2 = [], []
        dets3d, own3 = [], []
        for pidx, person in enumerate(frame.persons):
            if person.det2d is not None:
                dets2d.append(person.det2d)
                own2.append(pidx)
            if person.det3d is not None:
                dets3d.append(person.det3d)
                own3.append(pidx)
        pairs, _, _ = pair_2d_3d(dets2d, dets3d, seq.calibration, iou_threshold)
        observations = []
        for i2, i3 in pairs:
            source = frame.persons[own2[i2]]
            observations.append(PairedObservation(
                det2d=dets2d[i2], det3d=dets3d[i3], person_index=own3[i3],
                kp2d=Pose2D(source.keypoints_2d, source.visibility)))
        tracker.step(observations)
    return build_sequences(tracker.tracks, window)


class InstanceDataset:
    """All instance windows of one or more sequences, with cached crops."""

    def __init__(self, sequences: dict[str, SequenceData], model_cfg: ModelConfig,
                 iou_threshold: float = 0.3, gate_distance: float = 1.0,
                 max_misses: int = 3):
        self.model_cfg = model_cfg
        self.samples: list[InstanceSample] = []
        self._dropped = 0
        for name in sorted(sequences):
            seq = sequences[name]
            cache: dict[tuple[int, int], FrameSample] = {}
            windows = associate_sequence(seq, model_cfg.window, iou_threshold,
                                         gate_distance, max_misses)
            for win in windows:
                frames = []
                try:
                    for offset, obs in enumerate(win.observations):
                        fidx = win.start_frame + offset
                        key = (fidx, obs.person_index)
                        if key not in cache:
                            cache[key] = self._build_frame(seq, fidx, obs)
                        frames.append(cache[key])
                except EmptyCropError:
                    self._dropped += 1
                    continue
                self.samples.append(InstanceSample(name, win.track_id,
                                                   win.start_frame, frames))
        if self._dropped:
            log.warning("dropped %d windows with empty 3D crops", self._dropped)
        if not self.samples:
            raise InvalidInputError("association produced no instance windows")

    def _build_frame(self, seq: SequenceData, frame_index: int,
                     obs: PairedObservation) -> FrameSample:
        frame = seq.frames[frame_index]
        det3 = obs.det3d
        cloud = crop_points(frame.points, np.asarray(det3.center),
                            np.asarray(det3.size), det3.yaw)
        hw = self.model_cfg.image_hw
        raster_crop = crop_image(frame.raster, obs.det2d.box, (hw, hw))
        center = np.asarray(det3.center, dtype=np.float64)
        model_input = ModelFrame(downsample(cloud, self.model_cfg.n_points) - center,
                                 raster_crop, center, obs.det2d.box, seq.calibration)
        return FrameSample(frame_index, cloud, model_input, obs.kp2d, obs.person_index,
                           _gt_person=frame.persons[obs.person_index])

    def model_frames(self, sample: InstanceSample, point_budget: int | None = None,
                     occlusion: float = 0.0, seed: int = 0) -> list[ModelFrame]:
        """Network inputs for one window: the crop's real points, never padded.

        The clean inputs are the stored ``model_input`` objects, so
        windows sharing a crop share its input. ``occlusion`` first drops
        that fraction of the crop uniformly, ``point_budget`` then
        subsamples what is left to that many points (the density-ablation
        protocol), and ``downsample`` caps the rest at ``model_cfg.n_points``.
        """
        if point_budget is None and occlusion == 0.0:
            return [fs.model_input for fs in sample.frames]
        out = []
        for fs in sample.frames:
            cloud = fs.crop_cloud
            if occlusion > 0.0:
                cloud = occlude_points(cloud, occlusion,
                                       child_seed(seed, 71, fs.frame_index,
                                                  fs.person_index))
            if point_budget is not None and len(cloud) > point_budget:
                rng = np.random.Generator(np.random.PCG64(
                    child_seed(seed, 72, fs.frame_index, fs.person_index)))
                keep = np.sort(rng.choice(len(cloud), point_budget, replace=False))
                cloud = cloud[keep]
            pts = downsample(cloud, self.model_cfg.n_points) - fs.model_input.box_center
            out.append(replace(fs.model_input, points=pts))
        return out


def load_split(dataset_dir: str | Path, split: str) -> dict[str, SequenceData]:
    """Read every sequence of one split listed in the manifest."""
    dataset_dir = Path(dataset_dir)
    manifest = read_manifest(dataset_dir)
    if split not in manifest:
        raise InvalidInputError(f"split {split!r} not in manifest "
                                f"(has {sorted(manifest)})")
    return {name: read_sequence(dataset_dir / name) for name in manifest[split]}
