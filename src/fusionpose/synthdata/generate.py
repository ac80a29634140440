"""Scene configuration and end-to-end dataset generation.

Everything is a pure function of (config, seed): per-frame noise draws
come from seed sequences keyed on (master seed, domain, frame, person),
so regenerating a dataset is byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import InvalidInputError
from ..geometry import Calibration
from .body import BodyModel, GaitAmplitudes, MotionScript, pose_at
from .sensors import (DetectionJitter, LidarConfig, render_raster,
                      simulate_2d, simulate_detections, simulate_lidar)
from .seqfile import (FrameRecord, PersonFrame, SequenceData,
                      write_manifest, write_sequence)


def child_seed(*keys: int) -> int:
    """Stable derived seed for one noise domain."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


def default_calibration(width: int = 96, height: int = 96) -> Calibration:
    """Camera beside the LiDAR, looking down the world +x axis."""
    rotation = np.array([[0.0, -1.0, 0.0],
                         [0.0, 0.0, -1.0],
                         [1.0, 0.0, 0.0]])
    center = np.array([0.0, 0.05, 1.25])  # camera center in world coords
    translation = -rotation @ center
    f = 1.15 * width
    return Calibration(f, f, width / 2.0, height / 2.0, rotation, translation)


@dataclass(frozen=True)
class SceneConfig:
    """Complete description of one synthetic multi-person scene."""

    persons: tuple[tuple[BodyModel, MotionScript], ...]
    frame_count: int = 200
    frame_rate_hz: float = 10.0
    raster_h: int = 96
    raster_w: int = 96
    calibration: Calibration = field(default_factory=default_calibration)
    lidar: LidarConfig = field(default_factory=LidarConfig)
    kp_noise_sigma_px: float = 1.0
    joint_drop_prob: float = 0.03
    jitter: DetectionJitter = field(default_factory=DetectionJitter)
    val_fraction: float = 0.3
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "persons", tuple(self.persons))
        if self.frame_count < 8:
            raise InvalidInputError("frame_count must give each split one window (>= 8)")
        if not self.persons:
            raise InvalidInputError("scene needs at least one person")


def default_scene(n_persons: int = 3, frames: int = 200, seed: int = 42,
                  **overrides) -> SceneConfig:
    """Walking people crossing the sensor's field of view.

    Person i walks a straight line at distance 5.5 + 1.5 i meters,
    alternating direction, with seeded body scale, gait frequency and
    phase.
    """
    duration = frames / overrides.get("frame_rate_hz", SceneConfig.frame_rate_hz)
    persons = []
    for i in range(n_persons):
        rng = np.random.Generator(np.random.PCG64(child_seed(seed, 9000 + i)))
        x = 5.5 + 1.5 * i
        # Constant walk span: people at different ranges sweep different
        # angular rates, so nobody shadows anybody for long.
        span = min(2.2, 0.30 * x)
        mid = float(rng.uniform(-0.25, 0.25)) * x * 0.3
        y0, y1 = (mid - span, mid + span) if i % 2 == 0 else (mid + span, mid - span)
        script = MotionScript(
            waypoints=((0.0, x, y0), (duration, x, y1)),
            gait_frequency_hz=float(rng.uniform(1.2, 1.6)),
            amplitudes=GaitAmplitudes(),
            phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        body = BodyModel(scale=float(np.clip(rng.uniform(0.85, 1.15), 0.8, 1.2)))
        persons.append((body, script))
    return SceneConfig(persons=tuple(persons), frame_count=frames, seed=seed,
                       **overrides)


def simulate_frames(cfg: SceneConfig) -> list[FrameRecord]:
    """Run the full sensor stack for every frame of the scene."""
    frames: list[FrameRecord] = []
    for f in range(cfg.frame_count):
        t = f / cfg.frame_rate_hz
        posed = [(pose_at(script, body, t), body) for body, script in cfg.persons]
        points, labels = simulate_lidar(posed, cfg.lidar,
                                        seed=child_seed(cfg.seed, 1, f))
        raster = render_raster(posed, cfg.calibration, cfg.raster_h, cfg.raster_w)
        persons = []
        for pid, (pose, _) in enumerate(posed):
            kp = simulate_2d(pose, cfg.calibration, cfg.kp_noise_sigma_px,
                             cfg.joint_drop_prob, seed=child_seed(cfg.seed, 2, f, pid))
            det2d, det3d = simulate_detections(
                pose, points[labels == pid], cfg.calibration, cfg.jitter,
                seed=child_seed(cfg.seed, 3, f, pid))
            persons.append(PersonFrame(kp.joints, kp.visibility, det2d, det3d,
                                       pose.joints.copy()))
        frames.append(FrameRecord(points, raster, persons))
    return frames


def generate_dataset(cfg: SceneConfig, out_dir: str | Path) -> dict:
    """Simulate the scene and write train/val sequence files + manifest.

    The time axis is split: the first (1 - val_fraction) of the frames
    become the train sequence, the rest the val sequence. Output is
    byte-identical for identical (config, seed).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames = simulate_frames(cfg)
    n_train = int(round(cfg.frame_count * (1.0 - cfg.val_fraction)))
    n_train = min(max(n_train, 4), cfg.frame_count - 4)
    splits = {"train": frames[:n_train], "val": frames[n_train:]}
    files: dict[str, list[str]] = {}
    for split, chunk in splits.items():
        name = f"{split}_000.fpseq"
        write_sequence(out / name, SequenceData(cfg.calibration, chunk, has_gt=True))
        files[split] = [name]
    write_manifest(out, files)
    return {
        "out_dir": str(out),
        "persons": len(cfg.persons),
        "frames": {split: len(chunk) for split, chunk in splits.items()},
        "files": files,
        "points_per_frame": float(np.mean([len(fr.points) for fr in frames])),
    }
