"""Articulated capsule bodies and parametric walking motion.

Poses are produced by forward kinematics over the skeleton tree with
per-bone rotations, so bone lengths are constant over time to rotation
round-off (well under 1e-9 relative). The gait is a family of sinusoids
sharing one frequency, which makes a straight-line walk exactly periodic
up to the root translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..geometry import BONES, JOINT_NAMES, N_JOINTS, ROOT_INDEX, Pose3D

# Person-local rest joint offsets relative to the mid-hip root.
# Axes: x = person's left, y = forward, z = up. Meters at scale 1.
_REST_LOCAL = {
    "mid_hip": (0.00, 0.00, 0.00),
    "neck": (0.00, 0.00, 0.55),
    "nose": (0.00, 0.08, 0.70),
    "r_eye": (-0.04, 0.11, 0.74),
    "l_eye": (0.04, 0.11, 0.74),
    "r_ear": (-0.08, 0.02, 0.72),
    "l_ear": (0.08, 0.02, 0.72),
    "r_shoulder": (-0.20, 0.00, 0.50),
    "l_shoulder": (0.20, 0.00, 0.50),
    "r_elbow": (-0.24, 0.00, 0.22),
    "l_elbow": (0.24, 0.00, 0.22),
    "r_wrist": (-0.26, 0.00, -0.04),
    "l_wrist": (0.26, 0.00, -0.04),
    "r_hip": (-0.10, 0.00, 0.00),
    "l_hip": (0.10, 0.00, 0.00),
    "r_knee": (-0.11, 0.00, -0.42),
    "l_knee": (0.11, 0.00, -0.42),
    "r_ankle": (-0.12, 0.00, -0.82),
    "l_ankle": (0.12, 0.00, -0.82),
    "r_foot_tip": (-0.12, 0.15, -0.88),
    "l_foot_tip": (0.12, 0.15, -0.88),
}

ROOT_HEIGHT = 0.90  # rest height of the mid-hip above ground, meters

# Capsule radius per bone, by (parent, child) joint name.
_BONE_RADII = {
    ("mid_hip", "neck"): 0.11,
    ("neck", "nose"): 0.07,
    ("nose", "r_eye"): 0.055, ("r_eye", "r_ear"): 0.055,
    ("nose", "l_eye"): 0.055, ("l_eye", "l_ear"): 0.055,
    ("neck", "r_shoulder"): 0.055, ("r_shoulder", "r_elbow"): 0.045,
    ("r_elbow", "r_wrist"): 0.038,
    ("neck", "l_shoulder"): 0.055, ("l_shoulder", "l_elbow"): 0.045,
    ("l_elbow", "l_wrist"): 0.038,
    ("mid_hip", "r_hip"): 0.085, ("r_hip", "r_knee"): 0.07,
    ("r_knee", "r_ankle"): 0.055, ("r_ankle", "r_foot_tip"): 0.04,
    ("mid_hip", "l_hip"): 0.085, ("l_hip", "l_knee"): 0.07,
    ("l_knee", "l_ankle"): 0.055, ("l_ankle", "l_foot_tip"): 0.04,
}


_REST = np.array([_REST_LOCAL[name] for name in JOINT_NAMES])

# Capsule radii at unit scale, indexed like geometry.BONES.
BONE_RADII = np.array([_BONE_RADII[(JOINT_NAMES[p], JOINT_NAMES[c])] for p, c in BONES])


def rest_pose(scale: float = 1.0) -> np.ndarray:
    """Neutral standing pose, (k, 3), mid-hip at the origin."""
    return scale * _REST


@dataclass(frozen=True)
class BodyModel:
    """A global limb-length and capsule-radius scale factor."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0.8 <= self.scale <= 1.2:
            raise InvalidInputError(f"body scale {self.scale} outside [0.8, 1.2]")


@dataclass(frozen=True)
class GaitAmplitudes:
    """Swing amplitudes in radians for the sinusoidal gait."""

    leg: float = 0.5
    knee: float = 0.5
    arm: float = 0.35
    elbow: float = 0.3


@dataclass(frozen=True)
class MotionScript:
    """Parametric walk: piecewise-linear root waypoints plus a gait.

    ``waypoints`` are (time_s, x, y) with strictly increasing times; the
    root travels linearly between them at the body's hip height, heading
    along the current segment.
    """

    waypoints: tuple[tuple[float, float, float], ...]
    gait_frequency_hz: float = 1.4
    amplitudes: GaitAmplitudes = GaitAmplitudes()
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "waypoints",
                           tuple(tuple(float(v) for v in w) for w in self.waypoints))
        if len(self.waypoints) < 2:
            raise InvalidInputError("need at least two waypoints")
        times = [w[0] for w in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidInputError("waypoint times must be strictly increasing")

    @property
    def duration(self) -> float:
        return self.waypoints[-1][0]

    def root_at(self, t: float) -> tuple[np.ndarray, float]:
        """Ground-plane root position and heading angle at time t."""
        if not self.waypoints[0][0] <= t <= self.duration:
            raise InvalidInputError(f"t={t} outside script range [0, {self.duration}]")
        pts = self.waypoints
        for i in range(len(pts) - 1):
            t0, x0, y0 = pts[i]
            t1, x1, y1 = pts[i + 1]
            if t <= t1 or i == len(pts) - 2:
                frac = (t - t0) / (t1 - t0)
                pos = np.array([x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)])
                heading = math.atan2(y1 - y0, x1 - x0)
                return pos, heading
        raise AssertionError("unreachable")


def _rot_x(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_z(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def pose_at(script: MotionScript, body: BodyModel, t: float) -> Pose3D:
    """Deterministic analytic pose at time t, world coordinates."""
    root_xy, heading = script.root_at(t)
    rest = rest_pose(body.scale)
    amp = script.amplitudes
    w = 2.0 * math.pi * script.gait_frequency_hz * t + script.phase

    swing = {}  # child joint name -> sagittal rotation at its parent
    for side, ph in (("r", 0.0), ("l", math.pi)):
        swing[f"{side}_knee"] = _rot_x(amp.leg * math.sin(w + ph))
        swing[f"{side}_ankle"] = _rot_x(amp.knee * 0.5 * (1.0 - math.cos(w + ph)))
        swing[f"{side}_elbow"] = _rot_x(amp.arm * math.sin(w + ph + math.pi))
        swing[f"{side}_wrist"] = _rot_x(amp.elbow * 0.5 * (1.0 - math.cos(w + ph + math.pi)))

    # Forward kinematics over the bone tree; bones are ordered parents-first.
    local = np.zeros((N_JOINTS, 3))
    accum = {ROOT_INDEX: np.eye(3)}
    for p, c in BONES:
        rot = accum[p] @ swing.get(JOINT_NAMES[c], np.eye(3))
        accum[c] = rot
        local[c] = local[p] + rot @ (rest[c] - rest[p])

    hz = _rot_z(heading - math.pi / 2.0)  # local +y (forward) -> heading
    world = local @ hz.T
    world[:, 0] += root_xy[0]
    world[:, 1] += root_xy[1]
    world[:, 2] += ROOT_HEIGHT * body.scale
    return Pose3D(world)


def capsules_for(pose: Pose3D, body: BodyModel):
    """Capsule segment endpoints and radii for one posed body."""
    joints = pose.joints
    a = np.stack([joints[p] for p, _ in BONES])
    b = np.stack([joints[c] for _, c in BONES])
    return a, b, BONE_RADII * body.scale
