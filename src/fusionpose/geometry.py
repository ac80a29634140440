"""Camera/LiDAR geometry: calibration, projection, crops, skeleton tools.

World coordinates equal the LiDAR frame (sensors are fixed). The
calibration maps world points into the camera frame with ``R p + t`` and
then through the pinhole intrinsics. Everything here is a pure function
of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCropError, InvalidInputError

Z_MIN = 1e-6  # camera-frame depth below which a point has no valid pixel


@dataclass(frozen=True)
class Calibration:
    """Pinhole intrinsics plus the world-to-camera rigid transform."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64))
        r = self.rotation
        if r.shape != (3, 3) or self.translation.shape != (3,):
            raise InvalidInputError("calibration needs a 3x3 rotation and 3-vector translation")
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-9):
            raise InvalidInputError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise InvalidInputError("rotation determinant is not +1 within 1e-9")
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy, *self.translation]).all():
            raise InvalidInputError("calibration intrinsics and translation must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidInputError("focal lengths must be positive")

    def to_camera(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.rotation.T + self.translation

    def camera_center_world(self) -> np.ndarray:
        return -self.rotation.T @ self.translation


def project(pts: np.ndarray, calib: Calibration) -> tuple[np.ndarray, np.ndarray]:
    """Project world points to pixels.

    Returns (pixels (n,2), valid (n,) bool); points with camera depth
    z <= Z_MIN are flagged invalid, never thrown. Their pixel values are
    computed against a clamped depth and should not be used.
    """
    pts = np.asarray(pts, dtype=np.float64)
    cam = calib.to_camera(pts)
    z = cam[:, 2]
    valid = z > Z_MIN
    z_safe = np.where(valid, z, 1.0)
    u = calib.fx * cam[:, 0] / z_safe + calib.cx
    v = calib.fy * cam[:, 1] / z_safe + calib.cy
    return np.stack([u, v], axis=1), valid


# ---------------------------------------------------------------------------
# skeleton


# The one body layout: nose/neck/shoulders/elbows/wrists, mid-hip root,
# hips/knees/ankles, eyes/ears, foot tips.
JOINT_NAMES = (
    "nose", "neck",
    "r_shoulder", "r_elbow", "r_wrist",
    "l_shoulder", "l_elbow", "l_wrist",
    "mid_hip",
    "r_hip", "r_knee", "r_ankle",
    "l_hip", "l_knee", "l_ankle",
    "r_eye", "l_eye", "r_ear", "l_ear",
    "r_foot_tip", "l_foot_tip",
)
N_JOINTS = len(JOINT_NAMES)
ROOT_INDEX = 8  # mid_hip

# (parent, child) pairs of the bone tree, parents first.
BONES = (
    (8, 1), (1, 0),
    (0, 15), (15, 17), (0, 16), (16, 18),
    (1, 2), (2, 3), (3, 4),
    (1, 5), (5, 6), (6, 7),
    (8, 9), (9, 10), (10, 11), (11, 19),
    (8, 12), (12, 13), (13, 14), (14, 20),
)


@dataclass
class Pose3D:
    """Joint positions in meters, world/LiDAR frame, (k, 3)."""

    joints: np.ndarray

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float64)
        if self.joints.ndim != 2 or self.joints.shape[1] != 3:
            raise InvalidInputError(f"Pose3D wants (k, 3), got {self.joints.shape}")
        if not np.isfinite(self.joints).all():
            raise InvalidInputError("Pose3D contains non-finite values")


@dataclass
class Pose2D:
    """Pixel keypoints with per-joint visibility, (k, 2) + (k,)."""

    joints: np.ndarray
    visibility: np.ndarray

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float64)
        self.visibility = np.asarray(self.visibility, dtype=bool)
        if self.joints.ndim != 2 or self.joints.shape[1] != 2:
            raise InvalidInputError(f"Pose2D wants (k, 2), got {self.joints.shape}")
        if self.visibility.shape != (self.joints.shape[0],):
            raise InvalidInputError("visibility length must match joint count")
        if not np.isfinite(self.joints[self.visibility]).all():
            raise InvalidInputError("visible joints must have finite coordinates")


# ---------------------------------------------------------------------------
# point cloud operations


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, n) squared distances between the rows of (m, d) ``a`` and (n, d) ``b``.

    Summed one coordinate at a time, left to right as numpy sums a short
    last axis, so the bits equal a sum over the (m, n, d) squared
    differences, which this never builds.
    """
    out = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        d = a[:, None, k] - b[None, :, k]
        out += d * d
    return out


def downsample(points: np.ndarray, n: int) -> np.ndarray:
    """Cap a point cloud at ``n`` points.

    A cloud of at most ``n`` points comes back whole and in order; a
    larger one is reduced by farthest-point sampling seeded at the point
    nearest the centroid, which is deterministic.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
        raise InvalidInputError(f"downsample wants a non-empty (m, 3) cloud, got {points.shape}")
    if points.shape[0] <= n:
        return points.copy()
    nxt = int(np.argmin(sq_dists(points, points.mean(axis=0, keepdims=True))))
    chosen = np.empty(n, dtype=np.int64)
    dist = np.full(points.shape[0], np.inf)
    for i in range(n):
        chosen[i] = nxt
        dist = np.minimum(dist, sq_dists(points, points[nxt:nxt + 1])[:, 0])
        nxt = int(np.argmax(dist))
    return points[chosen].copy()


_INTERP_CACHE: dict[int, np.ndarray] = {}


def interpolation_matrix(samples_per_bone: int) -> np.ndarray:
    """Constant matrix mapping (k, 3) joints to augmented skeleton points.

    Rows are the k joints followed by, per bone in order,
    ``samples_per_bone`` points at parameters j/(s+1) along the segment.
    """
    cached = _INTERP_CACHE.get(samples_per_bone)
    if cached is not None:
        return cached
    k, s = N_JOINTS, samples_per_bone
    mat = np.zeros((k + len(BONES) * s, k))
    mat[:k, :k] = np.eye(k)
    r = k
    for parent, child in BONES:
        for j in range(1, s + 1):
            alpha = j / (s + 1.0)
            mat[r, parent] = 1.0 - alpha
            mat[r, child] = alpha
            r += 1
    _INTERP_CACHE[samples_per_bone] = mat
    return mat


def rot_z(theta: float) -> np.ndarray:
    """The 3x3 rotation by ``theta`` radians about the z (up) axis."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def crop_points(points: np.ndarray, center: np.ndarray, size: np.ndarray,
                yaw: float = 0.0) -> np.ndarray:
    """Keep points inside a yaw-rotated axis-aligned 3D box.

    Raises EmptyCropError when nothing survives so the association layer
    can skip the instance for that frame.
    """
    points = np.asarray(points, dtype=np.float64)
    size = np.asarray(size, dtype=np.float64)
    if (size <= 0).any():
        raise InvalidInputError(f"box size must be positive, got {size}")
    local = (points - np.asarray(center)) @ rot_z(yaw)
    keep = (np.abs(local) <= size / 2.0).all(axis=1)
    if not keep.any():
        raise EmptyCropError("3D crop contains no points")
    return points[keep].copy()


def crop_image(image: np.ndarray, box: tuple[float, float, float, float],
               out_hw: tuple[int, int]) -> np.ndarray:
    """Bilinearly resample a 2D box region of an (h, w, c) raster to out_hw.

    Sample positions are the centers of the output grid cells mapped
    linearly into the box; coordinates are clamped at the image border.
    The result is float64: a float32 raster is promoted exactly as the
    samples are weighted.
    """
    u_min, v_min, u_max, v_max = box
    if not (u_min < u_max and v_min < v_max):
        raise InvalidInputError(f"degenerate 2D box {box}")
    h_out, w_out = out_hw
    us = u_min + (np.arange(w_out) + 0.5) / w_out * (u_max - u_min) - 0.5
    vs = v_min + (np.arange(h_out) + 0.5) / h_out * (v_max - v_min) - 0.5
    return bilinear_sample(np.asarray(image), us[None, :], vs[:, None])


def crop_coords(pixels: np.ndarray, box: tuple[float, float, float, float],
                hw: int) -> np.ndarray:
    """Where raster pixels land in an (hw, hw) ``crop_image`` of ``box``, (n, 2).

    The exact inverse of ``crop_image``'s sample map: crop cell j samples
    raster coordinate u_min + (j + 0.5) / hw * (u_max - u_min) - 0.5, so
    raster coordinate u lands at (u + 0.5 - u_min) / (u_max - u_min) * hw
    - 0.5. Both grids put pixel i's centre at coordinate i.
    """
    u_min, v_min, u_max, v_max = box
    pixels = np.asarray(pixels, dtype=np.float64)
    return np.stack([(pixels[:, 0] + 0.5 - u_min) / (u_max - u_min) * hw - 0.5,
                     (pixels[:, 1] + 0.5 - v_min) / (v_max - v_min) * hw - 0.5], axis=1)


def bilinear_sample(image: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample an (h, w, c) image at fractional pixel coordinates, edge-clamped."""
    h, w = image.shape[:2]
    u = np.clip(u, 0.0, w - 1.0)
    v = np.clip(v, 0.0, h - 1.0)
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = (u - u0)[..., None]
    fv = (v - v0)[..., None]
    top = image[v0, u0] * (1.0 - fu) + image[v0, u1] * fu
    bottom = image[v1, u0] * (1.0 - fu) + image[v1, u1] * fu
    return top * (1.0 - fv) + bottom * fv
