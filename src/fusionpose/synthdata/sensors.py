"""Sensor simulation over capsule bodies.

LiDAR returns are exact analytic ray-capsule intersections with Gaussian
range noise and i.i.d. drops. The "image" is an inverse-depth raster of
the same capsules (inverse depth, silhouette mask, per-person hue), so
the image branch carries person-discriminative signal without any
photo-realism. 2D keypoints are the projected joints plus pixel noise,
standing in for an off-the-shelf 2D pose network.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..association import Detection2D, Detection3D
from ..errors import EmptyCropError, InvalidInputError
from ..geometry import Calibration, Pose2D, Pose3D, crop_points, project
from .body import BodyModel, capsules_for

_T_MIN = 1e-9
# Slack on every bounding sphere, far above the rounding of the hit tests.
_MARGIN = 1e-6


@dataclass(frozen=True)
class LidarConfig:
    """Desk-scale spinning LiDAR: a 32-beam sensor sweeping a front sector.

    The azimuth sector (rather than a full sweep) keeps a frame under
    10^4 rays at the default resolution.
    """

    beams: int = 32
    azimuth_step_deg: float = 0.4
    vertical_fov_deg: float = 30.0
    azimuth_fov_deg: float = 90.0
    azimuth_center_deg: float = 0.0
    range_sigma_m: float = 0.01
    max_range_m: float = 60.0
    drop_prob: float = 0.02
    origin: tuple[float, float, float] = (0.0, 0.0, 1.2)

    def __post_init__(self):
        if self.beams < 1:
            raise InvalidInputError("need at least one beam")
        if self.range_sigma_m < 0:
            raise InvalidInputError("range noise sigma must be >= 0")

    @functools.lru_cache(maxsize=8)
    def ray_directions(self) -> np.ndarray:
        """Unit directions for every (beam, azimuth) pair, (r, 3).

        Computed once per config and returned read-only.
        """
        half_v = np.radians(self.vertical_fov_deg) / 2.0
        elev = np.linspace(-half_v, half_v, self.beams)
        n_az = max(1, int(round(self.azimuth_fov_deg / self.azimuth_step_deg)))
        az0 = np.radians(self.azimuth_center_deg - self.azimuth_fov_deg / 2.0)
        azim = az0 + np.radians(self.azimuth_step_deg) * np.arange(n_az)
        ee, aa = np.meshgrid(elev, azim, indexing="ij")
        dirs = np.stack([np.cos(ee) * np.cos(aa),
                         np.cos(ee) * np.sin(aa),
                         np.sin(ee)], axis=-1).reshape(-1, 3)
        dirs.flags.writeable = False
        return dirs


def _near_spheres(origin: np.ndarray, dirs: np.ndarray, centres: np.ndarray,
                  radii: np.ndarray) -> np.ndarray:
    """(spheres, rays) mask of the rays that can reach each sphere.

    A ray can reach a sphere when its line passes within the radius of
    the centre and the sphere is not wholly behind the origin.
    """
    w = centres - origin
    proj = w @ dirs.T
    return ((proj >= -radii[:, None])
            & ((w * w).sum(axis=1)[:, None] - proj * proj <= (radii * radii)[:, None]))


def _keep_closer(best_t: np.ndarray, best_idx: np.ndarray, rows: np.ndarray,
                 t: np.ndarray, idx: np.ndarray) -> None:
    """Take hits strictly nearer than the best so far; ties keep the earlier index."""
    closer = t < best_t[rows]
    best_t[rows] = np.where(closer, t, best_t[rows])
    best_idx[rows] = np.where(closer, idx, best_idx[rows])


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[i] @ y[i]`` for every row i, bit for bit as the 1-D ``@``.

    A stacked (k, 1, 3) @ (k, 3, 1) matmul runs numpy's vector dot on
    each pair of rows; a row-wise sum or ``einsum`` rounds differently.
    """
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _slice_gemv(rows: np.ndarray, vecs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``rows[s:e] @ vecs[c]`` for each capsule c and its pairs s:e.

    Each slice is one gemv, as when a capsule's candidate rays were
    tested on their own, and a gemv row does not depend on the other
    rows. numpy evaluates a one-row ``@`` with a dot product instead of
    BLAS gemv, and the two can differ in the last bit, so a one-row
    slice is computed twice.
    """
    out = np.empty(rows.shape[0])
    for c in np.flatnonzero(bounds[1:] > bounds[:-1]):
        s, e = bounds[c], bounds[c + 1]
        block = rows[s:e] if e - s > 1 else np.repeat(rows[s:e], 2, axis=0)
        out[s:e] = (block @ vecs[c])[:e - s]
    return out


def intersect_rays_capsules(origin: np.ndarray, dirs: np.ndarray,
                            seg_a: np.ndarray, seg_b: np.ndarray,
                            radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First hit of unit-direction rays against a set of capsules.

    Returns (t, index): ray parameter of the nearest hit (inf for a
    miss) and the capsule index that was hit (-1 for a miss; a tie goes
    to the lower index). The test covers the cylindrical band and both
    sphere caps; taking the minimum over the three candidate sets yields
    the true entry point.

    Only the (ray, capsule) pairs whose ray can reach the capsule's
    bounding sphere are tested, all in one pass, capsule-major. A pair's
    dot products with its capsule's vectors come from ``_row_dots`` and
    ``_slice_gemv``, and every other step is elementwise, so each pair
    gets the bits that testing one capsule against every ray would give.
    """
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    n_rays = dirs.shape[0]
    axis = seg_b - seg_a
    length = np.sqrt(_row_dots(axis, axis))
    cap, ray = np.nonzero(_near_spheres(origin, dirs, (seg_a + seg_b) / 2.0,
                                        length / 2.0 + radii + _MARGIN))
    if cap.size == 0:
        return np.full(n_rays, np.inf), np.full(n_rays, -1, dtype=np.int64)
    bounds = np.searchsorted(cap, np.arange(radii.shape[0] + 1))
    d = dirs[ray]
    # cylindrical band, for capsules longer than 1e-12
    has_axis = length > 1e-12
    u = axis / np.where(has_axis, length, 1.0)[:, None]
    m = origin - seg_a
    m_par = _row_dots(m, u)
    m_perp = m - m_par[:, None] * u
    qc = (_row_dots(m_perp, m_perp) - radii * radii)[cap]
    d_par = _slice_gemv(d, u, bounds)
    d_perp = d - d_par[:, None] * u[cap]
    qa = (d_perp * d_perp).sum(axis=1)
    qb = _slice_gemv(2.0 * d_perp, m_perp, bounds)
    disc = qb * qb - 4.0 * qa * qc
    ok = (disc >= 0.0) & (qa > 1e-14)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t_cyl = np.where(ok, (-qb - sq) / (2.0 * np.where(ok, qa, 1.0)), np.inf)
    s = m_par[cap] + np.where(ok, t_cyl, 0.0) * d_par
    valid = has_axis[cap] & ok & (t_cyl > _T_MIN) & (s >= 0.0) & (s <= length[cap])
    t_pair = np.where(valid, t_cyl, np.inf)
    # sphere caps
    d2 = 2.0 * d
    for ends in (seg_a, seg_b):
        m = origin - ends
        qb = _slice_gemv(d2, m, bounds)
        qc = (_row_dots(m, m) - radii * radii)[cap]
        disc = qb * qb - 4.0 * qc
        ok = disc >= 0.0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t_sph = np.where(ok, (-qb - sq) / 2.0, np.inf)
        t_pair = np.minimum(t_pair, np.where(t_sph > _T_MIN, t_sph, np.inf))
    t_all = np.full((radii.shape[0], n_rays), np.inf)
    t_all[cap, ray] = t_pair
    idx = t_all.argmin(axis=0)  # the first of equal minima
    t = t_all[idx, np.arange(n_rays)]
    return t, np.where(np.isfinite(t), idx, -1)


def _cast_rays(origin: np.ndarray, dirs: np.ndarray,
               posed: list[tuple[Pose3D, BodyModel]]):
    """First hits of ``dirs`` against every body's capsules.

    Returns (t, index, owner) as ``intersect_rays_capsules`` does, plus
    the person each capsule belongs to. Each person's capsules see only
    the rays that can reach the sphere bounding all of them.
    """
    capsules = [capsules_for(pose, body) for pose, body in posed]
    owner = np.concatenate([np.full(len(r), pid)
                            for pid, (_, _, r) in enumerate(capsules)])
    t = np.full(dirs.shape[0], np.inf)
    idx = np.full(dirs.shape[0], -1, dtype=np.int64)
    first = 0
    for seg_a, seg_b, radii in capsules:
        ends = np.concatenate([seg_a, seg_b])
        centre = ends.mean(axis=0)
        radius = np.linalg.norm(ends - centre, axis=1).max() + radii.max() + _MARGIN
        rows = np.flatnonzero(_near_spheres(origin, dirs, centre[None], np.array([radius]))[0])
        if rows.size:
            t_p, idx_p = intersect_rays_capsules(origin, dirs[rows], seg_a, seg_b, radii)
            _keep_closer(t, idx, rows, t_p, idx_p + first)
        first += len(radii)
    return t, idx, owner


def simulate_lidar(posed: list[tuple[Pose3D, BodyModel]], cfg: LidarConfig,
                   seed: int):
    """Ray-cast one LiDAR frame over all bodies.

    Returns (points (m, 3), labels (m,)) where labels index the person
    each return came from. Ranges get Gaussian noise and points drop out
    i.i.d. per the config.
    """
    if not posed:
        return np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
    origin = np.asarray(cfg.origin, dtype=np.float64)
    dirs = cfg.ray_directions()
    t, idx, owner = _cast_rays(origin, dirs, posed)
    hit = np.isfinite(t) & (t <= cfg.max_range_m)
    t, dirs, idx = t[hit], dirs[hit], idx[hit]
    rng = np.random.Generator(np.random.PCG64(seed))
    t = t + rng.normal(0.0, cfg.range_sigma_m, size=t.shape) if cfg.range_sigma_m > 0 else t
    keep = rng.random(t.shape) >= cfg.drop_prob if cfg.drop_prob > 0 else np.ones(t.shape, bool)
    points = origin + t[keep, None] * dirs[keep]
    return points, owner[idx[keep]]


@functools.lru_cache(maxsize=8)
def _pixel_rays(intrinsics: tuple[float, float, float, float],
                rotation: tuple[float, ...], height: int, width: int) -> np.ndarray:
    """Unit world-frame directions through every pixel, (h * w, 3), read-only."""
    fx, fy, cx, cy = intrinsics
    us, vs = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    cam_dirs = np.stack([(us.ravel() - cx) / fx,
                         (vs.ravel() - cy) / fy,
                         np.ones(us.size)], axis=1)
    world_dirs = cam_dirs @ np.array(rotation).reshape(3, 3)  # R^T applied row-wise
    norms = np.linalg.norm(world_dirs, axis=1, keepdims=True)
    world_dirs = world_dirs / norms
    world_dirs.flags.writeable = False
    return world_dirs


def render_raster(posed: list[tuple[Pose3D, BodyModel]], calib: Calibration,
                  height: int, width: int) -> np.ndarray:
    """Render the capsule scene into an (h, w, 3) float32 raster.

    Channels: inverse camera depth (0 where empty), silhouette mask, and
    a per-person hue (pid + 1) / (n_persons + 1).
    """
    if not posed:
        return np.zeros((height, width, 3), dtype=np.float32)
    world_dirs = _pixel_rays((calib.fx, calib.fy, calib.cx, calib.cy),
                             tuple(calib.rotation.ravel()), height, width)
    origin = calib.camera_center_world()
    t, idx, owner = _cast_rays(origin, world_dirs, posed)
    hit = np.isfinite(t)
    pts = origin + t[hit, None] * world_dirs[hit]
    z = calib.to_camera(pts)[:, 2]
    pid = owner[idx[hit]]
    flat = np.zeros((height * width, 3), dtype=np.float32)
    flat[hit, 0] = 1.0 / z
    flat[hit, 1] = 1.0
    flat[hit, 2] = (pid + 1.0) / (len(posed) + 1.0)
    return flat.reshape(height, width, 3)


def simulate_2d(pose: Pose3D, calib: Calibration, noise_sigma: float,
                drop_prob: float, seed: int) -> Pose2D:
    """Noisy 2D keypoints: projection plus pixel noise and random drops.

    Joints behind the camera are always invisible.
    """
    pixels, valid = project(pose.joints, calib)
    rng = np.random.Generator(np.random.PCG64(seed))
    noisy = pixels + rng.normal(0.0, noise_sigma, size=pixels.shape)
    dropped = rng.random(len(pixels)) < drop_prob
    visible = valid & ~dropped
    noisy[~valid] = 0.0
    return Pose2D(noisy, visible)


@dataclass(frozen=True)
class DetectionJitter:
    """Noise applied to the simulated detector outputs."""

    center_sigma_m: float = 0.03
    box2d_sigma_px: float = 1.0


def simulate_detections(pose: Pose3D, person_points: np.ndarray,
                        calib: Calibration, jitter: DetectionJitter,
                        seed: int, inflate3d: float = 0.10,
                        inflate2d: float = 0.15) -> tuple[Detection2D | None, Detection3D | None]:
    """Detector stand-in for one person in one frame.

    The 3D box is the labeled-point bounding box inflated ``inflate3d``
    with a jittered center; the 2D box is the projected-joint bounding
    rectangle inflated ``inflate2d`` with jittered corners. A person gets
    no 3D detection that frame when the box holds none of their LiDAR
    points: when they have none, or when the center jitter moves a small
    box off the few they have. The test is ``crop_points``', so the crop
    of every emitted box holds at least one of the person's points.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    det3d = None
    if len(person_points):
        lo = person_points.min(axis=0)
        hi = person_points.max(axis=0)
        center = (lo + hi) / 2.0 + rng.normal(0.0, jitter.center_sigma_m, size=3)
        size = np.maximum((hi - lo) * (1.0 + inflate3d), 0.05)
        try:
            crop_points(person_points, center, size)
            det3d = Detection3D(tuple(center), tuple(size), yaw=0.0)
        except EmptyCropError:
            pass

    det2d = None
    pixels, valid = project(pose.joints, calib)
    if valid.any():
        pix = pixels[valid]
        u0, v0 = pix.min(axis=0)
        u1, v1 = pix.max(axis=0)
        du, dv = (u1 - u0) * inflate2d / 2.0, (v1 - v0) * inflate2d / 2.0
        box = np.array([u0 - du, v0 - dv, u1 + du, v1 + dv])
        box += rng.normal(0.0, jitter.box2d_sigma_px, size=4)
        if box[0] < box[2] and box[1] < box[3]:
            det2d = Detection2D(tuple(box))
    return det2d, det3d


def occlude_points(points: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Uniformly drop floor(fraction * n) points, seeded and order-preserving."""
    if not 0.0 <= fraction < 1.0:
        raise InvalidInputError(f"occlusion fraction {fraction} outside [0, 1)")
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    k = int(np.floor(fraction * n))
    if k == 0:
        return points.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    drop = rng.choice(n, size=k, replace=False)
    keep = np.ones(n, dtype=bool)
    keep[drop] = False
    return points[keep].copy()
