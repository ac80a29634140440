"""Sensor simulation over capsule bodies.

LiDAR returns are exact analytic ray-capsule intersections with Gaussian
range noise and i.i.d. drops. The "image" is an inverse-depth raster of
the same capsules (inverse depth, silhouette mask, per-person hue), so
the image branch carries person-discriminative signal without any
photo-realism. 2D keypoints are the projected joints plus pixel noise,
standing in for an off-the-shelf 2D pose network.

Both sensors cast their rays once per frame against every body: a ray
is tested against a body's capsules only when it can reach the sphere
bounding that body, then each capsule's own bounding sphere. The
(ray, capsule) pairs left go through one hit pass, with one gemv per
capsule over a zero-padded stack of its rays, and the nearest hit per
ray is kept. The result is bit for bit that of testing every ray
against every capsule.
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


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[i] @ y[i]`` for every row i, bit for bit as the 1-D ``@``.

    A stacked (k, 1, 3) @ (k, 3, 1) matmul runs numpy's vector dot on
    each pair of rows; a row-wise sum or ``einsum`` rounds differently.
    """
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def intersect_rays_capsules(origin: np.ndarray, dirs: np.ndarray,
                            seg_a: np.ndarray, seg_b: np.ndarray,
                            radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First hit of unit-direction rays against capsules grouped by body.

    ``seg_a`` and ``seg_b`` are (g, k, 3) and ``radii`` (g, k): g groups
    (bodies) of k capsules, flat index ``group * k + capsule``. Returns (t, index): ray parameter
    of the nearest hit (inf for a miss) and the flat index of the
    capsule hit (-1 for a miss; a tie goes to the lower index). The test
    covers the cylindrical band and both sphere caps; taking the minimum
    over the three candidate sets yields the true entry point.

    A ray is tested against a capsule only when it can reach the sphere
    bounding the capsule's group and then the capsule's own bounding
    sphere. All those (ray, capsule) pairs go through one hit pass,
    capsule-major. Each pair's dot products with its capsule's vectors
    come from ``_row_dots`` or from one gemv per capsule over a
    zero-padded (capsules, width, 3) stack of its rays, and every other
    step is elementwise, so each pair gets the bits that testing one
    capsule against every ray would give.
    """
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    n_rays = dirs.shape[0]
    k = radii.shape[1]
    t = np.full(n_rays, np.inf)
    index = np.full(n_rays, -1, dtype=np.int64)
    ends = np.concatenate([seg_a, seg_b], axis=1)
    centres = ends.mean(axis=1)
    reach = (np.linalg.norm(ends - centres[:, None], axis=2).max(axis=1)
             + radii.max(axis=1) + _MARGIN)
    near_group = _near_spheres(origin, dirs, centres, reach)
    seg_a, seg_b, radii = seg_a.reshape(-1, 3), seg_b.reshape(-1, 3), radii.reshape(-1)
    axis = seg_b - seg_a
    length = np.sqrt(_row_dots(axis, axis))
    cap_centres = (seg_a + seg_b) / 2.0
    cap_reach = length / 2.0 + radii + _MARGIN
    caps, rays = [], []
    for g, group_rows in enumerate(near_group):
        rows = np.flatnonzero(group_rows)
        own = slice(g * k, (g + 1) * k)
        c, r = np.nonzero(_near_spheres(origin, dirs[rows], cap_centres[own], cap_reach[own]))
        caps.append(c + g * k)
        rays.append(rows[r])
    cap, ray = np.concatenate(caps), np.concatenate(rays)
    if cap.size == 0:
        return t, index
    bounds = np.searchsorted(cap, np.arange(radii.size + 1))
    slot = np.arange(cap.size) - bounds[cap]
    # width >= 2: numpy computes a one-row matmul with a dot, not gemv
    stack_shape = (radii.size, max(2, int((bounds[1:] - bounds[:-1]).max())), 3)
    d = dirs[ray]
    d_stack = np.zeros(stack_shape)
    d_stack[cap, slot] = d
    # cylindrical band, for capsules longer than 1e-12
    has_axis = length > 1e-12
    u = axis / np.where(has_axis, length, 1.0)[:, None]
    m = origin - seg_a
    m_par = _row_dots(m, u)
    m_perp = m - m_par[:, None] * u
    qc = (_row_dots(m_perp, m_perp) - radii * radii)[cap]
    d_par = (d_stack @ u[:, :, None])[cap, slot, 0]
    d_perp = d - d_par[:, None] * u[cap]
    qa = (d_perp * d_perp).sum(axis=1)
    perp_stack = np.zeros(stack_shape)
    perp_stack[cap, slot] = d_perp
    qb = 2.0 * (perp_stack @ m_perp[:, :, None])[cap, slot, 0]  # exact: the bits of (2x) @ y
    disc = qb * qb - 4.0 * qa * qc
    ok = (disc >= 0.0) & (qa > 1e-14)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t_cyl = np.where(ok, (-qb - sq) / (2.0 * np.where(ok, qa, 1.0)), np.inf)
    s = m_par[cap] + np.where(ok, t_cyl, 0.0) * d_par
    valid = has_axis[cap] & ok & (t_cyl > _T_MIN) & (s >= 0.0) & (s <= length[cap])
    t_pair = np.where(valid, t_cyl, np.inf)
    # sphere caps
    for end in (seg_a, seg_b):
        m = origin - end
        qb = 2.0 * (d_stack @ m[:, :, None])[cap, slot, 0]
        qc = (_row_dots(m, m) - radii * radii)[cap]
        disc = qb * qb - 4.0 * qc
        ok = disc >= 0.0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t_sph = np.where(ok, (-qb - sq) / 2.0, np.inf)
        t_pair = np.minimum(t_pair, np.where(t_sph > _T_MIN, t_sph, np.inf))
    # nearest hit per ray: a stable sort keeps capsule order among equal t
    hit = np.flatnonzero(t_pair < np.inf)
    hit = hit[np.lexsort((t_pair[hit], ray[hit]))]
    first = hit[np.flatnonzero(np.diff(ray[hit], prepend=-1))]
    t[ray[first]] = t_pair[first]
    index[ray[first]] = cap[first]
    return t, index


def _cast_rays(origin: np.ndarray, dirs: np.ndarray,
               posed: list[tuple[Pose3D, BodyModel]]):
    """First hits of ``dirs`` against every body's capsules.

    Returns (t, index, owner): ``intersect_rays_capsules``' result for
    the capsules grouped by person, and the person each ray hit (-1 for
    a miss).
    """
    seg_a, seg_b, radii = (np.stack(part) for part in
                           zip(*(capsules_for(pose, body) for pose, body in posed)))
    t, index = intersect_rays_capsules(origin, dirs, seg_a, seg_b, radii)
    return t, index, index // radii.shape[1]


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
    t, _, owner = _cast_rays(origin, dirs, posed)
    hit = np.isfinite(t) & (t <= cfg.max_range_m)
    t, dirs, owner = t[hit], dirs[hit], owner[hit]
    rng = np.random.Generator(np.random.PCG64(seed))
    t = t + rng.normal(0.0, cfg.range_sigma_m, size=t.shape) if cfg.range_sigma_m > 0 else t
    keep = rng.random(t.shape) >= cfg.drop_prob if cfg.drop_prob > 0 else np.ones(t.shape, bool)
    points = origin + t[keep, None] * dirs[keep]
    return points, owner[keep]


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
    t, _, owner = _cast_rays(origin, world_dirs, posed)
    hit = np.isfinite(t)
    pts = origin + t[hit, None] * world_dirs[hit]
    z = calib.to_camera(pts)[:, 2]
    pid = owner[hit]
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
