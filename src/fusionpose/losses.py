"""Training losses: motion, feature consistency, 2D projection, Chamfer.

All loss functions return scalar autodiff tensors. Joints that cannot be
supervised (invisible in 2D, or behind the camera) are removed from
the graph before any division, so no non-finite value ever reaches the
tape. The per-joint norm is the Euclidean norm averaged over the
supervisable joint count of its frame.

The motion, consistency and projection terms take F frames (or F
windows' frames) stacked in row blocks of ``N_JOINTS`` and return the
sum of the per-frame terms; one frame is the F = 1 case.
"""

from __future__ import annotations

import logging
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InvalidInputError
from .geometry import N_JOINTS, Z_MIN, Calibration, interpolation_matrix, sq_dists

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LossWeights:
    """Weights of the four objective terms; the field names name the terms."""

    motion: float = 1.0
    consistency: float = 0.1
    proj: float = 1.0
    cd_agu: float = 0.5

    def __post_init__(self):
        if min(astuple(self)) < 0:
            raise InvalidInputError("loss weights must be nonnegative")
        if max(astuple(self)) == 0:
            log.warning("all loss weights are zero; training will be a no-op")


LOSS_NAMES = tuple(f.name for f in fields(LossWeights))


def _select_rows(x, mask: np.ndarray):
    """Keep only masked-in rows of a (k, d) tensor via a constant matrix."""
    sel = np.eye(len(mask))[mask]
    return ad.matmul(sel, x)


def _zero() -> ad.Tensor:
    return ad.Tensor(np.zeros(()))


def _frame_weights(mask: np.ndarray, loss: str, joints: str) -> np.ndarray | None:
    """Weight 1/n of each masked-in row, n the masked-in count of its frame.

    ``mask`` covers frames stacked in blocks of ``N_JOINTS`` rows. A
    frame with no masked-in row has no weight, so it adds exactly 0;
    None when no frame has one.
    """
    counts = mask.reshape(-1, N_JOINTS).sum(axis=1)
    if not counts.all():
        log.warning("%s: %d of %d frames have no %s, contributing 0",
                    loss, int((counts == 0).sum()), len(counts), joints)
    if not counts.any():
        return None
    return np.repeat(1.0 / np.maximum(counts, 1), N_JOINTS)[mask]


def motion_loss(pred_motion, kp_t, kp_prev) -> ad.Tensor:
    """Mean distance between predicted and observed 2D keypoint motion.

    The target is the pixel displacement between consecutive frames;
    joints invisible in either frame are masked out and each frame's
    mean runs over its remaining count.
    """
    mask = kp_t.visibility & kp_prev.visibility
    weights = _frame_weights(mask, "motion_loss", "jointly visible joints")
    if weights is None:
        return _zero()
    target = (kp_t.joints - kp_prev.joints)[mask]
    diff = ad.sub(_select_rows(pred_motion, mask), target)
    return ad.sum_all(ad.mul(ad.rownorm(diff), weights))


def consistency_loss(features: list, target: np.ndarray | None = None) -> ad.Tensor:
    """Pull each frame's per-joint features toward their temporal mean.

    The mean over the window is treated as a fixed target (no gradient
    flows through it), which rules out the trivial collapse where the
    mean chases the features. Gradient checks must therefore bind the
    frozen mean explicitly via ``target``; by default it is recomputed
    from the current features each call. Rows stacking several windows
    align across frames, so each window is pulled toward its own mean.
    """
    if len(features) < 2:
        raise ConfigError("consistency_loss needs at least 2 frames")
    mean_target = target if target is not None \
        else np.mean([f.data for f in features], axis=0)
    total = _zero()
    for f in features:
        per_joint = ad.rownorm(ad.sub(f, mean_target))
        total = ad.add(total, ad.scale(ad.sum_all(per_joint), 1.0 / N_JOINTS))
    return ad.scale(total, 1.0 / len(features))


def project_rows(points, calib: Calibration):
    """Differentiable pinhole projection of a (k, 3) tensor to (k, 2) pixels.

    Callers must guarantee every row is in front of the camera.
    """
    cam = ad.add(ad.matmul(points, calib.rotation.T), calib.translation)
    x = ad.narrow(cam, 1, 0, 1)
    y = ad.narrow(cam, 1, 1, 1)
    z = ad.narrow(cam, 1, 2, 1)
    u = ad.add(ad.scale(ad.div(x, z), calib.fx), float(calib.cx))
    v = ad.add(ad.scale(ad.div(y, z), calib.fy), float(calib.cy))
    return ad.concat([u, v], axis=1)


def projection_loss(pred_pose, kp: "Pose2D", calib: Calibration) -> ad.Tensor:
    """Mean pixel distance between projected 3D joints and 2D keypoints.

    Joints invisible in 2D or currently behind the camera are masked
    (the latter with a warning), and each frame's mean runs over its
    remaining count; perturbing a joint along its camera ray
    leaves this loss unchanged, which is exactly the depth ambiguity the
    Chamfer term resolves.
    """
    cam_z = calib.to_camera(pred_pose.data)[:, 2]
    in_front = cam_z > Z_MIN
    if kp.visibility.any() and not in_front[kp.visibility].all():
        log.warning("projection_loss: masking joints behind the camera")
    mask = kp.visibility & in_front
    weights = _frame_weights(mask, "projection_loss", "usable joints")
    if weights is None:
        return _zero()
    pixels = project_rows(_select_rows(pred_pose, mask), calib)
    diff = ad.sub(pixels, kp.joints[mask])
    return ad.sum_all(ad.mul(ad.rownorm(diff), weights))


def chamfer(a, b) -> ad.Tensor:
    """Symmetric squared-distance Chamfer measure between two point sets.

    Mean over each set of the squared Euclidean distance to the nearest
    point of the other set, summed over both directions. Differentiable
    in either argument (away from nearest-neighbor ties).
    """
    av = a.data if isinstance(a, ad.Tensor) else np.asarray(a, dtype=np.float64)
    bv = b.data if isinstance(b, ad.Tensor) else np.asarray(b, dtype=np.float64)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[1]:
        raise InvalidInputError(f"chamfer wants two (n, d) sets, got {av.shape}, {bv.shape}")
    if av.shape[0] == 0 or bv.shape[0] == 0:
        raise InvalidInputError("chamfer is undefined for empty point sets")
    d2 = sq_dists(av, bv)
    a_to_b = d2.argmin(axis=1)
    b_to_a = d2.argmin(axis=0)
    value = d2[np.arange(len(av)), a_to_b].mean() + d2[b_to_a, np.arange(len(bv))].mean()
    return ad.record_op(value, [
        (a, lambda g: g * _chamfer_grad(av, bv, a_to_b, b_to_a)),
        (b, lambda g: g * _chamfer_grad(bv, av, b_to_a, a_to_b))])


def _chamfer_grad(x, y, x_to_y, y_to_x) -> np.ndarray:
    """Gradient of the Chamfer value in ``x``, given each set's nearest rows in the other."""
    grad = (2.0 / len(x)) * (x - y[x_to_y])
    np.add.at(grad, y_to_x, (2.0 / len(y)) * (x[y_to_x] - y))
    return grad


def chamfer_agu_loss(pred_pose, cloud: np.ndarray, samples_per_bone: int) -> ad.Tensor:
    """Chamfer between a point cloud and the bone-interpolated skeleton.

    Interpolation makes the sparse joint set numerically comparable to a
    dense cloud; with samples_per_bone = 0 this is plain chamfer against
    the joints.
    """
    augmented = ad.matmul(interpolation_matrix(samples_per_bone), pred_pose)
    return chamfer(cloud, augmented)


def total_loss(components: dict[str, ad.Tensor], weights: LossWeights) -> ad.Tensor:
    """Weighted sum of the four loss terms (linear in the weights)."""
    total = _zero()
    for name in LOSS_NAMES:
        weight = getattr(weights, name)
        if weight != 0.0 and name in components:
            total = ad.add(total, ad.scale(components[name], weight))
    return total
