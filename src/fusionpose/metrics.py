"""Evaluation metrics: PCK@150mm, root-relative MPJPE, cloud CD.

PCK and MPJPE are computed after root alignment (subtracting the root
joint from prediction and ground truth), so a global offset shared by
all joints scores perfectly. The cloud metric is the symmetric Chamfer
measure between the raw person cloud and the bone-interpolated skeleton,
reported in millimeters and unsquared by default (a squared variant is
exposed for comparison).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, InvalidInputError
from .geometry import JOINT_NAMES, ROOT_INDEX, interpolation_matrix, sq_dists

PCK_THRESHOLD_MM = 150.0


def _check_pair(pred: np.ndarray, gt: np.ndarray) -> None:
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 3:
        raise ContractError(f"pose shapes differ: {pred.shape} vs {gt.shape}")


def joint_errors_mm(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-joint Euclidean error in millimeters after root alignment."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    _check_pair(pred, gt)
    rel_pred = pred - pred[ROOT_INDEX]
    rel_gt = gt - gt[ROOT_INDEX]
    return np.linalg.norm(rel_pred - rel_gt, axis=1) * 1000.0


def pck(pred, gt, threshold_mm: float = PCK_THRESHOLD_MM) -> float:
    """Percentage of joints with root-aligned error under the threshold."""
    err = joint_errors_mm(pred, gt)
    return 100.0 * float((err < threshold_mm).mean())


def mpjpe(pred, gt) -> float:
    """Mean per-joint position error (root-relative), millimeters."""
    return float(joint_errors_mm(pred, gt).mean())


def cd_metric(pose: np.ndarray, cloud: np.ndarray, samples_per_bone: int = 3,
              squared: bool = False) -> float:
    """Cloud-to-skeleton Chamfer metric in millimeters.

    Symmetric mean: the average of the two directional mean
    nearest-neighbor distances between the cloud and the augmented
    skeleton point set.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.ndim != 2 or cloud.shape[1] != 3 or cloud.shape[0] == 0:
        raise InvalidInputError("cd_metric needs a non-empty (m, 3) cloud")
    aug = interpolation_matrix(samples_per_bone) @ np.asarray(pose, dtype=np.float64)
    d2 = sq_dists(cloud, aug)
    fwd = d2.min(axis=1)
    bwd = d2.min(axis=0)
    if squared:
        return 0.5 * (fwd.mean() + bwd.mean()) * 1e6  # m^2 -> mm^2
    return 0.5 * (np.sqrt(fwd).mean() + np.sqrt(bwd).mean()) * 1000.0


@dataclass
class MetricReport:
    """Aggregate metrics for one split plus a per-joint breakdown."""

    split: str
    pck: float
    mpjpe_mm: float
    cd_mm: float
    n_samples: int
    joint_names: tuple[str, ...] = ()
    per_joint_pck: tuple[float, ...] = ()
    per_joint_mpjpe_mm: tuple[float, ...] = ()

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["split", "pck", "mpjpe_mm", "cd_mm", "n_samples"])
            writer.writerow([self.split, repr(self.pck), repr(self.mpjpe_mm),
                             repr(self.cd_mm), self.n_samples])
            for name, jp, jm in zip(self.joint_names, self.per_joint_pck,
                                    self.per_joint_mpjpe_mm):
                writer.writerow([f"{self.split}/joint/{name}", repr(jp),
                                 repr(jm), "", self.n_samples])


@dataclass
class MetricAccumulator:
    """Streaming accumulation of metrics over evaluated poses."""

    samples_per_bone: int = 3
    squared_cd: bool = False
    _errors: list[np.ndarray] = field(default_factory=list)
    _cds: list[float] = field(default_factory=list)

    def add(self, pred, gt, cloud: np.ndarray | None = None) -> np.ndarray:
        """Accumulate one pose; returns its root-aligned joint errors (mm)."""
        err = joint_errors_mm(pred, gt)
        self._errors.append(err)
        if cloud is not None and len(cloud):
            self._cds.append(cd_metric(pred, cloud, self.samples_per_bone, self.squared_cd))
        return err

    def report(self, split: str) -> MetricReport:
        if not self._errors:
            raise InvalidInputError("no samples accumulated")
        err = np.stack(self._errors)  # (n, k)
        correct = err < PCK_THRESHOLD_MM
        return MetricReport(
            split=split,
            pck=100.0 * float(correct.mean()),
            mpjpe_mm=float(err.mean()),
            cd_mm=float(np.mean(self._cds)) if self._cds else float("nan"),
            n_samples=len(self._errors),
            joint_names=JOINT_NAMES,
            per_joint_pck=tuple(float(v) for v in 100.0 * correct.mean(axis=0)),
            per_joint_mpjpe_mm=tuple(float(v) for v in err.mean(axis=0)),
        )
