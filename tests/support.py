"""Test scaffolding that no ``fusionpose`` command runs.

- ``finite_diff_check``: central finite-difference verification of the
  tape's reverse-mode gradients (criterion 1, ``test_gradcheck``,
  ``test_model``);
- ``overfit``: the single-batch optimization smoke test (criterion 7a);
- ``unproject``: the inverse of ``geometry.project`` at known depths
  (criterion 5);
- ``affine_raster``: a raster that bilinear sampling reproduces exactly;
- ``read_exported_poses``: re-reads an ``export-poses`` file.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fusionpose.autodiff import Tape, backward
from fusionpose.errors import InvalidInputError
from fusionpose.geometry import Calibration
from fusionpose.gtguard import GT_GUARD
from fusionpose.params import ParameterStore
from fusionpose.train import Trainer

# ---------------------------------------------------------------------------
# finite differences


@dataclass
class GradCheckReport:
    """Per-parameter worst relative error between AD and central differences."""

    per_param: dict[str, float] = field(default_factory=dict)
    step: float = 1e-5
    tolerance: float = 1e-4
    checked: int = 0
    skipped_nonsmooth: int = 0

    @property
    def max_error(self) -> float:
        return max(self.per_param.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    @property
    def coverage(self) -> float:
        total = self.checked + self.skipped_nonsmooth
        return 1.0 if total == 0 else self.checked / total

    def worst(self) -> tuple[str, float]:
        if not self.per_param:
            return ("", 0.0)
        path = max(self.per_param, key=self.per_param.get)
        return path, self.per_param[path]


def _rel_err(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def finite_diff_check(f, store: ParameterStore, step: float = 1e-5,
                      tolerance: float = 1e-4,
                      max_coords_per_param: int | None = None,
                      coord_seed: int = 0,
                      skip_nonsmooth: bool = True,
                      nonsmooth_tol: float = 1e-3) -> GradCheckReport:
    """Compare gradients of ``f(store)`` against central differences.

    ``f`` must be a deterministic scalar function of the store's
    parameters, twice continuously differentiable at the evaluation
    point. Each coordinate is perturbed by ``+-step`` and
    (f+ - f-)/(2 step) is compared with the tape gradient. For large
    parameter tensors ``max_coords_per_param`` limits the check to a
    seeded random coordinate subset; the report still covers every
    parameter.

    Where the smoothness precondition fails pointwise (a ReLU kink, an
    argmax or nearest-neighbor tie crossed by the perturbation), central
    differences are meaningless. With ``skip_nonsmooth`` the estimate is
    recomputed at step/2 and coordinates whose two estimates disagree
    are excluded and counted in ``skipped_nonsmooth``.

    Relative error uses max(|ad|, |fd|, 1) as the denominator, so tiny
    gradients are compared absolutely.
    """
    with Tape() as tape:
        loss = f(store)
    if not np.isfinite(loss.data):
        raise InvalidInputError("function value is not finite at the given parameters")
    grads = backward(tape, loss, store)

    rng = np.random.Generator(np.random.PCG64(coord_seed))
    report = GradCheckReport(step=step, tolerance=tolerance)

    def eval_at(flat, i, delta) -> float:
        keep = flat[i]
        flat[i] = keep + delta
        value = float(f(store).data)
        flat[i] = keep
        if not np.isfinite(value):
            raise InvalidInputError(
                f"non-finite evaluation while perturbing coordinate {i}")
        return value

    for path, tensor in store.items():
        flat = tensor.data.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = np.sort(rng.choice(n, size=max_coords_per_param, replace=False))
        else:
            coords = np.arange(n)
        gflat = grads.get(path, np.zeros_like(tensor.data)).reshape(-1)
        worst = 0.0
        for i in coords:
            try:
                fd = (eval_at(flat, i, step) - eval_at(flat, i, -step)) / (2.0 * step)
                if skip_nonsmooth:
                    half = (eval_at(flat, i, step / 2)
                            - eval_at(flat, i, -step / 2)) / step
                    if abs(fd - half) > nonsmooth_tol * max(1.0, abs(fd), abs(half)):
                        report.skipped_nonsmooth += 1
                        continue
            except InvalidInputError as exc:
                raise InvalidInputError(f"{exc} of parameter {path}") from None
            report.checked += 1
            worst = max(worst, _rel_err(float(gflat[i]), fd))
        report.per_param[path] = worst
    return report


# ---------------------------------------------------------------------------
# training, geometry, exported poses


def overfit(trainer: Trainer, steps: int) -> list[dict]:
    """The first segment of ``batch_size`` windows, repeated; the optimization smoke test."""
    _, run = next(itertools.groupby(
        trainer.train_samples, key=lambda s: (s.sequence_name, s.track_id)))
    batch = list(itertools.islice(run, trainer.cfg.batch_size))
    with GT_GUARD.forbid():
        return [{"epoch": 0, "step": step, **trainer._step(batch)}
                for step in range(steps)]


def unproject(pixels: np.ndarray, depths: np.ndarray, calib: Calibration) -> np.ndarray:
    """Invert ``project`` at known camera depths, returning world points."""
    pixels = np.asarray(pixels, dtype=np.float64)
    depths = np.asarray(depths, dtype=np.float64)
    x = (pixels[:, 0] - calib.cx) / calib.fx * depths
    y = (pixels[:, 1] - calib.cy) / calib.fy * depths
    cam = np.stack([x, y, depths], axis=1)
    return (cam - calib.translation) @ calib.rotation


def affine_raster(h: int, w: int) -> np.ndarray:
    """An (h, w, 3) raster affine in the pixel coordinates, which bilinear
    sampling reproduces exactly away from the border."""
    v, u = np.mgrid[0:h, 0:w].astype(np.float64)
    return np.stack([0.3 + 0.02 * u - 0.01 * v, -0.5 + 0.004 * u + 0.03 * v,
                     0.1 * u], axis=-1)


def read_exported_poses(path: str | Path) -> dict:
    """Re-read an exported pose file into {(seq, track, frame): (k, 3)}."""
    grouped: dict[tuple, dict[int, tuple]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["sequence"], int(row["track_id"]), int(row["frame"]))
            grouped.setdefault(key, {})[int(row["joint"])] = (
                float(row["x"]), float(row["y"]), float(row["z"]))
    return {
        key: np.array([joints[j] for j in sorted(joints)])
        for key, joints in grouped.items()
    }
