"""Training loop: weak supervision only, deterministic end to end.

The whole loop runs inside the ground-truth guard's forbid scope, so any
code path that touches a GT 3D pose raises immediately. Checkpoints
carry parameters, optimizer moments, and the train state; resuming from
epoch k reproduces the exact remaining trajectory of an uninterrupted
run because batch order is derived from (seed, epoch).
"""

from __future__ import annotations

import csv
import functools
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .dataio import InstanceDataset, InstanceSample
from .errors import CheckpointMismatchError, InvalidInputError
from .geometry import default_skeleton
from .gtguard import GT_GUARD
from .losses import (LossWeights, chamfer_agu_loss, consistency_loss,
                     motion_loss, projection_loss, total_loss)
from .model import FUSION_VARIANTS, FusionPoseModel, ModelConfig
from .params import Adam, ParameterStore
from .synthdata.generate import child_seed

log = logging.getLogger(__name__)

LOSS_NAMES = ("motion", "consistency", "proj", "cd_agu")


class TrainingAborted(RuntimeError):
    """Raised when the loss goes non-finite; the last checkpoint is kept."""


@dataclass
class TrainState:
    """Resumable training position.

    The PRNG state is the (seed, epoch) pair: batch order derives from
    them, so no raw generator state needs serializing.
    """

    epoch: int = 0  # completed epochs
    step: int = 0
    seed: int = 0


def _sum(terms: list[ad.Tensor]) -> ad.Tensor:
    """Left-to-right sum of per-frame loss terms."""
    return functools.reduce(ad.add, terms)


def sequence_loss(model: FusionPoseModel, frames, sample: InstanceSample,
                  weights: LossWeights, bone_samples: int):
    """Total weighted loss of one instance window plus component values."""
    outs = model.forward(frames)
    spec = default_skeleton()
    components: dict[str, ad.Tensor] = {}

    components["motion"] = _sum([motion_loss(outs[t].motion, sample.frames[t].kp,
                                             sample.frames[t - 1].kp)
                                 for t in range(1, len(outs))])

    consistency = consistency_loss([o.features for o in outs])
    components["consistency"] = ad.scale(consistency, float(len(outs)))

    components["proj"] = _sum([projection_loss(outs[t].final_pose, sample.frames[t].kp,
                                               sample.frames[t].calib)
                               for t in range(len(outs))])

    components["cd_agu"] = _sum([chamfer_agu_loss(outs[t].final_pose,
                                                  frames[t].points + frames[t].box_center,
                                                  spec, bone_samples)
                                 for t in range(len(outs))])

    total = total_loss(components, weights)
    values = {name: float(components[name].data) for name in LOSS_NAMES}
    values["total"] = float(total.data)
    return total, values


def batch_gradients(model: FusionPoseModel, store: ParameterStore,
                    dataset: InstanceDataset, batch: list[InstanceSample],
                    weights: LossWeights, bone_samples: int):
    """Mean loss gradients over a batch, one exclusive tape per sequence."""
    grads: dict[str, np.ndarray] | None = None
    sums = {name: 0.0 for name in (*LOSS_NAMES, "total")}
    for sample in batch:
        frames = dataset.model_frames(sample)
        with ad.Tape() as tape:
            total, values = sequence_loss(model, frames, sample, weights,
                                          bone_samples)
        g = ad.backward(tape, total, store)
        tape.release()
        if grads is None:
            grads = g
        else:
            for path in grads:
                grads[path] = grads[path] + g[path]
        for name, v in values.items():
            sums[name] += v
    scale = 1.0 / len(batch)
    grads = {path: g * scale for path, g in grads.items()}
    means = {name: v * scale for name, v in sums.items()}
    return grads, means


# -- checkpoints --------------------------------------------------------------

_CFG_KEYS = ("n_points", "width", "image_hw", "n_joints", "window",
             "joint_feat_dim", "head_hidden")


def save_checkpoint(store: ParameterStore, path: str | Path,
                    model_cfg: ModelConfig, state: TrainState) -> None:
    extra = dict(store.state)
    for key in _CFG_KEYS:
        extra[f"__cfg__.{key}"] = np.asarray(float(getattr(model_cfg, key)))
    extra["__cfg__.fusion"] = np.asarray(float(FUSION_VARIANTS.index(model_cfg.fusion)))
    extra["__state__.epoch"] = np.asarray(float(state.epoch))
    extra["__state__.step"] = np.asarray(float(state.step))
    extra["__state__.seed"] = np.asarray(float(state.seed))
    store.save(path, extra)


def load_checkpoint(store: ParameterStore, path: str | Path,
                    model_cfg: ModelConfig) -> TrainState:
    extra = store.load(path)
    for key in _CFG_KEYS:
        stored = extra.get(f"__cfg__.{key}")
        if stored is None or int(stored) != int(getattr(model_cfg, key)):
            raise CheckpointMismatchError(
                f"{path}: checkpoint {key}={stored} does not match "
                f"configured {getattr(model_cfg, key)}")
    fusion_idx = int(extra.get("__cfg__.fusion", -1))
    if fusion_idx != FUSION_VARIANTS.index(model_cfg.fusion):
        raise CheckpointMismatchError(f"{path}: fusion variant mismatch")
    store.state = {k: v for k, v in extra.items() if k.startswith("__opt__")}
    return TrainState(
        epoch=int(extra.get("__state__.epoch", 0)),
        step=int(extra.get("__state__.step", 0)),
        seed=int(extra.get("__state__.seed", 0)),
    )


def latest_checkpoint(checkpoint_dir: str | Path) -> Path | None:
    files = sorted(Path(checkpoint_dir).glob("epoch_*.fpck"))
    return files[-1] if files else None


def _newest_readable_checkpoint(checkpoint_dir: Path) -> Path | None:
    """The newest checkpoint that parses; unreadable ones are skipped."""
    for path in sorted(checkpoint_dir.glob("epoch_*.fpck"), reverse=True):
        try:
            ParameterStore.read_entries(path)
        except (CheckpointMismatchError, OSError) as exc:
            log.warning("skipping unreadable checkpoint: %s", exc)
            continue
        return path
    return None


# -- the trainer ---------------------------------------------------------------


class Trainer:
    def __init__(self, run_cfg: RunConfig, dataset: InstanceDataset,
                 model: FusionPoseModel, store: ParameterStore,
                 loss_overrides: dict[str, float] | None = None):
        self.cfg = run_cfg
        self.dataset = dataset
        self.model = model
        self.store = store
        self.weights = run_cfg.loss_weights(loss_overrides)
        self.optimizer = Adam(store, run_cfg.step_size, run_cfg.beta1, run_cfg.beta2)
        stride = run_cfg.window_stride
        self.train_samples = [s for s in dataset.samples
                              if s.start_frame % stride == 0]
        if not self.train_samples:
            raise InvalidInputError("no training windows after stride filtering")
        self.state = TrainState(seed=run_cfg.seed)
        self.log_rows: list[dict] = []

    def _step(self, batch: list[InstanceSample], weights: LossWeights,
              freeze_prefixes: tuple[str, ...] = ()) -> dict[str, float]:
        """One optimizer step on ``batch``; returns its mean loss terms."""
        grads, means = batch_gradients(self.model, self.store, self.dataset,
                                       batch, weights, self.cfg.bone_samples)
        if not np.isfinite(means["total"]):
            raise TrainingAborted(
                f"non-finite loss at step {self.state.step}; "
                "last checkpoint kept")
        self.optimizer.step(grads, freeze_prefixes)
        self.state.step += 1
        return means

    def _epoch_order(self, epoch: int) -> list[InstanceSample]:
        rng = np.random.Generator(np.random.PCG64(
            child_seed(self.cfg.seed, 400, epoch)))
        order = rng.permutation(len(self.train_samples))
        return [self.train_samples[i] for i in order]

    def run_epoch(self, epoch: int, freeze_prefixes: tuple[str, ...] = (),
                  weights: LossWeights | None = None) -> dict[str, float]:
        weights = weights or self.weights
        samples = self._epoch_order(epoch)
        bs = self.cfg.batch_size
        batch_means = [self._step(samples[i : i + bs], weights, freeze_prefixes)
                       for i in range(0, len(samples), bs)]
        return {name: sum(means[name] for means in batch_means) / len(batch_means)
                for name in batch_means[0]}

    def train(self, checkpoint_dir: str | Path | None = None,
              epochs: int | None = None, resume: bool = True,
              progress=None) -> list[dict]:
        """Full training; returns the per-epoch loss log rows."""
        epochs = epochs if epochs is not None else self.cfg.epochs
        ckpt_dir = Path(checkpoint_dir) if checkpoint_dir else None
        start_epoch = 0
        if ckpt_dir:
            ckpt_dir.mkdir(parents=True, exist_ok=True)
            last = _newest_readable_checkpoint(ckpt_dir) if resume else None
            if last is not None:
                self.state = load_checkpoint(self.store, last, self.model.cfg)
                if self.state.seed != self.cfg.seed:
                    raise CheckpointMismatchError(
                        f"{last}: checkpoint seed {self.state.seed} does not "
                        f"match configured seed {self.cfg.seed}")
                self.optimizer = Adam(self.store, self.cfg.step_size,
                                      self.cfg.beta1, self.cfg.beta2)
                start_epoch = self.state.epoch
                log.info("resumed from %s at epoch %d", last, start_epoch)

        with GT_GUARD.forbid():
            warm = self.cfg.warm_start_epochs
            for epoch in range(start_epoch, epochs):
                if epoch < warm:
                    # Point-branch warm start: geometry-only objective,
                    # image/fusion parameters frozen.
                    means = self.run_epoch(
                        epoch, freeze_prefixes=("image.", "fuse"),
                        weights=LossWeights(0.0, 0.0, 0.0,
                                            max(self.weights.cd_agu, 0.5)))
                else:
                    means = self.run_epoch(epoch)
                self.state.epoch = epoch + 1
                row = {"epoch": epoch, "step": self.state.step, **means}
                self.log_rows.append(row)
                if progress:
                    progress(row)
                if ckpt_dir:
                    save_checkpoint(self.store, ckpt_dir / f"epoch_{epoch:03d}.fpck",
                                    self.model.cfg, self.state)
        return self.log_rows

    def overfit(self, steps: int, progress=None) -> list[dict]:
        """Single fixed batch, repeated; the standard optimization smoke test."""
        batch = self.train_samples[: self.cfg.batch_size]
        rows = []
        with GT_GUARD.forbid():
            for step in range(steps):
                row = {"epoch": 0, "step": step, **self._step(batch, self.weights)}
                rows.append(row)
                if progress and (step % 50 == 0 or step == steps - 1):
                    progress(row)
        self.log_rows = rows
        return rows


def write_loss_log(rows: list[dict], path: str | Path) -> None:
    columns = ["epoch", "step", *LOSS_NAMES, "total"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row["epoch"], row["step"],
                             *(repr(row[name]) for name in (*LOSS_NAMES, "total"))])
