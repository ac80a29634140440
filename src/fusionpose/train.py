"""Training loop: weak supervision only, deterministic end to end.

The whole loop runs inside the ground-truth guard's forbid scope, so any
code path that touches a GT 3D pose raises immediately. Checkpoints
carry parameters, optimizer moments, and the train state; resuming from
epoch k reproduces the exact remaining trajectory of an uninterrupted
run because the batches are derived from (seed, epoch).

A batch is a segment of consecutive windows of one tracked person, so
its windows share frames. Each distinct frame is encoded once per step,
and its encoder tape is rebuilt in the backward pass one frame at a
time (frame-level gradient checkpointing), so the memory of a step is
one frame's encoder tape plus the batch's temporal part and losses.
"""

from __future__ import annotations

import csv
import functools
import itertools
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .dataio import InstanceDataset, InstanceSample
from .errors import CheckpointMismatchError, InvalidInputError
from .gtguard import GT_GUARD
from .losses import (LossWeights, chamfer_agu_loss, consistency_loss,
                     motion_loss, projection_loss, total_loss)
from .model import FUSION_VARIANTS, FusionPoseModel, ModelConfig
from .params import Adam, ParameterStore
from .synthdata.generate import child_seed

log = logging.getLogger(__name__)

LOSS_NAMES = ("motion", "consistency", "proj", "cd_agu")


class TrainingAborted(RuntimeError):
    """Raised when the loss or a gradient goes non-finite; the last checkpoint is kept."""


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
                  weights: LossWeights, bone_samples: int,
                  encoded: list[ad.Tensor] | None = None):
    """Total weighted loss of one instance window plus component values.

    ``encoded`` holds the frames' pooled features when the caller has
    them already (see ``FusionPoseModel.forward``).
    """
    outs = model.forward(frames, encoded)
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
                                                  bone_samples)
                                 for t in range(len(outs))])

    total = total_loss(components, weights)
    values = {name: float(components[name].data) for name in LOSS_NAMES}
    values["total"] = float(total.data)
    return total, values


def batch_gradients(model: FusionPoseModel, store: ParameterStore,
                    dataset: InstanceDataset, batch: list[InstanceSample],
                    weights: LossWeights, bone_samples: int):
    """Mean loss gradients over a batch, each distinct frame encoded once.

    1. Every distinct FrameSample of the batch is encoded with no tape;
       its pooled feature becomes a leaf tensor.
    2. One tape records the temporal part and the losses of every window
       on those leaves; its backward gives the temporal, head and loss
       gradients plus the gradient of each leaf.
    3. Each frame's encoder runs again on a tape of its own, and the
       leaf gradient is pushed back through it as the gradient of
       ``sum(pooled * leaf_grad)``.
    """
    inputs = [dataset.model_frames(sample) for sample in batch]
    frames = {}
    for sample, window in zip(batch, inputs):
        for fs, frame in zip(sample.frames, window):
            frames.setdefault(id(fs), frame)
    pooled = {key: model.encode(frame) for key, frame in frames.items()}

    scale = 1.0 / len(batch)
    sums = {name: 0.0 for name in (*LOSS_NAMES, "total")}
    totals = []
    with ad.Tape() as tape:
        for sample, window in zip(batch, inputs):
            total, values = sequence_loss(model, window, sample, weights,
                                          bone_samples,
                                          [pooled[id(fs)] for fs in sample.frames])
            totals.append(total)
            for name, v in values.items():
                sums[name] += v
        mean = ad.scale(_sum(totals), scale)
    # gradients of the parameters (keyed by path) and of each pooled
    # leaf (keyed like ``frames``)
    g = ad.backward(tape, mean, {**dict(store.items()), **pooled})
    tape.release()
    grads = {path: g[path] for path in store.paths() if path in g}

    for key, frame in frames.items():
        if key not in g:
            continue  # the loss does not depend on this frame
        with ad.Tape() as tape:
            pushed = ad.sum_all(ad.mul(model.encode(frame), g[key]))
        for path, grad in ad.backward(tape, pushed, store).items():
            grads[path] = grads[path] + grad if path in grads else grad
        tape.release()
    # parameters no tape reached (e.g. image.* under point_rgb) are zero
    grads = {path: grads[path] if path in grads else np.zeros_like(tensor.data)
             for path, tensor in store.items()}
    return grads, {name: v * scale for name, v in sums.items()}


# -- checkpoints --------------------------------------------------------------

_CFG_KEYS = ("width", "image_hw", "window", "joint_feat_dim", "head_hidden")


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


def _stored_count(extra: dict[str, np.ndarray], path, key: str) -> int:
    """The checkpoint entry ``key`` read as a count."""
    value = extra.get(key)
    if value is None:
        raise CheckpointMismatchError(f"{path}: no {key} entry")
    if (value.shape != () or not np.isfinite(value) or value < 0
            or value != np.floor(value)):
        raise CheckpointMismatchError(
            f"{path}: {key} = {value} is not a non-negative integer")
    return int(value)


def _optimizer_state(store: ParameterStore, extra: dict[str, np.ndarray],
                     path) -> dict[str, np.ndarray]:
    """The ``__opt__`` entries: none, or Adam's full state for ``store``."""
    state = {k: v for k, v in extra.items() if k.startswith("__opt__")}
    if not state:
        return state  # saved by a store that had no optimizer yet
    shapes = {"__opt__.t": ()}
    for name, tensor in store.items():
        shapes[f"__opt__.m.{name}"] = shapes[f"__opt__.v.{name}"] = tensor.data.shape
    if set(state) != set(shapes):
        odd = sorted(set(state) ^ set(shapes))[:3]
        raise CheckpointMismatchError(
            f"{path}: optimizer entries do not match the parameters ({odd})")
    _stored_count(state, path, "__opt__.t")
    for key, arr in state.items():
        if arr.shape != shapes[key] or not np.isfinite(arr).all() or (
                key.startswith("__opt__.v.") and (arr < 0).any()):
            raise CheckpointMismatchError(
                f"{path}: {key} is not a valid Adam moment of shape {shapes[key]}")
    return state


def load_checkpoint(store: ParameterStore, path: str | Path,
                    model_cfg: ModelConfig) -> TrainState:
    extra = store.load(path)
    for key in _CFG_KEYS:
        stored = _stored_count(extra, path, f"__cfg__.{key}")
        if stored != getattr(model_cfg, key):
            raise CheckpointMismatchError(
                f"{path}: checkpoint {key}={stored} does not match "
                f"configured {getattr(model_cfg, key)}")
    if _stored_count(extra, path, "__cfg__.fusion") != FUSION_VARIANTS.index(model_cfg.fusion):
        raise CheckpointMismatchError(f"{path}: fusion variant mismatch")
    state = TrainState(**{key: _stored_count(extra, path, f"__state__.{key}")
                          for key in ("epoch", "step", "seed")})
    store.state = _optimizer_state(store, extra, path)
    return state


def latest_checkpoint(checkpoint_dir: str | Path) -> Path | None:
    """The newest checkpoint that parses; unreadable ones are skipped."""
    for path in sorted(Path(checkpoint_dir).glob("epoch_*.fpck"), reverse=True):
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
        self.optimizer = Adam(store, run_cfg.step_size)
        stride = run_cfg.window_stride
        self.train_samples = [s for s in dataset.samples
                              if s.start_frame % stride == 0]
        if not self.train_samples:
            raise InvalidInputError("no training windows after stride filtering")
        self.state = TrainState(seed=run_cfg.seed)
        self.start_epoch = 0  # first epoch of the last ``train`` call
        self.log_rows: list[dict] = []

    def _step(self, batch: list[InstanceSample]) -> dict[str, float]:
        """One optimizer step on ``batch``; returns its mean loss terms."""
        grads, means = batch_gradients(self.model, self.store, self.dataset,
                                       batch, self.weights, self.cfg.bone_samples)
        if not np.isfinite(means["total"]):
            raise TrainingAborted(
                f"non-finite loss at step {self.state.step}; "
                "last checkpoint kept")
        bad = next((path for path in self.store.paths()
                    if not np.isfinite(grads[path]).all()), None)
        if bad is not None:
            raise TrainingAborted(
                f"non-finite gradient of {bad} at step {self.state.step}; "
                "last checkpoint kept")
        self.optimizer.step(grads)
        self.state.step += 1
        return means

    def epoch_batches(self, epoch: int) -> list[list[InstanceSample]]:
        """The batches of one epoch: shuffled segments of single tracks.

        ``train_samples`` fall into runs of one (sequence, track) in
        dataset order. Each run is cut into segments of up to
        ``batch_size`` consecutive windows, the first cut at a random
        offset so that segment borders move between epochs, and the
        segments are shuffled. Every window is trained once per epoch.
        """
        rng = np.random.Generator(np.random.PCG64(
            child_seed(self.cfg.seed, 400, epoch)))
        bs = self.cfg.batch_size
        batches = []
        for _, run in itertools.groupby(
                self.train_samples, key=lambda s: (s.sequence_name, s.track_id)):
            run = list(run)
            cuts = [0, *range(int(rng.integers(bs)) or bs, len(run), bs), len(run)]
            batches += [run[a:b] for a, b in zip(cuts, cuts[1:])]
        return [batches[i] for i in rng.permutation(len(batches))]

    def run_epoch(self, epoch: int) -> dict[str, float]:
        """Train one epoch; returns its loss terms, each the mean over windows."""
        batches = self.epoch_batches(epoch)
        batch_means = [self._step(batch) for batch in batches]
        n_windows = sum(len(batch) for batch in batches)
        return {name: sum(means[name] * len(batch)
                          for means, batch in zip(batch_means, batches)) / n_windows
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
            last = latest_checkpoint(ckpt_dir) if resume else None
            if last is not None:
                self.state = load_checkpoint(self.store, last, self.model.cfg)
                if self.state.seed != self.cfg.seed:
                    raise CheckpointMismatchError(
                        f"{last}: checkpoint seed {self.state.seed} does not "
                        f"match configured seed {self.cfg.seed}")
                self.optimizer = Adam(self.store, self.cfg.step_size)
                start_epoch = self.state.epoch
                log.info("resumed from %s at epoch %d", last, start_epoch)
        self.start_epoch = start_epoch

        with GT_GUARD.forbid():
            for epoch in range(start_epoch, epochs):
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

    def overfit(self, steps: int) -> list[dict]:
        """Single fixed batch, repeated; the standard optimization smoke test."""
        batch = self.train_samples[: self.cfg.batch_size]
        with GT_GUARD.forbid():
            return [{"epoch": 0, "step": step, **self._step(batch)}
                    for step in range(steps)]


def write_loss_log(rows: list[dict], path: str | Path, resumed_at: int = 0) -> None:
    """Write the loss rows; the existing log's rows of epochs before ``resumed_at`` stay."""
    columns = ["epoch", "step", *LOSS_NAMES, "total"]
    kept = []
    if resumed_at > 0 and Path(path).exists():
        with open(path, newline="", errors="replace") as fh:
            kept = [row for row in list(csv.reader(fh))[1:]
                    if row and row[0].isdigit() and int(row[0]) < resumed_at]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(kept)
        for row in rows:
            writer.writerow([row["epoch"], row["step"],
                             *(repr(row[name]) for name in (*LOSS_NAMES, "total"))])
