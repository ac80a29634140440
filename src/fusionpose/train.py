"""Training loop: weak supervision only, deterministic end to end.

The whole loop runs inside the ground-truth guard's forbid scope, so any
code path that touches a GT 3D pose raises immediately. Checkpoints
carry parameters, optimizer moments, and the train state; resuming from
epoch k reproduces the exact remaining trajectory of an uninterrupted
run because the batches are derived from (seed, epoch).

A batch is a segment of consecutive windows of one tracked person, so
its windows share frames. Each distinct frame is encoded once per step,
the temporal part and the losses run once over all the batch's
windows, and each frame's encoder tape is rebuilt in the backward pass
one frame at a time (frame-level gradient checkpointing), so the memory
of a step is one frame's encoder tape plus the batch's temporal part
and losses.
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
from .errors import CheckpointMismatchError, ContractError, InvalidInputError
from .geometry import N_JOINTS, Pose2D
from .gtguard import GT_GUARD
from .losses import (LOSS_NAMES, LossWeights, chamfer_agu_loss, consistency_loss,
                     motion_loss, projection_loss, total_loss)
from .model import FUSION_VARIANTS, FusionPoseModel, ModelConfig, ModelFrame
from .params import Adam, ParameterStore
from .synthdata.generate import child_seed

log = logging.getLogger(__name__)


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


def _stack(poses: list[Pose2D]) -> Pose2D:
    """Keypoints of several frames stacked in row blocks of ``N_JOINTS``."""
    return Pose2D(np.concatenate([p.joints for p in poses]),
                  np.concatenate([p.visibility for p in poses]))


def sequence_loss(model: FusionPoseModel, windows: list[list[ModelFrame]],
                  samples: list[InstanceSample], weights: LossWeights,
                  bone_samples: int, encoded: list[list[ad.Tensor]]):
    """Mean weighted loss over a segment's windows plus mean component values.

    ``windows[b]`` holds the network inputs of ``samples[b]`` and
    ``encoded[b]`` their pooled features. The temporal estimator runs
    once over the B windows, so each frame step t gives (B*k, .) rows,
    window-major. The motion term runs once per step on them, the
    consistency term once on all steps, the projection term once per
    step with the calibration every window holds there (ContractError
    otherwise), and Chamfer once per (window, t), because the clouds are
    ragged.
    """
    n, k, steps = len(windows), N_JOINTS, range(len(windows[0]))
    outs = model.temporal(
        [ad.concat([enc[t] for enc in encoded], axis=0) for t in steps],
        [np.stack([window[t].box_center for window in windows]) for t in steps])
    kps = [_stack([sample.frames[t].kp for sample in samples]) for t in steps]
    components: dict[str, ad.Tensor] = {}

    components["motion"] = _sum([motion_loss(outs[t].motion, kps[t], kps[t - 1])
                                 for t in steps[1:]])

    consistency = consistency_loss([o.features for o in outs])
    components["consistency"] = ad.scale(consistency, float(len(outs)))

    calibs = [windows[0][t].calib for t in steps]
    if any(window[t].calib is not calibs[t] for window in windows for t in steps):
        raise ContractError("a segment's windows must share one calibration per frame step")
    components["proj"] = _sum([projection_loss(outs[t].final_pose, kps[t], calibs[t])
                               for t in steps])

    components["cd_agu"] = _sum([
        chamfer_agu_loss(ad.narrow(outs[t].final_pose, 0, b * k, k),
                         window[t].points + window[t].box_center, bone_samples)
        for b, window in enumerate(windows) for t in steps])

    scale = 1.0 / n
    mean = ad.scale(total_loss(components, weights), scale)
    values = {name: float(components[name].data) * scale for name in LOSS_NAMES}
    values["total"] = float(mean.data)
    return mean, values


def batch_gradients(model: FusionPoseModel, store: ParameterStore,
                    dataset: InstanceDataset, batch: list[InstanceSample],
                    weights: LossWeights, bone_samples: int):
    """Mean loss gradients over a batch, each distinct frame encoded once.

    1. Every distinct FrameSample of the batch is encoded with no tape;
       its pooled feature becomes a leaf tensor.
    2. One tape records ``sequence_loss`` of the whole batch on those
       leaves; its backward gives the temporal, head and loss gradients
       plus the gradient of each leaf.
    3. Each frame's encoder runs again on a tape of its own, and the
       leaf gradient is pushed back through it as the gradient of
       ``sum(pooled * leaf_grad)``.
    """
    inputs = [dataset.model_frames(sample) for sample in batch]
    # windows that share a crop share its input object
    frames = {id(f): f for window in inputs for f in window}
    pooled = {key: model.encode(frame) for key, frame in frames.items()}

    with ad.Tape() as tape:
        mean, means = sequence_loss(model, inputs, batch, weights, bone_samples,
                                    [[pooled[id(f)] for f in window]
                                     for window in inputs])
    # gradients of the parameters (keyed by path) and of each pooled
    # leaf (keyed like ``frames``)
    g = ad.backward(tape, mean, {**dict(store.items()), **pooled})
    # a tape lives as long as its outputs: free each before the next runs
    del tape, mean
    # each parameter's sum starts as zeros of its own, so adds go in
    # place; a tape may reach none of it (e.g. image.* under point_rgb)
    grads = {path: np.zeros_like(tensor.data) for path, tensor in store.items()}
    for path, grad in g.items():
        if path in grads:  # not a pooled leaf
            grads[path] += grad

    for key, frame in frames.items():
        if key not in g:
            continue  # the loss does not depend on this frame
        with ad.Tape() as tape:
            pushed = ad.sum_all(ad.mul(model.encode(frame), g[key]))
        for path, grad in ad.backward(tape, pushed, store).items():
            grads[path] += grad
        del tape, pushed
    return grads, means


# -- checkpoints --------------------------------------------------------------

def _signature(model_cfg: ModelConfig) -> dict[str, int]:
    """The ``__cfg__`` entries: each model key that fixes a parameter shape."""
    keys = ("width", "image_hw", "window", "joint_feat_dim", "head_hidden")
    return {**{key: getattr(model_cfg, key) for key in keys},
            "fusion": FUSION_VARIANTS.index(model_cfg.fusion)}


def save_checkpoint(store: ParameterStore, path: str | Path,
                    model_cfg: ModelConfig, state: TrainState) -> None:
    extra = dict(store.state)
    for key, value in _signature(model_cfg).items():
        extra[f"__cfg__.{key}"] = np.asarray(float(value))
    extra["__state__.epoch"] = np.asarray(float(state.epoch))
    extra["__state__.step"] = np.asarray(float(state.step))
    extra["__state__.seed"] = np.asarray(float(state.seed))
    store.save(path, extra)


def _stored_count(entries: dict[str, np.ndarray], path, key: str) -> int:
    """The checkpoint entry ``key`` read as a count."""
    value = entries.get(key)
    if value is None:
        raise CheckpointMismatchError(f"{path}: no {key} entry")
    if (value.shape != () or not np.isfinite(value) or value < 0
            or value != np.floor(value)):
        raise CheckpointMismatchError(
            f"{path}: {key} = {value} is not a non-negative integer")
    return int(value)


def load_checkpoint(store: ParameterStore, path: str | Path,
                    model_cfg: ModelConfig) -> TrainState:
    """Load ``path`` into ``store`` (parameters and Adam's state); its TrainState.

    Checks run so that the first failure names its cause: the model
    signature, the train state, then every parameter and, when the file
    has any, Adam's ``__opt__`` entries (key set, shape, finite values,
    ``v >= 0``). Other ``__`` entries, such as the legacy
    ``__cfg__.n_points``, are ignored. Nothing is loaded unless all pass.
    """
    entries = ParameterStore.read_entries(path)
    for key, configured in _signature(model_cfg).items():
        stored = _stored_count(entries, path, f"__cfg__.{key}")
        if stored != configured:
            names = dict(enumerate(FUSION_VARIANTS)) if key == "fusion" else {}
            raise CheckpointMismatchError(
                f"{path}: checkpoint model.{key}={names.get(stored, stored)} "
                f"does not match configured {names.get(configured, configured)}")
    state = TrainState(**{key: _stored_count(entries, path, f"__state__.{key}")
                          for key in ("epoch", "step", "seed")})

    found = {k: v for k, v in entries.items()
             if not k.startswith("__") or k.startswith("__opt__")}
    shapes = {name: tensor.data.shape for name, tensor in store.items()}
    if any(k.startswith("__opt__") for k in found):  # none: saved before any optimizer
        _stored_count(entries, path, "__opt__.t")
        shapes |= {"__opt__.t": (), **{f"__opt__.{moment}.{name}": shape
                                       for moment in "mv" for name, shape in shapes.items()}}
    if set(found) != set(shapes):
        missing = sorted(set(shapes) - set(found))[:3]
        surplus = sorted(set(found) - set(shapes))[:3]
        raise CheckpointMismatchError(
            f"{path}: entries do not match the model (missing {missing}, surplus {surplus})")
    for key, arr in found.items():
        if arr.shape != shapes[key]:
            raise CheckpointMismatchError(
                f"{path}: {key} has shape {arr.shape}, expected {shapes[key]}")
        if not np.isfinite(arr).all():
            raise CheckpointMismatchError(f"{path}: {key} holds non-finite values")
        if key.startswith("__opt__.v.") and (arr < 0).any():
            raise CheckpointMismatchError(f"{path}: {key} holds negative values")
    for name, tensor in store.items():
        tensor.data = found[name]
    store.state = {k: v for k, v in found.items() if k.startswith("__opt__")}
    return state


def latest_checkpoint(checkpoint_dir: str | Path) -> Path | None:
    """The readable ``epoch_<n>.fpck`` of highest n; unreadable ones are skipped."""
    numbered = [(int(p.stem[len("epoch_"):]), p) for p in Path(checkpoint_dir).glob("epoch_*.fpck")
                if p.stem[len("epoch_"):].isdecimal()]
    for _, path in sorted(numbered, reverse=True):
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
        self.weights = LossWeights(**(loss_overrides or {}))
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
