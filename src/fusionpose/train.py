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

On a machine that lets this process run on two or more CPUs,
``Trainer.train`` forks one ``FrameWorker``, which holds the same
dataset and model, and hands it every second distinct frame of each
batch for the per-frame encoder work. The parent still adds every
gradient itself, in the order one process would, so checkpoints and
reports are byte-identical with and without the worker.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gc
import itertools
import logging
import mmap
import multiprocessing
import os
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


def _frame_gradients(model: FusionPoseModel, store: ParameterStore,
                     frame: ModelFrame, leaf_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Phase 3 for one frame: the parameter gradients of
    ``sum(encode(frame) * leaf_grad)``, on a tape of the frame's own."""
    with ad.Tape() as tape:
        pushed = ad.sum_all(ad.mul(model.encode(frame), leaf_grad))
    return ad.backward(tape, pushed, store)


def _add(grads: dict[str, np.ndarray], parts) -> None:
    """Add each of ``parts``' parameter gradients into ``grads`` in place."""
    for path, grad in parts.items():
        if path in grads:  # not a pooled leaf
            grads[path] += grad


def batch_gradients(model: FusionPoseModel, store: ParameterStore,
                    dataset: InstanceDataset, batch: list[InstanceSample],
                    weights: LossWeights, bone_samples: int,
                    worker: FrameWorker | None = None):
    """Mean loss gradients over a batch, each distinct frame encoded once.

    1. Every distinct FrameSample of the batch is encoded with no tape;
       its pooled feature becomes a leaf tensor.
    2. One tape records ``sequence_loss`` of the whole batch on those
       leaves; its backward gives the temporal, head and loss gradients
       plus the gradient of each leaf.
    3. Each frame's encoder runs again on a tape of its own, and the
       leaf gradient is pushed back through it as the gradient of
       ``sum(pooled * leaf_grad)``.

    The sum starts with phase 2's gradients and adds phase 3's one frame
    at a time, in the order the frames first appear in the batch. With a
    ``worker``, the frames at odd positions in that order go through
    phases 1 and 3 in the worker process, while this process runs the
    others; their phase-3 gradients come back through shared memory and
    are added at their own positions in the same order. A frame's
    gradients come from the same code, inputs, parameters and BLAS in
    either process, and floating-point sums depend only on their order,
    so the result is bit-identical to the call without a worker.
    """
    inputs = [dataset.model_frames(sample) for sample in batch]
    # windows that share a crop share its input object
    frames = {id(f): f for window in inputs for f in window}
    keys = list(frames)
    if worker:
        worker.start_step(store, batch)
    pooled = {key: model.encode(frames[key]) for key in (keys[::2] if worker else keys)}
    if worker:
        pooled.update(zip(keys[1::2], worker.pooled()))

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
    _add(grads, g)
    if worker:
        worker.backprop([g.get(key) for key in keys[1::2]])
    for i, key in enumerate(keys):
        if key not in g:
            continue  # the loss does not depend on this frame
        if worker and i % 2:
            _add(grads, worker.gradients())
            worker.release()
        else:
            _add(grads, _frame_gradients(model, store, frames[key], g[key]))
    return grads, means


# -- the frame worker ------------------------------------------------------------

def _shared_arrays(store: ParameterStore) -> dict[str, np.ndarray]:
    """A zeroed array per parameter, each a view of one anonymous shared
    mapping that a forked child shares, on a 64-byte boundary."""
    starts, size = [], 0
    for _, tensor in store.items():
        starts.append(size)
        size += -(-tensor.data.size // 8) * 8
    flat = np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)
    return {path: flat[start:start + tensor.data.size].reshape(tensor.data.shape)
            for start, (path, tensor) in zip(starts, store.items())}


class FrameWorker:
    """A forked process that takes every second distinct frame of a batch.

    It is forked, not spawned, so that it holds the dataset and the model
    with nothing pickled, and the same BLAS at the same thread count, so
    that its frames get the bits they would get in the parent. Its
    parameters are views of a shared buffer, which the parent fills
    before each step. Each step is one exchange on a pipe:

    - the parent sends the batch as positions in ``dataset.samples``; the
      worker encodes its frames with no tape and sends their pooled rows
      (phase 1);
    - the parent sends its frames' leaf gradients (None where the loss
      does not reach the frame); the worker runs phase 3 on each frame
      in turn, writes the gradients of its n-th into shared slot n % 2,
      and sends the paths they reach. Before it reuses a slot, it waits
      for the parent's note that the slot's last gradients are added.

    Every wait of the worker is a pipe read, so closing the parent's end
    stops it. An exception in the worker is raised again in the parent;
    a worker that dies becomes ``TrainingAborted``.
    """

    def __init__(self, model: FusionPoseModel, store: ParameterStore,
                 dataset: InstanceDataset):
        self.params = _shared_arrays(store)
        self.slots = (_shared_arrays(store), _shared_arrays(store))
        self._position = {id(s): i for i, s in enumerate(dataset.samples)}
        self._added = self._pending = 0  # this step's worker frames
        self._conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.get_context("fork").Process(
            target=self._serve, args=(child, model, store, dataset), daemon=True)
        # until ``close``, the objects of both processes at the fork are
        # left out of their collections, whose writes to object headers
        # would copy the pages the two share
        gc.freeze()
        try:
            self.process.start()
        except OSError:
            gc.unfreeze()
            self._conn.close()
            raise
        finally:
            child.close()

    def _slot(self, n: int) -> dict[str, np.ndarray]:
        return self.slots[n % 2]

    # -- in the worker

    def _serve(self, conn, model: FusionPoseModel, store: ParameterStore,
               dataset: InstanceDataset) -> None:
        self._conn.close()  # else the parent's close would not end the reads
        for path, tensor in store.items():
            tensor.data = self.params[path]
        try:
            while True:
                batch = [dataset.samples[i] for i in conn.recv()]
                frames = {id(f): f for s in batch for f in dataset.model_frames(s)}
                mine = list(frames.values())[1::2]
                conn.send([model.encode(frame).data for frame in mine])
                reached = [(frame, leaf) for frame, leaf in zip(mine, conn.recv())
                           if leaf is not None]
                for n, (frame, leaf) in enumerate(reached):
                    if n >= 2:
                        conn.recv()  # slot n % 2 is added
                    grads = _frame_gradients(model, store, frame, leaf)
                    for path, grad in grads.items():
                        self._slot(n)[path][...] = grad
                    conn.send(list(grads))
        except EOFError:
            return  # the parent closed its end
        except Exception as exc:  # raised again in the parent
            with contextlib.suppress(OSError):  # nobody left to tell
                try:
                    conn.send(exc)
                except Exception:  # it does not pickle
                    conn.send(RuntimeError(f"training worker: {exc!r}"))

    # -- in the parent

    def start_step(self, store: ParameterStore, batch: list[InstanceSample]) -> None:
        for path, tensor in store.items():
            np.copyto(self.params[path], tensor.data)
        self._send([self._position[id(s)] for s in batch])

    def pooled(self) -> list[ad.Tensor]:
        """The worker's frames' pooled features, as leaves."""
        return [ad.Tensor(row) for row in self._recv()]

    def backprop(self, leaf_grads: list[np.ndarray | None]) -> None:
        self._added = 0
        self._pending = sum(grad is not None for grad in leaf_grads)
        self._send(leaf_grads)

    def gradients(self) -> dict[str, np.ndarray]:
        """The next worker frame's parameter gradients, as views of its slot."""
        slot = self._slot(self._added)
        return {path: slot[path] for path in self._recv()}

    def release(self) -> None:
        """Hand back the slot just added, if a later frame of the step needs it."""
        self._added += 1
        if self._added + 1 < self._pending:
            self._send(None)

    def _send(self, message) -> None:
        try:
            self._conn.send(message)
        except OSError as exc:
            if self._conn.poll():  # the worker failed and said why before it ended
                self._recv()
            raise self._died() from exc

    def _recv(self):
        try:
            message = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._died() from exc
        if isinstance(message, BaseException):
            raise message
        return message

    def _died(self) -> TrainingAborted:
        self.process.join(timeout=1.0)
        return TrainingAborted(
            f"the training worker stopped (exit code {self.process.exitcode}); "
            "last checkpoint kept")

    def close(self) -> None:
        """Stop the worker and wait for it."""
        self._conn.close()
        self.process.join(timeout=10.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        gc.unfreeze()


def _second_core() -> bool:
    """Whether this process can fork and may run on two or more CPUs."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


def fork_worker(model: FusionPoseModel, store: ParameterStore,
                dataset: InstanceDataset) -> FrameWorker | None:
    """A FrameWorker where a second core is there and the fork succeeds, else None."""
    if not _second_core():
        return None
    try:
        return FrameWorker(model, store, dataset)
    except OSError as exc:
        log.warning("training in one process: cannot fork a worker: %s", exc)
        return None


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
        self._worker: FrameWorker | None = None  # forked while ``train`` runs

    def _step(self, batch: list[InstanceSample]) -> dict[str, float]:
        """One optimizer step on ``batch``; returns its mean loss terms."""
        grads, means = batch_gradients(self.model, self.store, self.dataset,
                                       batch, self.weights, self.cfg.bone_samples,
                                       self._worker)
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

        # the worker is forked inside the guard's scope, so it faults too
        with GT_GUARD.forbid():
            self._worker = fork_worker(self.model, self.store, self.dataset)
            try:
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
            finally:
                if self._worker is not None:
                    self._worker.close()
                    self._worker = None
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
