"""The three benchmark workloads, driven through fusionpose's public API.

Each workload has a ``setup`` (from start to ready, timed several times
per run) and a ``measure`` pass that does the timed work, checks its
outputs and returns an :class:`Outcome`. The load is a closed loop in
one process: the next operation starts when the previous one returns.

``ingest`` simulates the scene of the run's seed. ``train`` and
``ablate_eval`` read the reference scene at DATASET_SEED, so that every
run sets up and processes the same data; the run's seed drives the
model's initial weights, the batch order and the ablation arms'
resampling. That dataset is generated once per source tree, in a
child process so that its memory never shows in the workload's peak
RSS, and reused by later runs; only ``ingest`` times generation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fusionpose import ablate as fp_ablate
from fusionpose import model as fp_model
from fusionpose import params as fp_params
from fusionpose import train as fp_train
from fusionpose.ablate import run_study
from fusionpose.config import RunConfig, load_config
from fusionpose.dataio import InstanceDataset, load_split
from fusionpose.evaluate import evaluate_dataset
from fusionpose.gtguard import GT_GUARD
from fusionpose.model import build_model
from fusionpose.params import ParameterStore
from fusionpose.synthdata import generate as fp_generate
from fusionpose.synthdata.generate import generate_dataset
from fusionpose.train import Trainer, latest_checkpoint, load_checkpoint

from tracer import StepClock

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = ROOT / "configs" / "reference.cfg"
STATE_DIR = ROOT / ".perfbench"

# Scene seed of the dataset that train and ablate_eval read. With data
# from the run's seed, set-up time differed up to 3x between seeds
# (farthest-point sampling runs only on crops above model.n_points), so
# two sets of seeds disagreed. Seed 3 drops no window (the config file's
# seed 42 drops one for an empty crop) and its set-up time is near the
# median of seeds 1-10.
DATASET_SEED = 3

# Training runs the fewest whole epochs that give this many optimizer
# steps, so that step_ms_p90 has at least ten samples above it.
MIN_TRAIN_STEPS = 100


@dataclass
class Outcome:
    """What one measured pass did and whether its outputs were right."""

    items: int  # frames (ingest) or windows (train, ablate_eval)
    seconds: float  # wall time of the measured pass
    step_ms: list[float]  # closed-loop step intervals
    pck: float
    mpjpe_mm: float
    scored: int  # poses behind pck / mpjpe_mm
    windows_built: int = 0
    windows_dropped: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    first_epoch_s: float = 0.0  # train only: used for the tracing overhead


def reference_config(seed: int, **overrides) -> RunConfig:
    """The reference run config at ``seed``; overrides set RunConfig fields."""
    cfg = load_config(REFERENCE_CONFIG)
    cfg.seed = seed
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


_PATH_FIELDS = ("dataset_dir", "checkpoint_dir", "report_dir", "base_dir")


def source_fingerprint(cfg: RunConfig) -> str:
    """Hash of the program sources and the config, keying cached datasets."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fusionpose").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    settings = {k: v for k, v in vars(cfg).items() if k not in _PATH_FIELDS}
    h.update(repr(sorted(settings.items())).encode())
    return h.hexdigest()[:16]


def _dataset_key(cfg: RunConfig) -> str:
    return f"{source_fingerprint(cfg)}-seed{cfg.seed}"


def cached_dataset_dir(cfg: RunConfig) -> Path:
    return STATE_DIR / "data" / _dataset_key(cfg)


def seqfile_digests(dataset_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(dataset_dir.glob("*.fpseq"))}


def check_digests(cfg: RunConfig, dataset_dir: Path) -> bool:
    """True when the .fpseq files match every earlier run at this seed.

    The first run at a seed records the digests.
    """
    record = STATE_DIR / "digests" / f"{_dataset_key(cfg)}.json"
    digests = seqfile_digests(dataset_dir)
    if record.exists():
        return json.loads(record.read_text()) == digests
    record.parent.mkdir(parents=True, exist_ok=True)
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, indent=1))
    os.replace(tmp, record)
    return True


def scratch_root() -> Path:
    """This process's temporary directories; the run removes it at exit."""
    return STATE_DIR / "tmp" / str(os.getpid())


def scratch_dir() -> Path:
    base = scratch_root()
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def prepare_dataset(cfg: RunConfig) -> None:
    """Generate the cached dataset for ``cfg`` (the child process's job)."""
    target = cached_dataset_dir(cfg)
    if target.exists():
        return
    out = scratch_dir()
    generate_dataset(cfg.scene_config(), out)
    check_digests(cfg, out)
    target.parent.mkdir(parents=True, exist_ok=True)
    os.replace(out, target)


def ensure_dataset(cfg: RunConfig, run_py: Path) -> Path:
    """The cached dataset directory, generated in a child process if missing."""
    target = cached_dataset_dir(cfg)
    if not target.exists():
        subprocess.run([sys.executable, str(run_py), "--prepare",
                        "--seed", str(cfg.seed)], check=True, timeout=170)
    if not target.exists():
        raise RuntimeError(f"dataset preparation did not produce {target}")
    return target


def _dataset(cfg: RunConfig, split: str, directory: Path | None = None
             ) -> InstanceDataset:
    return InstanceDataset(load_split(directory or cfg.path("dataset_dir"), split),
                           cfg.model_config(), cfg.iou_threshold,
                           cfg.gate_distance, cfg.max_misses)


def _windows(*datasets: InstanceDataset) -> tuple[int, int]:
    built = sum(len(d.samples) for d in datasets)
    dropped = sum(d._dropped for d in datasets)
    return built + dropped, dropped


# -- ingest --------------------------------------------------------------------


class Ingest:
    """generate_dataset, then read both splits back into InstanceDatasets."""

    name = "ingest"
    throughput_name = "ingest_frames_per_s"
    quality_of = "static rest-pose baseline"
    needs_dataset = False
    min_passes = 1

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    def setup(self):
        return self.cfg.scene_config()

    def measure(self, scene) -> Outcome:
        out = scratch_dir()
        clock = StepClock(fp_generate, "simulate_lidar")
        try:
            t0 = time.perf_counter()
            generate_dataset(scene, out)
            train_ds = _dataset(self.cfg, "train", out)
            val_ds = _dataset(self.cfg, "val", out)
            seconds = time.perf_counter() - t0
        finally:
            clock.uninstall()
        # Quality of the generated data: the static rest-pose baseline on val.
        report, _ = evaluate_dataset(None, val_ds, "val", self.cfg.bone_samples,
                                     self.cfg.squared_cd, mode="baseline")
        checks = {
            "fpseq_byte_identical": check_digests(self.cfg, out),
            "baseline_report_finite": bool(np.isfinite(
                [report.pck, report.mpjpe_mm, report.cd_mm]).all()),
        }
        attempted, dropped = _windows(train_ds, val_ds)
        shutil.rmtree(out)
        return Outcome(scene.frame_count, seconds, clock.intervals_ms(t0),
                       report.pck, report.mpjpe_mm, report.n_samples,
                       attempted, dropped, checks)


# -- train ---------------------------------------------------------------------


class Train:
    """Trainer.train for whole epochs with a checkpoint each epoch, then eval."""

    name = "train"
    throughput_name = "train_windows_per_s"
    quality_of = "trained model"
    needs_dataset = True
    min_passes = 1

    def __init__(self, cfg: RunConfig, epochs: int | None = None):
        self.cfg = cfg
        self.epochs = epochs

    def setup(self):
        train_ds = _dataset(self.cfg, "train")
        val_ds = _dataset(self.cfg, "val")
        model, store = build_model(self.cfg.model_config(), self.cfg.seed)
        return train_ds, val_ds, model, store

    def epochs_for(self, trainer: Trainer) -> int:
        if self.epochs is not None:
            return self.epochs
        steps = math.ceil(len(trainer.train_samples) / self.cfg.batch_size)
        return max(2, math.ceil(MIN_TRAIN_STEPS / steps))

    def measure(self, ctx) -> Outcome:
        train_ds, val_ds, model, store = ctx
        losses: list[float] = []
        steps = StepClock(fp_params.Adam, "step")
        batches = StepClock(fp_train, "batch_gradients",
                            on_return=lambda result: losses.append(result[1]["total"]))
        epoch_ends: list[float] = []
        ckpt_dir = scratch_dir()
        try:
            guard_before = GT_GUARD.access_count
            t0 = time.perf_counter()
            trainer = Trainer(self.cfg, train_ds, model, store)
            epochs = self.epochs_for(trainer)
            trainer.train(checkpoint_dir=ckpt_dir, epochs=epochs, resume=False,
                          progress=lambda row: epoch_ends.append(time.perf_counter()))
            seconds = time.perf_counter() - t0
            guard_ok = GT_GUARD.access_count == guard_before
        finally:
            steps.uninstall()
            batches.uninstall()
        try:
            reload_ok = self._checkpoint_reloads(store, latest_checkpoint(ckpt_dir))
        finally:
            shutil.rmtree(ckpt_dir)
        report, _ = evaluate_dataset(model, val_ds, "val", self.cfg.bone_samples,
                                     self.cfg.squared_cd)
        checks = {
            "every_step_loss_finite": len(losses) == trainer.state.step
                                      and bool(np.isfinite(losses).all()),
            "no_gt_access_while_training": guard_ok,
            "checkpoint_reloads": reload_ok,
            "val_report_finite": bool(np.isfinite(
                [report.pck, report.mpjpe_mm, report.cd_mm]).all()),
        }
        attempted, dropped = _windows(train_ds, val_ds)
        return Outcome(len(trainer.train_samples) * epochs, seconds,
                       steps.intervals_ms(t0), report.pck, report.mpjpe_mm,
                       report.n_samples, attempted, dropped, checks,
                       first_epoch_s=epoch_ends[0] - t0)

    def _checkpoint_reloads(self, store: ParameterStore, path) -> bool:
        """The newest checkpoint loads back into a fresh model, bit for bit."""
        if path is None:
            return False
        _, fresh = build_model(self.cfg.model_config(), self.cfg.seed + 1)
        load_checkpoint(fresh, path, self.cfg.model_config())
        return all(np.array_equal(fresh[p].data, t.data) for p, t in store.items())


# -- ablate_eval -----------------------------------------------------------------


class AblateEval:
    """The density and occlusion studies on a model built from the seed.

    Set-up is only the model: run_study reads and builds the val split
    itself, once per study, so that build is part of the measured pass
    as it is for a user of ``fusionpose ablate``.
    """

    name = "ablate_eval"
    throughput_name = "eval_windows_per_s"
    quality_of = "seed-initialised model, clean occlusion arm"
    needs_dataset = True
    # One pass is ~13 s; the host's speed drifts over seconds, so a second
    # pass halves the weight of any one slow stretch.
    min_passes = 2

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    def setup(self):
        model, _ = build_model(self.cfg.model_config(), self.cfg.seed)
        return model

    def measure(self, model) -> Outcome:
        built: list[InstanceDataset] = []
        clock = StepClock(fp_model.FusionPoseModel, "forward")
        datasets = StepClock(fp_ablate, "InstanceDataset", on_return=built.append)
        try:
            t0 = time.perf_counter()
            rows = (run_study(self.cfg, "density", model)
                    + run_study(self.cfg, "occlusion", model))
            seconds = time.perf_counter() - t0
        finally:
            clock.uninstall()
            datasets.uninstall()
        windows = len(built[0].samples)
        by_arm = {(r.study, r.arm): r for r in rows}
        full = by_arm[("density", "256")]
        clean = by_arm[("occlusion", "0.0")]
        checks = {
            "every_arm_finite": all(np.isfinite([r.pck, r.mpjpe_mm, r.cd_mm]).all()
                                    for r in rows),
            "n_samples_is_4x_windows": all(len(d.samples) == windows for d in built)
                                       and all(r.n_samples == self.cfg.window * windows
                                               for r in rows),
            "budget_256_equals_clean": (full.pck, full.mpjpe_mm, full.cd_mm,
                                        full.n_samples)
                                       == (clean.pck, clean.mpjpe_mm, clean.cd_mm,
                                           clean.n_samples),
        }
        attempted, dropped = _windows(*built)
        return Outcome(windows * len(rows), seconds, clock.intervals_ms(t0),
                       clean.pck, clean.mpjpe_mm, clean.n_samples,
                       attempted, dropped, checks)


WORKLOADS = {w.name: w for w in (Ingest, Train, AblateEval)}
