"""Run configuration: flat ``key = value`` text files with dotted keys.

Unknown keys are rejected with the offending key named; values are
coerced to the field's type. ``FUSIONPOSE_SEED`` in the environment
overrides the configured seed. Relative paths resolve against the
config file's directory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .losses import LossWeights
from .model import ModelConfig
from .synthdata.generate import SceneConfig, default_calibration, default_scene

_MAX_PERSONS = 1000
_MAX_FRAMES = 1_000_000
_MIN_FRAMES = 8  # generate_dataset clamps each split to at least 4 frames


@dataclass
class RunConfig:
    seed: int = 42
    # paths
    dataset_dir: str = "data"
    checkpoint_dir: str = "checkpoints"
    report_dir: str = "reports"
    # model
    n_points: int = 256
    width: int = 256
    image_hw: int = 64
    window: int = 4
    joint_feat_dim: int = 64
    head_hidden: int = 64
    fusion: str = "ipa"
    # losses
    lambda_motion: float = 1.0
    lambda_consistency: float = 0.1
    lambda_proj: float = 1.0
    lambda_cd_agu: float = 0.5
    bone_samples: int = 3
    # optimizer / training
    step_size: float = 1e-3
    epochs: int = 30
    batch_size: int = 8
    window_stride: int = 1
    # association
    iou_threshold: float = 0.3
    gate_distance: float = 1.0
    max_misses: int = 3
    # scene generation
    scene_persons: int = 3
    scene_frames: int = 200
    raster_h: int = 96
    raster_w: int = 96
    val_fraction: float = 0.3
    # ablation switches
    occlusion_fraction: float = 0.6
    point_budgets: tuple[int, ...] = (256, 128, 64, 32)
    squared_cd: bool = False
    base_dir: str = "."

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # Generation loops over persons and frames: bound both.
        if not 1 <= self.scene_persons <= _MAX_PERSONS:
            raise ConfigError(f"scene.persons must be in [1, {_MAX_PERSONS}]")
        if not _MIN_FRAMES <= self.scene_frames <= _MAX_FRAMES:
            raise ConfigError(f"scene.frames must be in [{_MIN_FRAMES}, {_MAX_FRAMES}]")
        for name in ("raster_h", "raster_w"):
            if getattr(self, name) < 1:
                raise ConfigError(f"scene.{name} must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:  # also rejects nan
            raise ConfigError("scene.val_fraction must be finite and in (0, 1)")
        if self.batch_size < 1:
            raise ConfigError("optim.batch_size must be >= 1")
        self.model_config()  # raises on any model.* key that cannot run
        if self.window_stride < 1:
            raise ConfigError("train.window_stride must be >= 1")
        if self.bone_samples < 0:
            raise ConfigError("loss.bone_samples must be >= 0")
        for name in ("lambda_motion", "lambda_consistency", "lambda_proj", "lambda_cd_agu"):
            if not 0.0 <= getattr(self, name) < math.inf:  # also rejects nan
                raise ConfigError(f"loss.{name} must be finite and >= 0")
        if not 0.0 < self.step_size < math.inf:
            raise ConfigError("optim.step_size must be finite and > 0")
        if self.epochs < 1:
            raise ConfigError("optim.epochs must be >= 1")
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ConfigError("assoc.iou_threshold must be in [0, 1]")
        if not 0.0 < self.gate_distance < math.inf:
            raise ConfigError("assoc.gate_distance must be finite and > 0")
        if self.max_misses < 0:
            raise ConfigError("assoc.max_misses must be >= 0")
        if not 0.0 <= self.occlusion_fraction < 1.0:  # also rejects nan
            raise ConfigError("ablate.occlusion_fraction must be finite and in [0, 1)")
        if any(budget < 1 for budget in self.point_budgets):
            raise ConfigError("ablate.point_budgets must all be >= 1")

    # -- derived objects ----------------------------------------------------

    def path(self, name: str) -> Path:
        return (Path(self.base_dir) / getattr(self, name)).resolve()

    def model_config(self, fusion: str | None = None) -> ModelConfig:
        return ModelConfig(
            n_points=self.n_points,
            width=self.width,
            image_hw=self.image_hw,
            window=self.window,
            joint_feat_dim=self.joint_feat_dim,
            head_hidden=self.head_hidden,
            fusion=fusion or self.fusion,
        )

    def loss_weights(self, overrides: dict[str, float] | None = None) -> LossWeights:
        values = dict(motion=self.lambda_motion, consistency=self.lambda_consistency,
                      proj=self.lambda_proj, cd_agu=self.lambda_cd_agu)
        values.update(overrides or {})
        return LossWeights(**values)

    def scene_config(self) -> SceneConfig:
        """The scene at this config's size; the sensors and noise are
        ``SceneConfig``'s defaults."""
        return default_scene(
            n_persons=self.scene_persons,
            frames=self.scene_frames,
            seed=self.seed,
            raster_h=self.raster_h,
            raster_w=self.raster_w,
            calibration=default_calibration(self.raster_w, self.raster_h),
            val_fraction=self.val_fraction,
        )


_KEY_MAP = {
    "seed": "seed",
    "paths.dataset_dir": "dataset_dir",
    "paths.checkpoint_dir": "checkpoint_dir",
    "paths.report_dir": "report_dir",
    "model.n_points": "n_points",
    "model.width": "width",
    "model.image_hw": "image_hw",
    "model.window": "window",
    "model.joint_feat_dim": "joint_feat_dim",
    "model.head_hidden": "head_hidden",
    "model.fusion": "fusion",
    "loss.lambda_motion": "lambda_motion",
    "loss.lambda_consistency": "lambda_consistency",
    "loss.lambda_proj": "lambda_proj",
    "loss.lambda_cd_agu": "lambda_cd_agu",
    "loss.bone_samples": "bone_samples",
    "optim.step_size": "step_size",
    "optim.epochs": "epochs",
    "optim.batch_size": "batch_size",
    "train.window_stride": "window_stride",
    "assoc.iou_threshold": "iou_threshold",
    "assoc.gate_distance": "gate_distance",
    "assoc.max_misses": "max_misses",
    "scene.persons": "scene_persons",
    "scene.frames": "scene_frames",
    "scene.raster_h": "raster_h",
    "scene.raster_w": "raster_w",
    "scene.val_fraction": "val_fraction",
    "ablate.occlusion_fraction": "occlusion_fraction",
    "ablate.point_budgets": "point_budgets",
    "eval.squared_cd": "squared_cd",
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(field_name: str, raw: str):
    ftype = _FIELD_TYPES[field_name]
    raw = raw.strip()
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        if ftype == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if ftype == "tuple[int, ...]":
            return tuple(int(v) for v in raw.split(",") if v.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(f"{field_name}: cannot parse {raw!r}") from exc


def parse_config_text(text: str, base_dir: str = ".") -> RunConfig:
    values: dict[str, object] = {"base_dir": base_dir}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _KEY_MAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field_name = _KEY_MAP[key]
        values[field_name] = _coerce(field_name, rhs)
    return RunConfig(**values)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cfg = parse_config_text(path.read_text(), base_dir=str(path.parent))
    env_seed = os.environ.get("FUSIONPOSE_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"FUSIONPOSE_SEED={env_seed!r} is not an integer") from exc
        if cfg.seed < 0:
            raise ConfigError(f"FUSIONPOSE_SEED={env_seed!r}: seed must be >= 0")
    return cfg
