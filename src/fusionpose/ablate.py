"""Ablation studies: fusion variants, loss components, density, occlusion.

Every study emits rows of (study, arm, pck, mpjpe_mm, cd_mm, n_samples)
with identical seeds across arms. Fusion and loss-component studies
train one model per arm; density and occlusion re-evaluate a trained
checkpoint under degraded inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .config import RunConfig
from .dataio import InstanceDataset, load_split
from .errors import ConfigError
from .evaluate import evaluate_dataset
from .model import FUSION_VARIANTS, FusionPoseModel, ModelConfig, build_model
from .train import Trainer

STUDIES = ("fusion", "loss_components", "density", "occlusion")

# Stacked arms mirroring the component table: attention fusion alone,
# then adding the consistency block, motion block, and Chamfer term.
LOSS_ARMS = (
    ("ipa", {"motion": 0.0, "consistency": 0.0, "cd_agu": 0.0}),
    ("ipa+cb", {"motion": 0.0, "cd_agu": 0.0}),
    ("ipa+cb+mb", {"cd_agu": 0.0}),
    ("ipa+cb+mb+cda", {}),
)


@dataclass
class StudyRow:
    study: str
    arm: str
    pck: float
    mpjpe_mm: float
    cd_mm: float
    n_samples: int


def _dataset(cfg: RunConfig, split: str, model_cfg: ModelConfig) -> InstanceDataset:
    return InstanceDataset(load_split(cfg.path("dataset_dir"), split), model_cfg,
                           cfg.iou_threshold, cfg.gate_distance, cfg.max_misses)


def _train_and_eval(cfg: RunConfig, fusion: str, loss_overrides: dict | None,
                    train_data: InstanceDataset, val_data: InstanceDataset,
                    epochs: int) -> tuple[float, float, float, int]:
    model, store = build_model(cfg.model_config(fusion=fusion), cfg.seed)
    trainer = Trainer(cfg, train_data, model, store, loss_overrides)
    trainer.train(checkpoint_dir=None, epochs=epochs)
    report, _ = evaluate_dataset(model, val_data, "val", cfg.bone_samples,
                                 cfg.squared_cd)
    return report.pck, report.mpjpe_mm, report.cd_mm, report.n_samples


def run_study(cfg: RunConfig, study: str,
              model: FusionPoseModel | None = None,
              epochs: int | None = None) -> list[StudyRow]:
    """Run one study; training studies build their own models, the
    eval-only studies require a trained model."""
    if study not in STUDIES:
        raise ConfigError(f"unknown study {study!r}; choose from {STUDIES}")
    epochs = epochs if epochs is not None else cfg.epochs
    rows: list[StudyRow] = []

    if study in ("fusion", "loss_components"):
        train_data = _dataset(cfg, "train", cfg.model_config())
        val_data = _dataset(cfg, "val", cfg.model_config())
        if study == "fusion":
            arms = [(variant, None) for variant in FUSION_VARIANTS]
        else:
            arms = list(LOSS_ARMS)
        for arm, overrides in arms:
            fusion = arm if study == "fusion" else "ipa"
            p, m, c, n = _train_and_eval(cfg, fusion, overrides, train_data,
                                         val_data, epochs)
            rows.append(StudyRow(study, arm, p, m, c, n))
        return rows

    if model is None:
        raise ConfigError(f"study {study!r} evaluates a trained checkpoint")
    val_data = _dataset(cfg, "val", model.cfg)
    if study == "density":
        for budget in cfg.point_budgets:
            report, _ = evaluate_dataset(model, val_data, "val", cfg.bone_samples,
                                         cfg.squared_cd, point_budget=budget,
                                         seed=cfg.seed)
            rows.append(StudyRow(study, str(budget), report.pck, report.mpjpe_mm,
                                 report.cd_mm, report.n_samples))
    else:  # occlusion
        for fraction in (0.0, cfg.occlusion_fraction):
            report, _ = evaluate_dataset(model, val_data, "val", cfg.bone_samples,
                                         cfg.squared_cd, occlusion=fraction,
                                         seed=cfg.seed)
            rows.append(StudyRow(study, repr(fraction), report.pck, report.mpjpe_mm,
                                 report.cd_mm, report.n_samples))
    return rows


def write_study_csv(rows: list[StudyRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["study", "arm", "pck", "mpjpe_mm", "cd_mm", "n_samples"])
        for r in rows:
            writer.writerow([r.study, r.arm, repr(r.pck), repr(r.mpjpe_mm),
                             repr(r.cd_mm), r.n_samples])
