"""Command-line surface: generate | train | eval | ablate | export-poses.

Every command exits 0 on success; failures print one machine-parseable
line (``fusionpose: error: <message>``) to stderr and exit 2 for bad
input/config or 3 for checkpoint/config mismatches.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ablate import STUDIES, run_study, write_study_csv
from .config import RunConfig, load_config
from .dataio import InstanceDataset, load_split
from .errors import CheckpointMismatchError, FusionPoseError
from .evaluate import evaluate_dataset, export_poses, write_window_scores
from .model import FusionPoseModel, build_model
from .synthdata.generate import generate_dataset
from .train import (Trainer, TrainingAborted, latest_checkpoint,
                    load_checkpoint, write_loss_log)


def _trained_model(cfg: RunConfig, checkpoint: str | None) -> FusionPoseModel:
    """The model in ``checkpoint``, or else in the newest checkpoint."""
    checkpoint = checkpoint or latest_checkpoint(cfg.path("checkpoint_dir"))
    if checkpoint is None:
        raise FusionPoseError("no checkpoint given and none found")
    model, store = build_model(cfg.model_config(), cfg.seed)
    load_checkpoint(store, checkpoint, model.cfg)
    return model


def _dataset(cfg: RunConfig, split: str, sequence: str | None = None) -> InstanceDataset:
    sequences = load_split(cfg.path("dataset_dir"), split)
    if sequence:
        if sequence not in sequences:
            raise FusionPoseError(f"sequence {sequence!r} not in split {split!r}")
        sequences = {sequence: sequences[sequence]}
    return InstanceDataset(sequences, cfg.model_config(), cfg.iou_threshold,
                           cfg.gate_distance, cfg.max_misses)


def _out_path(cfg: RunConfig, out: str | None, default_name: str) -> Path:
    path = Path(out) if out else cfg.path("report_dir") / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    summary = generate_dataset(cfg.scene_config(), cfg.path("dataset_dir"))
    print(f"dataset written to {summary['out_dir']}")
    print(f"persons={summary['persons']} "
          f"frames={summary['frames']} "
          f"mean_points_per_frame={summary['points_per_frame']:.1f}")
    for split, names in sorted(summary["files"].items()):
        print(f"{split}: {' '.join(names)}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    model, store = build_model(cfg.model_config(), cfg.seed)
    trainer = Trainer(cfg, _dataset(cfg, "train"), model, store)
    ckpt_dir = cfg.path("checkpoint_dir")
    log_path = _out_path(cfg, None, "loss_log.csv")

    def progress(row):
        parts = " ".join(f"{k}={row[k]:.4f}" for k in
                         ("motion", "consistency", "proj", "cd_agu", "total"))
        print(f"epoch={row['epoch']} step={row['step']} {parts}")

    if cfg.overfit_steps > 0:
        trainer.overfit(cfg.overfit_steps, progress=progress)
    else:
        trainer.train(checkpoint_dir=ckpt_dir, resume=not args.no_resume,
                      progress=progress)
    write_loss_log(trainer.log_rows, log_path)
    print(f"loss log: {log_path}")
    if cfg.overfit_steps == 0:
        print(f"checkpoints: {ckpt_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    mode = "oracle" if args.oracle else ("baseline" if args.baseline else "model")
    model = _trained_model(cfg, args.checkpoint) if mode == "model" else None
    report, windows = evaluate_dataset(model, _dataset(cfg, args.split), args.split,
                                       cfg.bone_samples, cfg.squared_cd,
                                       mode=mode)
    out = _out_path(cfg, args.out, f"metrics_{args.split}.csv")
    report.write_csv(out)
    write_window_scores(windows, out.with_name(out.stem + "_windows.csv"))
    print(f"split={report.split} pck={report.pck:.2f} mpjpe_mm={report.mpjpe_mm:.2f} "
          f"cd_mm={report.cd_mm:.2f} n={report.n_samples}")
    print(f"report: {out}")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    model = (_trained_model(cfg, args.checkpoint)
             if args.study in ("density", "occlusion") else None)
    rows = run_study(cfg, args.study, model=model)
    out = _out_path(cfg, args.out, f"ablation_{args.study}.csv")
    write_study_csv(rows, out)
    for r in rows:
        print(f"{r.study}/{r.arm}: pck={r.pck:.2f} mpjpe_mm={r.mpjpe_mm:.2f} "
              f"cd_mm={r.cd_mm:.2f}")
    print(f"report: {out}")
    return 0


def cmd_export_poses(args) -> int:
    cfg = load_config(args.config)
    model = None if args.gt else _trained_model(cfg, args.checkpoint)
    dataset = _dataset(cfg, args.split, args.sequence)
    out = _out_path(cfg, args.out, "poses.csv")
    rows = export_poses(model, dataset, out, use_gt=args.gt)
    print(f"wrote {rows} joint rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionpose",
        description="LiDAR+camera weakly-supervised 3D pose pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a dataset")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train (resumes from checkpoints)")
    p.add_argument("--config", required=True)
    p.add_argument("--no-resume", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--split", default="val")
    p.add_argument("--out")
    p.add_argument("--oracle", action="store_true",
                   help="score ground truth against itself")
    p.add_argument("--baseline", action="store_true",
                   help="score the static rest-pose baseline")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation study")
    p.add_argument("--config", required=True)
    p.add_argument("--study", required=True, choices=STUDIES)
    p.add_argument("--checkpoint")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export-poses", help="dump per-frame poses as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--split", default="val")
    p.add_argument("--sequence")
    p.add_argument("--out")
    p.add_argument("--gt", action="store_true", help="export ground truth")
    p.set_defaults(func=cmd_export_poses)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckpointMismatchError as exc:
        print(f"fusionpose: error: {exc}", file=sys.stderr)
        return 3
    except (FusionPoseError, TrainingAborted, FileNotFoundError) as exc:
        print(f"fusionpose: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
