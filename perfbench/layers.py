"""Per-layer hooks, the per-layer metrics they yield, and what each predicts.

``install`` wraps the public functions of each fusionpose module at the
place its caller looks them up. ``layer_metrics`` turns the spans and
counts into the per-layer metrics named in BENCHMARK.json. Time metrics
(``*_s``) are self time: the span minus the spans nested in it. The one
exception is ``train.forward_s``, which is the whole taped forward pass
(model + losses) so that forward and backward can be compared.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from fusionpose import autodiff, dataio, evaluate, model, params, train
from fusionpose.association import InstanceTracker
from fusionpose.metrics import MetricAccumulator
from fusionpose.synthdata import generate, sensors

from tracer import Tracer

# The traced pass opens a new step at each call of this span.
STEP_SPANS = {"ingest": "synthdata.lidar", "train": "train.batch",
              "ablate_eval": "dataio.model_frames"}

# per-layer metric -> (end-to-end metric it should move, on which workloads;
# "none" marks a pairing where no move is predicted). Printed by the traced
# run and copied into each traced result file.
PREDICTIONS = {
    "synthdata.intersect_s": "throughput_per_s on ingest; none on train, ablate_eval",
    "synthdata.lidar_s": "throughput_per_s on ingest; none on train, ablate_eval",
    "synthdata.raster_s": "throughput_per_s on ingest; none on train, ablate_eval",
    "synthdata.kp_det_s": "throughput_per_s on ingest; none on train, ablate_eval",
    "synthdata.ray_capsule_tests": "throughput_per_s on ingest",
    "synthdata.ray_hit_ratio": "throughput_per_s on ingest (useful work for culling)",
    "seqfile.write_s": "throughput_per_s on ingest",
    "seqfile.read_s": "throughput_per_s on ingest, ablate_eval; setup_s on train",
    "seqfile.bytes": "throughput_per_s on ingest",
    "association.pair_s": "setup_s on train; throughput_per_s on ablate_eval "
                          "(run_study builds val twice); none visible on ingest (~1.5%)",
    "association.track_s": "setup_s on train; throughput_per_s on ablate_eval; "
                           "none visible on ingest",
    "association.pairs": "setup_s on train; throughput_per_s on ablate_eval",
    "geometry.crop_s": "setup_s on train; throughput_per_s on ablate_eval",
    "geometry.downsample_s": "setup_s on train; throughput_per_s on ablate_eval "
                             "(arms resample per window)",
    "geometry.downsample_calls": "setup_s on train; throughput_per_s on ablate_eval",
    "dataio.build_s": "setup_s on train; throughput_per_s on ingest, ablate_eval",
    "dataio.windows": "setup_s on train; throughput_per_s on ingest, ablate_eval",
    "dataio.windows_dropped": "failed on every workload",
    "dataio.model_frames_s": "throughput_per_s on ablate_eval (arms resample per "
                             "window); throughput_per_s, step_ms_* on train "
                             "(cached crops)",
    "dataio.real_point_ratio": "padding gain in model.point_encoder_s and "
                               "model.fusion_s on train, ablate_eval",
    "model.point_encoder_s": "throughput_per_s, step_ms_* on train, ablate_eval",
    "model.image_encoder_s": "throughput_per_s, step_ms_* on train, ablate_eval",
    "model.fusion_s": "throughput_per_s, step_ms_* on train, ablate_eval",
    "model.temporal_s": "throughput_per_s, step_ms_* on train, ablate_eval",
    "model.frame_encodes_per_window": "throughput_per_s on ablate_eval (encode-once); "
                                      "on train only with a segment sampler",
    "model.fwd_mflop_per_window": "throughput_per_s on train, ablate_eval",
    "train.forward_s": "throughput_per_s, step_ms_* on train; none on ablate_eval",
    "autodiff.backward_s": "throughput_per_s, step_ms_* on train; none on ablate_eval",
    "autodiff.ops_per_window": "throughput_per_s, step_ms_* on train; none on ablate_eval",
    "losses.motion_s": "throughput_per_s, step_ms_* on train; none on ablate_eval",
    "losses.consistency_s": "throughput_per_s, step_ms_* on train; none on ablate_eval",
    "losses.proj_s": "throughput_per_s, step_ms_* on train; none on ablate_eval",
    "losses.chamfer_s": "throughput_per_s, step_ms_* on train; none on ablate_eval",
    "params.adam_s": "throughput_per_s, step_ms_* on train; none on ablate_eval",
    "params.save_s": "throughput_per_s on train; none on ablate_eval",
    "params.checkpoint_bytes": "throughput_per_s on train",
    "metrics.accumulate_s": "throughput_per_s on ablate_eval",
    "trace.overhead_s": "none: the traced pass minus the untraced pass",
    "trace.overhead_pct": "none: trace.overhead_s over the untraced pass",
}

# span name -> per-layer time metric built from its self time
_TIME_METRICS = {
    "synthdata.intersect_s": ("synthdata.intersect",),
    "synthdata.lidar_s": ("synthdata.lidar",),
    "synthdata.raster_s": ("synthdata.raster",),
    "synthdata.kp_det_s": ("synthdata.kp_2d", "synthdata.detections"),
    "seqfile.write_s": ("seqfile.write",),
    "seqfile.read_s": ("seqfile.read",),
    "association.pair_s": ("association.pair",),
    "association.track_s": ("association.track", "association.windows"),
    "geometry.crop_s": ("geometry.crop_points", "geometry.crop_image"),
    "geometry.downsample_s": ("geometry.downsample",),
    "dataio.build_s": ("dataio.build",),
    "dataio.model_frames_s": ("dataio.model_frames",),
    "model.point_encoder_s": ("model.point_encoder",),
    "model.image_encoder_s": ("model.image_encoder",),
    "model.fusion_s": ("model.fusion",),
    "model.temporal_s": ("model.temporal",),
    "autodiff.backward_s": ("autodiff.backward",),
    "losses.motion_s": ("losses.motion",),
    "losses.consistency_s": ("losses.consistency",),
    "losses.proj_s": ("losses.proj",),
    "losses.chamfer_s": ("losses.chamfer",),
    "params.adam_s": ("params.adam",),
    "params.save_s": ("params.save",),
    "metrics.accumulate_s": ("metrics.accumulate",),
}

# per-layer metric -> unit, as BENCHMARK.json declares them
UNITS = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}


def _count_rays(counts, args, kwargs, result) -> None:
    dirs, seg_a = args[1], args[2]
    counts["rays"] += dirs.shape[0]
    counts["ray_capsule_tests"] += dirs.shape[0] * seg_a.shape[0]
    counts["ray_hits"] += int(np.isfinite(result[0]).sum())


def _count_file_bytes(counts, args, kwargs, result) -> None:
    counts["seqfile_bytes"] += os.stat(args[0]).st_size


def _count_pairs(counts, args, kwargs, result) -> None:
    counts["pairs"] += len(result[0])


def _count_dataset(counts, args, kwargs, result) -> None:
    dataset = args[0]
    counts["windows"] += len(dataset.samples)
    counts["windows_dropped"] += dataset._dropped


def _count_model_frames(counts, args, kwargs, result) -> None:
    # Padding repeats crop points cyclically, so distinct rows are the
    # real points the model sees.
    for frame in result:
        counts["input_rows"] += frame.points.shape[0]
        counts["real_points"] += np.unique(frame.points, axis=0).shape[0]


def _count_matmul(tracer, args, result) -> None:
    if tracer.open_names["model.forward"]:
        a = args[0]
        m, k = np.shape(a.data if isinstance(a, autodiff.Tensor) else a)
        n = result.shape[1]
        tracer.counts["fwd_flop"] += 2 * m * k * n


def _count_tape_ops(counts, args, kwargs, result) -> None:
    # Leaf nodes (parameters, constant inputs) have no parents; they are
    # not operations.
    counts["tape_ops"] += sum(1 for parents in args[0]._parents if parents)


def _count_checkpoint_bytes(counts, args, kwargs, result) -> None:
    counts["checkpoint_bytes"] += os.stat(args[1]).st_size


def install(step_span: str) -> Tracer:
    """A tracer with every layer hook in place."""
    t = Tracer(step_span)
    # synthdata: generate.py and sensors.py call these by module global
    t.span(sensors, "intersect_rays_capsules", "synthdata.intersect", _count_rays)
    t.span(generate, "simulate_lidar", "synthdata.lidar")
    t.span(generate, "render_raster", "synthdata.raster")
    t.span(generate, "simulate_2d", "synthdata.kp_2d")
    t.span(generate, "simulate_detections", "synthdata.detections")
    t.span(generate, "write_sequence", "seqfile.write", _count_file_bytes)
    t.span(dataio, "read_sequence", "seqfile.read", _count_file_bytes)
    # association, geometry and dataio as dataio.py looks them up
    t.span(dataio, "pair_2d_3d", "association.pair", _count_pairs)
    t.span(InstanceTracker, "step", "association.track")
    t.span(dataio, "build_sequences", "association.windows")
    t.span(dataio, "crop_points", "geometry.crop_points")
    t.span(dataio, "crop_image", "geometry.crop_image")
    t.span(dataio, "downsample", "geometry.downsample")
    t.span(dataio.InstanceDataset, "__init__", "dataio.build", _count_dataset)
    t.span(dataio.InstanceDataset, "model_frames", "dataio.model_frames",
           _count_model_frames)
    # model: sub-modules are called through their class's __call__
    t.span(model.FusionPoseModel, "forward", "model.forward")
    t.span(model.FusionPoseModel, "fuse_frame", "model.fuse_frame")
    t.span(model.PointEncoder, "__call__", "model.point_encoder")
    t.span(model.ImageEncoder, "__call__", "model.image_encoder")
    t.span(model.CrossAttentionFusion, "__call__", "model.fusion")
    t.span(model.TemporalEstimator, "__call__", "model.temporal")
    t.counter(autodiff, "matmul", _count_matmul)
    # training: train.py imports the losses by name and calls ad.backward
    t.span(train, "batch_gradients", "train.batch")
    t.span(train, "sequence_loss", "train.forward")
    t.span(train, "motion_loss", "losses.motion")
    t.span(train, "consistency_loss", "losses.consistency")
    t.span(train, "projection_loss", "losses.proj")
    t.span(train, "chamfer_agu_loss", "losses.chamfer")
    t.span(autodiff, "backward", "autodiff.backward", _count_tape_ops)
    t.span(params.Adam, "step", "params.adam")
    t.span(params.ParameterStore, "save", "params.save", _count_checkpoint_bytes)
    # evaluation
    t.span(MetricAccumulator, "add", "metrics.accumulate")
    t.span(evaluate, "pck", "metrics.accumulate")
    t.span(evaluate, "mpjpe", "metrics.accumulate")
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Every per-layer metric except the two tracing-overhead figures."""
    self_s = t.self_times()
    out = {name: sum(self_s.get(span, 0.0) for span in spans)
           for name, spans in _TIME_METRICS.items()}
    c, calls = t.counts, t.calls()
    forwards = calls.get("model.forward", 0)
    out.update({
        "synthdata.ray_capsule_tests": c["ray_capsule_tests"],
        "synthdata.ray_hit_ratio": _ratio(c["ray_hits"], c["rays"]),
        "seqfile.bytes": c["seqfile_bytes"],
        "association.pairs": c["pairs"],
        "geometry.downsample_calls": calls.get("geometry.downsample", 0),
        "dataio.windows": c["windows"],
        "dataio.windows_dropped": c["windows_dropped"],
        "dataio.real_point_ratio": _ratio(c["real_points"], c["input_rows"]),
        "model.frame_encodes_per_window": _ratio(calls.get("model.fuse_frame", 0),
                                                 forwards),
        "model.fwd_mflop_per_window": _ratio(c["fwd_flop"], forwards) / 1e6,
        "train.forward_s": t.total_times().get("train.forward", 0.0),
        "autodiff.ops_per_window": _ratio(c["tape_ops"],
                                          calls.get("autodiff.backward", 0)),
        "params.checkpoint_bytes": _ratio(c["checkpoint_bytes"],
                                          calls.get("params.save", 0)),
    })
    return out


def traced_measure(workload):
    """Set up and measure one pass of ``workload`` with every hook installed."""
    tracer = install(STEP_SPANS[workload.name])
    try:
        outcome = workload.measure(workload.setup())
    finally:
        tracer.uninstall()
    return outcome, tracer
