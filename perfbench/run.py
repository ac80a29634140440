"""Run one fusionpose benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last stdout line is a JSON object with
every end-to-end metric; with ``--trace 1`` the run also makes a traced
pass and prints every per-layer metric plus the tracing overhead instead.
Lines above it repeat each metric with its unit and sample count. A full
result (environment block, samples, checks; spans when traced) is
written under ``.perfbench/results/``. Exit status is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 50
WORKLOAD_NAMES = ("ingest", "train", "ablate_eval")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure whole passes until this much time is measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare", action="store_true",
                   help="only generate the cached dataset of the scene at --seed")
    args = p.parse_args(argv)
    if args.workload is None and not args.prepare:
        p.error("--workload is required")
    return args


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def run_passes(workload, seconds: float):
    """Measure at least ``workload.min_passes`` passes and until ``seconds``,
    timing set-ups before and after.

    Set-up is timed at least SETUP_REPEATS times and for SETUP_MIN_S (at
    most SETUP_MAX_REPEATS times) both before the passes and after them,
    so that its median spans the run rather than one moment of it, and a
    set-up of a millisecond still gives a steady median. Each set-up
    starts with the previous context freed and collected, so that it
    neither pays for that garbage nor adds to the peak memory. Returns
    the set-up times, the outcomes and the peak RSS in MB of set-up and
    passes, read before the trailing set-ups.
    """
    setup_s = []
    ctx = None

    def timed_setup():
        nonlocal ctx
        ctx = None
        gc.collect()
        t0 = time.perf_counter()
        ctx = workload.setup()
        setup_s.append(time.perf_counter() - t0)

    def timed_setups():
        start = len(setup_s)
        while (len(setup_s) - start < SETUP_REPEATS
               or (sum(setup_s[start:]) < SETUP_MIN_S
                   and len(setup_s) - start < SETUP_MAX_REPEATS)):
            timed_setup()

    timed_setups()
    outcomes = [workload.measure(ctx)]
    while (len(outcomes) < workload.min_passes
           or sum(o.seconds for o in outcomes) < seconds):
        timed_setup()
        outcomes.append(workload.measure(ctx))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed_setups()
    return setup_s, outcomes, rss_mb


def end_to_end(setup_s, outcomes, rss_mb) -> dict:
    """The gated end-to-end metrics: name -> (value, unit, sample count)."""
    steps = [ms for o in outcomes for ms in o.step_ms]
    items = sum(o.items for o in outcomes)
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "throughput_per_s": (items / sum(o.seconds for o in outcomes), "1/s", items),
        "step_ms_p50": (percentile(steps, 50), "ms", len(steps)),
        "step_ms_p90": (percentile(steps, 90), "ms", len(steps)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def quality(outcomes) -> dict:
    """Val-split quality, reported but not gated: it is a property of the
    seed's data (10-40% apart between seeds), not a measurement spread."""
    first = outcomes[0]
    return {"val_pck": (first.pck, "%", first.scored),
            "val_mpjpe_mm": (first.mpjpe_mm, "mm", first.scored)}


def traced_pass(workloads, layers, cfg, name: str, untraced):
    """A further pass with every layer hook installed.

    Returns its outcome, the tracer, and the per-layer metrics as
    name -> (value, unit), tracing overhead included.
    """
    # The overhead is taken against the last untraced pass, the one
    # nearest in time, because the host's speed drifts over minutes.
    # Train traces a single epoch and compares it with that pass's first
    # epoch, which ran the same steps from the same initial model.
    workload = (workloads.Train(cfg, epochs=1) if name == "train"
                else workloads.WORKLOADS[name](cfg))
    traced, tracer = layers.traced_measure(workload)
    if name == "train":
        base, with_trace = untraced.first_epoch_s, traced.first_epoch_s
    else:
        base, with_trace = untraced.seconds, traced.seconds
    values = layers.layer_metrics(tracer)
    values["trace.overhead_s"] = with_trace - base
    values["trace.overhead_pct"] = 100.0 * (with_trace - base) / base
    return traced, tracer, {k: (v, layers.UNITS[k]) for k, v in values.items()}


def span_summary(tracer) -> dict:
    self_s, total_s = tracer.self_times(), tracer.total_times()
    return {span: {"calls": n, "self_s": self_s[span], "total_s": total_s[span]}
            for span, n in sorted(tracer.calls().items())}


def tally(passes):
    """Output checks of every pass, operations attempted and failures.

    A failure is a failed check or a window dropped for an empty crop.
    """
    checks = {f"{check}[{i}]": ok for i, o in enumerate(passes)
              for check, ok in o.checks.items()}
    attempted = sum(o.items + o.windows_built for o in passes) + len(checks)
    failed = (sum(o.windows_dropped for o in passes)
              + sum(not ok for ok in checks.values()))
    return checks, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not ((ROOT / "src" / "fusionpose" / "__init__.py").is_file()
            and (ROOT / "configs" / "reference.cfg").is_file()):
        print(f"perfbench: error: no fusionpose source tree (src/fusionpose, "
              f"configs/reference.cfg) under {ROOT}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("FUSIONPOSE_SEED", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # noqa: E402  (needs the pinned BLAS and the path above)

    cfg = workloads.reference_config(args.seed)
    if args.prepare:
        try:
            workloads.prepare_dataset(cfg)
        finally:
            shutil.rmtree(workloads.scratch_root(), ignore_errors=True)
        return 0
    from fusionpose.errors import ContractError
    from fusionpose.train import TrainingAborted

    kind = workloads.WORKLOADS[args.workload]
    if kind.needs_dataset:
        dataset_cfg = workloads.reference_config(workloads.DATASET_SEED)
        cfg.dataset_dir = str(workloads.ensure_dataset(dataset_cfg, Path(__file__)))
    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()
                                     if k != "blas_config"))
    tracer = None
    try:
        setup_s, outcomes, rss_mb = run_passes(kind(cfg), args.seconds)
        e2e = end_to_end(setup_s, outcomes, rss_mb)
        passes = list(outcomes)
        if args.trace:
            import layers
            traced, tracer, per_layer = traced_pass(workloads, layers, cfg,
                                                    args.workload, outcomes[-1])
            passes.append(traced)
    except (TrainingAborted, ContractError) as exc:
        # A non-finite loss or a ground-truth read while training.
        print(f"perfbench: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workloads.scratch_root(), ignore_errors=True)
    checks, attempted, failed = tally(passes)
    correct = all(checks.values())
    measured = quality(outcomes)

    print(f"workload={args.workload} seed={args.seed} passes={len(outcomes)} "
          f"measured_s={sum(o.seconds for o in outcomes):.2f}")
    for name, (value, unit, n) in e2e.items():
        label = kind.throughput_name if name == "throughput_per_s" else name
        print(f"  {label:<22} {value:14.4f} {unit:<4} (n={n})")
    for name, (value, unit, n) in measured.items():
        print(f"  {name:<22} {value:14.4f} {unit:<4} (n={n}; {kind.quality_of})")
    for check, ok in checks.items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    print(f"  windows dropped: {sum(o.windows_dropped for o in passes)}")
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "correct": correct, "attempted": attempted,
        "failed": failed, "checks": checks, "setup_samples_s": setup_s,
        "step_samples_ms": [o.step_ms for o in outcomes],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in e2e.items()},
        "quality": {k: {"value": v, "unit": u, "samples": n, "of": kind.quality_of}
                    for k, (v, u, n) in measured.items()},
    }
    if tracer is not None:
        print(f"  traced pass: {traced.seconds:.2f} s, {len(tracer.spans)} spans; "
              f"per-layer (self time) -> predicted move")
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<32} {value:16.6f} {unit:<5} -> {layers.PREDICTIONS[name]}")
        result.update(per_layer={k: {"value": v, "unit": u}
                                 for k, (v, u) in per_layer.items()},
                      spans=span_summary(tracer), predictions=layers.PREDICTIONS)

    out_dir = workloads.STATE_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        tracer.write_spans(out_dir / f"{stem}-spans.jsonl")
    print(f"  result: {out_dir / stem}.json")

    metrics = per_layer if tracer is not None else {
        k: (v, u) for k, (v, u, _) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
