"""Tests of the benchmark itself, on a small scene so they run in seconds.

    python3 -m pytest perfbench/tests
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import workloads  # noqa: E402

SMALL_SCENE = dict(scene_persons=2, scene_frames=16)
SEED = 5


@pytest.fixture
def state_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "STATE_DIR", tmp_path)
    return tmp_path


def small_config(state_dir):
    cfg = workloads.reference_config(SEED, **SMALL_SCENE)
    workloads.prepare_dataset(cfg)
    cfg.dataset_dir = str(workloads.cached_dataset_dir(cfg))
    return cfg


def traced_metrics(workload) -> dict:
    outcome, tracer = layers.traced_measure(workload)
    assert all(outcome.checks.values()), outcome.checks
    return layers.layer_metrics(tracer)


def test_exact_counts_repeat_across_runs(state_dir):
    cfg = small_config(state_dir)
    runs = []
    for _ in range(2):
        metrics = {}
        metrics.update(traced_metrics(workloads.Ingest(cfg)))
        ablate = traced_metrics(workloads.AblateEval(cfg))
        train = traced_metrics(workloads.Train(cfg, epochs=1))
        metrics["model.frame_encodes_per_window"] = ablate["model.frame_encodes_per_window"]
        metrics["dataio.real_point_ratio"] = ablate["dataio.real_point_ratio"]
        metrics["model.fwd_mflop_per_window"] = train["model.fwd_mflop_per_window"]
        metrics["autodiff.ops_per_window"] = train["autodiff.ops_per_window"]
        runs.append(metrics)
    first, second = runs
    for name in ("synthdata.ray_capsule_tests", "model.frame_encodes_per_window",
                 "model.fwd_mflop_per_window", "autodiff.ops_per_window",
                 "dataio.real_point_ratio"):
        assert first[name] > 0, name
        assert first[name] == second[name], name


def test_ingest_detects_changed_seqfile_bytes(state_dir):
    cfg = small_config(state_dir)
    record = next((state_dir / "digests").glob("*.json"))
    digests = json.loads(record.read_text())
    digests["train_000.fpseq"] = "0" * 64
    record.write_text(json.dumps(digests))
    workload = workloads.Ingest(cfg)
    outcome = workload.measure(workload.setup())
    assert outcome.checks["fpseq_byte_identical"] is False


def test_layer_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(layers.PREDICTIONS) == set(layers.UNITS)
    assert set(layers.STEP_SPANS) == {w["name"] for w in spec["workloads"]}


def test_hooks_are_removed_after_tracing():
    from fusionpose import dataio, params
    before = (dataio.downsample, params.Adam.step, dataio.InstanceDataset.__init__)
    layers.install("train.batch").uninstall()
    assert (dataio.downsample, params.Adam.step,
            dataio.InstanceDataset.__init__) == before


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
