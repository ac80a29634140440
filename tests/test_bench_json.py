import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_json", ROOT / "tools" / "bench_json.py")
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _write_run(directory: Path, stem: str, workload: str, seed: int, trace: int,
               throughput: float, step_ms: float, host: str = "box",
               correct: bool = True, failed: int = 0, attempted: int = 50) -> None:
    """A fabricated result; metrics other than throughput and step p50 are fixed."""
    directory.mkdir(parents=True, exist_ok=True)
    values = {"setup_s": 0.5, "throughput_per_s": throughput, "step_ms_p50": step_ms,
              "step_ms_p90": 2 * step_ms, "peak_rss_mb": 100.0}
    result = {"workload": workload, "seed": seed, "trace": trace,
              "environment": {"host": host, "nproc": 2},
              "correct": correct, "attempted": attempted, "failed": failed,
              "end_to_end": {m["name"]: {"value": values[m["name"]], "unit": m["unit"],
                                         "samples": 1} for m in METRICS}}
    (directory / f"{stem}.json").write_text(json.dumps(result))


@pytest.fixture
def result_dirs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (tp, ms) in enumerate([(10.0, 100.0), (12.0, 90.0), (11.0, 95.0),
                                     (13.0, 80.0)], start=1):
        _write_run(parent, f"train-seed{seed}-a", "train", seed, 0, tp, ms)
    # seed 1 ran twice on the change: the later file is paired, the first is listed
    for seed, (tp, ms) in enumerate([(9.0, 120.0), (12.0, 85.0), (12.5, 95.0),
                                     (14.0, 70.0)], start=1):
        _write_run(change, f"train-seed{seed}-b", "train", seed, 0, tp, ms, "box2",
                   correct=seed != 1, failed=3 if seed == 1 else 0)
    _write_run(change, "train-seed1-c", "train", 1, 0, 11.0, 99.0, "box2")
    # ignored: a traced run, an unpaired seed and a workload run on one side only
    _write_run(change, "train-seed2-z", "train", 2, 1, 0.1, 1e6)
    _write_run(change, "train-seed9-a", "train", 9, 0, 50.0, 1.0)
    _write_run(parent, "ingest-seed1-a", "ingest", 1, 0, 30.0, 20.0)
    return parent, change


def test_pairs_by_workload_and_seed_with_direction(result_dirs):
    parent, change = result_dirs
    summary = bench_json.summarize(bench_json.load_runs(parent),
                                   bench_json.load_runs(change), METRICS)
    assert list(summary) == ["train"]
    train = summary["train"]
    assert train["seeds"] == [1, 2, 3, 4] and train["pairs"] == 4
    tp = train["metrics"]["throughput_per_s"]
    assert tp["parent"]["values"] == [10.0, 12.0, 11.0, 13.0]
    assert tp["change"]["values"] == [11.0, 12.0, 12.5, 14.0]
    assert tp["change_wins"] == 3  # seed 2 ties
    assert tp["parent"]["median"] == 11.5
    assert tp["parent"]["q1"] == 10.75 and tp["parent"]["q3"] == 12.25
    assert tp["parent"]["iqr"] == 1.5
    ms = train["metrics"]["step_ms_p50"]
    assert ms["change_wins"] == 3  # lower is better: seeds 1, 2 and 4; seed 3 ties
    assert train["metrics"]["setup_s"]["change_wins"] == 0
    assert train["parent"]["environment"] == [{"host": "box", "nproc": 2}]
    assert train["change"]["environment"] == [{"host": "box2", "nproc": 2}]
    # the superseded failing rerun is listed but not counted; the unpaired seed is listed
    change_side = train["change"]
    assert (change_side["incorrect_runs"], change_side["failed"]) == (0, 0)
    assert change_side["attempted"] == 4 * 50
    assert change_side["failure_share"] == 0.0 and not train["more_failures"]
    assert [(r["file"], r["correct"], r["failed"], r["paired"])
            for r in change_side["runs"]] == [
        ("train-seed1-b.json", False, 3, False), ("train-seed1-c.json", True, 0, True),
        ("train-seed2-b.json", True, 0, True), ("train-seed3-b.json", True, 0, True),
        ("train-seed4-b.json", True, 0, True), ("train-seed9-a.json", True, 0, False)]


def test_cli_writes_the_bench_file(result_dirs, tmp_path, capsys):
    parent, change = result_dirs
    out = tmp_path / "BENCH_0.json"
    assert bench_json.main([str(parent), str(change), "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert list(written["workloads"]["train"]["metrics"]) == [m["name"] for m in METRICS]
    assert written["workloads"]["train"]["metrics"]["throughput_per_s"]["change_wins"] == 3
    assert "wins 3/4" in capsys.readouterr().out


@pytest.mark.parametrize("correct,failed", [(False, 0), (True, 2)])
def test_cli_exits_1_when_a_paired_run_failed(result_dirs, tmp_path, capsys,
                                              correct, failed):
    parent, change = result_dirs
    _write_run(parent, "train-seed3-b", "train", 3, 0, 11.0, 95.0,
               correct=correct, failed=failed)
    out = tmp_path / "BENCH_0.json"
    assert bench_json.main([str(parent), str(change), "--out", str(out)]) == 1
    written = json.loads(out.read_text())["workloads"]["train"]["parent"]
    assert (written["incorrect_runs"], written["failed"]) == (int(not correct), failed)
    assert "train parent" in capsys.readouterr().err


@pytest.mark.parametrize("parent_failed,change_failed,change_attempted,more", [
    (2, 2, 50, False),  # equal counts over equal attempts
    (2, 4, 250, False),  # an equal share over twice the attempts
    (2, 3, 50, True),
    (0, 1, 100, True),
    (3, 2, 50, False),
])
def test_more_failures_flags_a_larger_failure_share(result_dirs, tmp_path, capsys,
                                                    parent_failed, change_failed,
                                                    change_attempted, more):
    parent, change = result_dirs
    _write_run(parent, "train-seed3-b", "train", 3, 0, 11.0, 95.0, failed=parent_failed)
    _write_run(change, "train-seed3-c", "train", 3, 0, 12.5, 95.0, "box2",
               failed=change_failed, attempted=change_attempted)
    out = tmp_path / "BENCH_0.json"
    assert bench_json.main([str(parent), str(change), "--out", str(out)]) == 1
    train = json.loads(out.read_text())["workloads"]["train"]
    assert train["parent"]["failure_share"] == parent_failed / 200
    assert train["change"]["failure_share"] == change_failed / (150 + change_attempted)
    assert train["more_failures"] is more
    err = capsys.readouterr().err
    assert ("larger share of operations than the parent: train" in err) is more


def test_cli_exits_2_without_a_common_workload(tmp_path, capsys):
    _write_run(tmp_path / "p", "train-seed1", "train", 1, 0, 1.0, 1.0)
    _write_run(tmp_path / "c", "ingest-seed1", "ingest", 1, 0, 1.0, 1.0)
    assert bench_json.main([str(tmp_path / "p"), str(tmp_path / "c"),
                            "--out", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()


def _write_digests(perfbench_dir: Path, stem: str, digests: dict) -> None:
    (perfbench_dir / "digests").mkdir(parents=True, exist_ok=True)
    (perfbench_dir / "digests" / f"{stem}.json").write_text(json.dumps(digests))


def test_fpseq_identical_compares_both_trees_digests_seed_by_seed(tmp_path, capsys):
    trees = {side: tmp_path / side / ".perfbench" for side in ("parent", "change")}
    for root in trees.values():
        for seed in range(1, 6):
            _write_run(root / "results", f"ingest-seed{seed}", "ingest", seed, 0, 30.0, 20.0)
    same = {"train_000.fpseq": "aa", "val_000.fpseq": "bb"}
    other = {**same, "val_000.fpseq": "cc"}
    # the digest file names start with each tree's own source fingerprint
    _write_digests(trees["parent"], "0123-seed1", same)
    _write_digests(trees["change"], "4567-seed1", same)
    _write_digests(trees["parent"], "0123-seed2", same)
    _write_digests(trees["change"], "4567-seed2", other)
    _write_digests(trees["parent"], "0123-seed3", same)  # none on the change side
    _write_digests(trees["parent"], "0123-seed4", same)
    _write_digests(trees["change"], "4567-seed4", same)
    _write_digests(trees["change"], "89ab-seed4", other)  # a second change source
    # seed 5: no digests on either side
    out = tmp_path / "BENCH_0.json"
    assert bench_json.main([str(trees["parent"] / "results"),
                            str(trees["change"] / "results"), "--out", str(out)]) == 0
    ingest = json.loads(out.read_text())["workloads"]["ingest"]
    assert ingest["seeds"] == [1, 2, 3, 4, 5]
    assert ingest["fpseq_identical"] == [True, False, None, False, None]
    assert "1/5 seeds, 2 differ, 2 without digests" in capsys.readouterr().out
    # without digest folders every seed reads null
    summary = bench_json.summarize(bench_json.load_runs(trees["parent"] / "results"),
                                   bench_json.load_runs(trees["change"] / "results"),
                                   METRICS)
    assert summary["ingest"]["fpseq_identical"] == [None] * 5
