"""Summarize paired perfbench runs of a parent and a change as one BENCH file.

    python3 tools/bench_json.py PARENT_RESULTS CHANGE_RESULTS --out BENCH_<n>.json

Each results directory is a ``.perfbench/results/`` folder of the tree it
was measured on. Only untraced runs (``trace`` 0) are read; a run of the
parent and one of the change pair up when they share workload and seed.
If a seed ran more than once, the file whose name sorts last (the latest
start time) is paired and the others are listed as superseded. For each
workload and each end-to-end metric declared in the repo's
``BENCHMARK.json`` the output holds each side's median and quartiles, the
number of pairs the change wins (ties count for neither side), the seeds
and each side's environment blocks. Each side also lists every run file
read, with its ``correct``, ``attempted`` and ``failed`` fields, the
totals over the paired runs and their ``failure_share`` (failed /
attempted); ``more_failures`` is set when the change's share is larger
than the parent's, which refuses a change whatever its speed. The exit
status is 1 if a paired run failed its checks or any operation, or if
``more_failures`` is set, so such a file is never mistaken for a clean
comparison. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(results_dir: Path) -> dict[tuple[str, int], list[dict]]:
    """The untraced runs of one directory by (workload, seed), oldest first.

    Each run gets a ``file`` key with its file name; names sort by start
    time, so the last run of a list is the one that is paired.
    """
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(results_dir.glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == 0:
            result["file"] = path.name
            runs.setdefault((result["workload"], result["seed"]), []).append(result)
    return runs


def spread(values: list[float]) -> dict:
    """Median and quartiles of one side's values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def _environments(runs: list[dict]) -> list[dict]:
    distinct = []
    for run in runs:
        if run["environment"] not in distinct:
            distinct.append(run["environment"])
    return distinct


def _side(runs: dict[tuple[str, int], list[dict]], workload: str,
          seeds: list[int]) -> dict:
    """Every run file of one side for a workload, and totals over the paired ones."""
    paired = [runs[(workload, s)][-1] for s in seeds]
    files = [{"file": run["file"], "seed": seed, "correct": run["correct"],
              "attempted": run["attempted"], "failed": run["failed"],
              "paired": seed in seeds and run is reruns[-1]}
             for (w, seed), reruns in sorted(runs.items()) if w == workload
             for run in reruns]
    attempted = sum(run["attempted"] for run in paired)
    failed = sum(run["failed"] for run in paired)
    return {"incorrect_runs": sum(not run["correct"] for run in paired),
            "attempted": attempted, "failed": failed,
            "failure_share": failed / attempted if attempted else 0.0,
            "environment": _environments(paired), "runs": files}


def summarize(parent: dict[tuple[str, int], list[dict]],
              change: dict[tuple[str, int], list[dict]], metrics: list[dict]) -> dict:
    """One entry per workload measured on both sides."""
    out = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        pairs = [(parent[(workload, s)][-1], change[(workload, s)][-1]) for s in seeds]
        entry = {"seeds": seeds, "pairs": len(pairs), "metrics": {}}
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            before = [p["end_to_end"][name]["value"] for p, _ in pairs]
            after = [c["end_to_end"][name]["value"] for _, c in pairs]
            entry["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent": spread(before), "change": spread(after),
                "change_wins": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
            }
        entry["parent"] = _side(parent, workload, seeds)
        entry["change"] = _side(change, workload, seeds)
        entry["more_failures"] = (entry["change"]["failure_share"]
                                  > entry["parent"]["failure_share"])
        out[workload] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="the parent's .perfbench/results")
    p.add_argument("change", type=Path, help="the change's .perfbench/results")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = summarize(load_runs(args.parent), load_runs(args.change), metrics)
    if not summary:
        print("bench_json: no workload was run on both sides", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps({"workloads": summary}, indent=1) + "\n")
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            print(f"{workload:<12} {name:<17} parent {m['parent']['median']:10.4f} "
                  f"change {m['change']['median']:10.4f} {m['unit']:<4} "
                  f"wins {m['change_wins']}/{entry['pairs']}")
        print(f"{workload:<12} {'failed':<17} parent {entry['parent']['failed']}/"
              f"{entry['parent']['attempted']} change {entry['change']['failed']}/"
              f"{entry['change']['attempted']}")
    unclean = [f"{workload} {side}" for workload, entry in summary.items()
               for side in ("parent", "change")
               if entry[side]["incorrect_runs"] or entry[side]["failed"]]
    if unclean:
        print(f"bench_json: paired runs failed checks or operations: {', '.join(unclean)}",
              file=sys.stderr)
    worse = [workload for workload, entry in summary.items() if entry["more_failures"]]
    if worse:
        print(f"bench_json: the change fails a larger share of operations than the "
              f"parent: {', '.join(worse)}", file=sys.stderr)
    return 1 if unclean or worse else 0


if __name__ == "__main__":
    sys.exit(main())
