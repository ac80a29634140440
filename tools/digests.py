"""Run the pipeline end to end once and list the sha256 of everything it wrote.

    python3 tools/digests.py RUN_DIR [--config configs/reference.cfg]

The commands run from the checkout this file lives in (its ``src`` on
``PYTHONPATH``), into ``RUN_DIR``, which must not exist yet. The config
is copied there with ``optim.epochs = 1`` and all three paths inside
``RUN_DIR``. The commands are generate, train --no-resume, eval,
eval --baseline, export-poses and the density and occlusion studies.
Each eval mode gets an explicit ``--out``, so trees whose default report
names differ still write the same files. The output lists one
``<sha256>  <name>`` line per file written and per command's stdout, with
``RUN_DIR`` masked as ``<run>`` in the stdout, so the listings of two
trees (a parent and a change) compare with ``diff``. A command that
exits non-zero stops the run with its stderr and exit status 1.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ("generate", []),
    ("train", ["--no-resume"]),
    ("eval", ["--out", "reports/metrics_val.csv"]),
    ("eval", ["--baseline", "--out", "reports/metrics_val_baseline.csv"]),
    ("export-poses", ["--out", "reports/poses.csv"]),
    ("ablate", ["--study", "density"]),
    ("ablate", ["--study", "occlusion"]),
)

OVERRIDES = """
optim.epochs = 1
paths.dataset_dir = data
paths.checkpoint_dir = checkpoints
paths.report_dir = reports
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(run_dir: Path, config: Path) -> list[str]:
    """Run every command into ``run_dir``; returns the listing lines."""
    run_dir.mkdir(parents=True)
    cfg = run_dir / "run.cfg"
    cfg.write_text(config.read_text() + OVERRIDES)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    lines = []
    for command, extra in COMMANDS:
        argv = [sys.executable, "-m", "fusionpose.cli", command,
                "--config", str(cfg), *extra]
        proc = subprocess.run(argv, cwd=run_dir, env=env, capture_output=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(f"{' '.join([command, *extra])} exited {proc.returncode}")
        stdout = proc.stdout.replace(str(run_dir).encode(), b"<run>")
        lines.append(f"{sha256(stdout)}  stdout: {' '.join([command, *extra])}")
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        lines.append(f"{sha256(path.read_bytes())}  {path.relative_to(run_dir)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir", type=Path)
    parser.add_argument("--config", type=Path, default=ROOT / "configs" / "reference.cfg")
    args = parser.parse_args(argv)
    print("\n".join(run(args.run_dir.resolve(), args.config.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
