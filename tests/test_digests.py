import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TINY_CFG = """
seed = 3
paths.dataset_dir = /nonexistent/elsewhere
model.n_points = 32
model.width = 32
model.image_hw = 16
model.joint_feat_dim = 8
model.head_hidden = 16
scene.persons = 2
scene.frames = 14
scene.raster_h = 64
scene.raster_w = 64
scene.val_fraction = 0.35
optim.epochs = 5
optim.batch_size = 4
"""


def _listing(run_dir: Path, cfg: Path) -> str:
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "digests.py"), str(run_dir),
                           "--config", str(cfg)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_two_runs_list_identical_digests(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    t0 = time.perf_counter()
    first = _listing(tmp_path / "a", cfg)
    second = _listing(tmp_path / "b", cfg)
    assert time.perf_counter() - t0 < 30.0
    assert first == second
    names = [line.split("  ", 1)[1] for line in first.splitlines()]
    assert names[:2] == ["stdout: generate", "stdout: train --no-resume"]
    # one epoch, and every path inside the run directory
    assert "checkpoints/epoch_000.fpck" in names and "checkpoints/epoch_001.fpck" not in names
    for name in ("data/train_000.fpseq", "reports/metrics_val.csv",
                 "reports/metrics_val_baseline.csv", "reports/poses.csv",
                 "reports/ablation_density.csv", "reports/ablation_occlusion.csv"):
        assert name in names
    assert str(tmp_path) not in first


def test_a_failing_command_stops_the_run(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + "scene.frames = 2\n")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "digests.py"),
                           str(tmp_path / "run"), "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "fusionpose: error:" in proc.stderr and "generate exited 2" in proc.stderr
    assert proc.stdout == ""
