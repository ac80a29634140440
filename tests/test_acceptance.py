"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy fixtures (reference dataset, 30-epoch reference training) are
session-scoped and shared by the criteria that need them. Run with
``pytest -s tests/test_acceptance.py`` to watch the lines stream.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from fusionpose import autodiff as ad
from fusionpose.association import hungarian
from fusionpose.cli import main as cli_main
from fusionpose.config import load_config, parse_config_text
from fusionpose.dataio import InstanceDataset, load_split
from fusionpose.evaluate import evaluate_dataset
from fusionpose.geometry import Pose2D, project, unproject
from fusionpose.gradcheck import finite_diff_check
from fusionpose.gtguard import GT_GUARD
from fusionpose.losses import (LossWeights, chamfer, chamfer_agu_loss,
                               consistency_loss, motion_loss, projection_loss,
                               total_loss)
from fusionpose.model import FusionPoseModel, ModelConfig, ModelFrame, build_model
from fusionpose.params import ParameterStore
from fusionpose.synthdata.generate import default_calibration
from fusionpose.train import Trainer, batch_gradients

REFERENCE_CFG = (Path(__file__).resolve().parents[1] / "configs" / "reference.cfg")


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="session")
def reference_run(tmp_path_factory):
    """Reference dataset (3 persons, 200 frames, seed 42) plus loaders."""
    root = tmp_path_factory.mktemp("reference")
    cfg_file = root / "run.cfg"
    cfg_file.write_text(REFERENCE_CFG.read_text())
    t0 = time.monotonic()
    assert cli_main(["generate", "--config", str(cfg_file)]) == 0
    gen_seconds = time.monotonic() - t0
    cfg = load_config(cfg_file)
    mc = cfg.model_config()
    train_data = InstanceDataset(load_split(cfg.path("dataset_dir"), "train"), mc,
                                 cfg.iou_threshold, cfg.gate_distance,
                                 cfg.max_misses)
    val_data = InstanceDataset(load_split(cfg.path("dataset_dir"), "val"), mc,
                               cfg.iou_threshold, cfg.gate_distance,
                               cfg.max_misses)
    return dict(root=root, cfg_file=cfg_file, cfg=cfg, model_cfg=mc,
                train=train_data, val=val_data, gen_seconds=gen_seconds)


@pytest.fixture(scope="session")
def trained_reference(reference_run):
    """Reference model after the full 30-epoch weakly supervised training."""
    cfg = reference_run["cfg"]
    store = ParameterStore(seed=cfg.seed)
    model = FusionPoseModel(reference_run["model_cfg"], store)
    trainer = Trainer(cfg, reference_run["train"], model, store)
    t0 = time.monotonic()
    rows = trainer.train(checkpoint_dir=None, epochs=cfg.epochs)
    train_seconds = time.monotonic() - t0
    return dict(model=model, store=store, rows=rows,
                train_seconds=train_seconds)


def tiny_model_config() -> ModelConfig:
    return ModelConfig(n_points=32, width=32, image_hw=16, joint_feat_dim=8,
                       head_hidden=16)


def synthetic_window(cfg: ModelConfig, rng):
    calib = default_calibration(96, 96)
    frames, kps = [], []
    for _ in range(cfg.window):
        pts = rng.normal(0.0, 0.3, size=(cfg.n_points, 3))
        raster = rng.random((cfg.image_hw, cfg.image_hw, 3))
        frames.append(ModelFrame(pts, raster, np.array([7.0, 0.0, 1.0]),
                                 (20.0, 20.0, 76.0, 76.0), calib))
        kps.append(Pose2D(rng.normal(48.0, 8.0, size=(21, 2)),
                          np.ones(21, dtype=bool)))
    return frames, kps


def composite_loss(model, frames, kps, weights, consistency_target=None):
    outs = model.forward(frames)
    comps = {}
    acc = motion_loss(outs[1].motion, kps[1], kps[0])
    for t in range(2, len(outs)):
        acc = ad.add(acc, motion_loss(outs[t].motion, kps[t], kps[t - 1]))
    comps["motion"] = acc
    comps["consistency"] = ad.scale(
        consistency_loss([o.features for o in outs], consistency_target),
        float(len(outs)))
    acc = projection_loss(outs[0].final_pose, kps[0], frames[0].calib)
    for t in range(1, len(outs)):
        acc = ad.add(acc, projection_loss(outs[t].final_pose, kps[t],
                                          frames[t].calib))
    comps["proj"] = acc
    acc = chamfer_agu_loss(outs[0].final_pose,
                           frames[0].points + frames[0].box_center, 3)
    for t in range(1, len(outs)):
        acc = ad.add(acc, chamfer_agu_loss(
            outs[t].final_pose, frames[t].points + frames[t].box_center, 3))
    comps["cd_agu"] = acc
    return total_loss(comps, weights)


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def primitive_checks(seed: int) -> float:
    """Worst finite-difference error over every differentiable primitive."""
    rng = np.random.default_rng(seed)
    worst = 0.0

    def check(build, n_params):
        nonlocal worst
        store = ParameterStore(seed=seed)
        for i, shape in enumerate(n_params):
            store.weight(f"p{i}", shape)
        report = finite_diff_check(build, store)
        worst = max(worst, report.max_error)

    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(4, 3))
    v4 = rng.normal(size=4)
    check(lambda s: ad.sum_all(ad.matmul(s["p0"], y)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.matmul(x, s["p0"])), [(4, 3)])
    check(lambda s: ad.sum_all(ad.mul(ad.add(s["p0"], v4), x)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(ad.add(s["p0"], 1.5), x)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(ad.sub(s["p0"], x), x)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(ad.sub(1.0, s["p0"]), x)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(s["p0"], x)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.div(s["p0"], ad.add(ad.mul(s["p0"], s["p0"]), 2.0))),
          [(3, 4)])
    check(lambda s: ad.sum_all(ad.scale(ad.neg(s["p0"]), 1.7)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(ad.relu(ad.add(s["p0"], 0.3)), x)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(ad.sigmoid(s["p0"]), x)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(ad.tanh(s["p0"]), x)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(ad.softmax(s["p0"]), x)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(ad.layer_norm(s["p0"], s["p1"], s["p2"]), x)),
          [(3, 4), (4,), (4,)])
    check(lambda s: ad.sum_all(ad.mul(ad.concat([ad.narrow(s["p0"], 1, 0, 2),
                                                 ad.narrow(s["p0"], 1, 2, 2)],
                                                axis=1), x)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(ad.transpose(s["p0"]), y)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(ad.reshape(s["p0"], (4, 3)), y)), [(3, 4)])
    check(lambda s: ad.sum_all(ad.mul(ad.max_over_rows(s["p0"]), x[:1])), [(3, 4)])
    check(lambda s: ad.sum_all(ad.rownorm(ad.add(s["p0"], 0.05))), [(3, 4)])
    check(lambda s: ad.mean_all(ad.mul(ad.im2col(ad.reshape(s["p0"], (1, 4, 4)),
                                                 3, 2, 1), rng.normal(size=(4, 9)))),
          [(4, 4)])
    cloud = rng.normal(size=(12, 3))
    check(lambda s: chamfer(cloud, ad.add(s["p0"], 0.01)), [(5, 3)])
    xg = rng.normal(size=(1, 3))
    check(lambda s: ad.sum_all(ad.gru_cell(
        xg, ad.reshape(s["p9"], (1, 2)),
        s["p0"], s["p1"], s["p2"], s["p3"], s["p4"], s["p5"],
        s["p6"], s["p7"], s["p8"])),
        [(3, 2), (2, 2), (2,), (3, 2), (2, 2), (2,), (3, 2), (2, 2), (2,), (2,)])
    return worst


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    worst_prim = max(primitive_checks(seed) for seed in range(10))

    worst_full = 0.0
    coverage = 1.0
    cfg = tiny_model_config()
    weights = LossWeights()
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        store = ParameterStore(seed=seed)
        model = FusionPoseModel(cfg, store)
        frames, kps = synthetic_window(cfg, rng)
        # The consistency target is a stop-gradient quantity: bind the
        # frozen mean so finite differences see the function the tape
        # actually differentiates. The composite crosses many ReLU and
        # nearest-neighbor kinks per coordinate, so the step shrinks and
        # the smoothness filter tightens accordingly.
        outs0 = model.forward(frames)
        target0 = np.mean([o.features.data for o in outs0], axis=0)
        report = finite_diff_check(
            lambda s: composite_loss(model, frames, kps, weights, target0),
            store, step=1e-6, max_coords_per_param=2, coord_seed=seed,
            nonsmooth_tol=1e-5)
        worst_full = max(worst_full, report.max_error)
        coverage = min(coverage, report.coverage)
    elapsed = time.monotonic() - start
    announce("criterion-1 gradient-correctness",
             worst_prim < 1e-4 and worst_full < 1e-3 and coverage > 0.8
             and elapsed < 120.0,
             f"primitives max_rel={worst_prim:.2e}, end-to-end "
             f"max_rel={worst_full:.2e}, smooth-coordinate "
             f"coverage={coverage:.0%}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 2: hungarian oracle equivalence


def brute_force_total(cost: np.ndarray) -> float:
    m, n = cost.shape
    best = math.inf
    if m <= n:
        for perm in itertools.permutations(range(n), m):
            best = min(best, math.fsum(cost[i, perm[i]] for i in range(m)))
    else:
        for perm in itertools.permutations(range(m), n):
            best = min(best, math.fsum(cost[perm[j], j] for j in range(n)))
    return best


def test_criterion_2_hungarian_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    mismatches = 0
    for trial in range(1000):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        cost = rng.uniform(-5.0, 5.0, size=(m, n))
        if trial % 5 == 0:
            cost = np.round(cost)  # provoke ties
        pairs = hungarian(cost)
        total = math.fsum(float(cost[r, c]) for r, c in pairs)
        if total != brute_force_total(cost):
            mismatches += 1
    elapsed = time.monotonic() - start
    announce("criterion-2 hungarian-oracle",
             mismatches == 0 and elapsed < 30.0,
             f"1000 matrices up to 7x7, {mismatches} mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: chamfer oracle equivalence


def test_criterion_3_chamfer_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(int(rng.integers(1, 201)), 3))
        b = rng.normal(size=(int(rng.integers(1, 201)), 3))
        got = float(chamfer(a, b).data)
        fwd = np.mean([np.min(((b - x) ** 2).sum(axis=1)) for x in a])
        bwd = np.mean([np.min(((a - y) ** 2).sum(axis=1)) for y in b])
        worst = max(worst, abs(got - (fwd + bwd)))
    pts = rng.normal(size=(50, 3))
    self_zero = float(chamfer(pts, pts.copy()).data) == 0.0
    sym = float(chamfer(a, b).data) == float(chamfer(b, a).data)
    announce("criterion-3 chamfer-oracle",
             worst <= 1e-12 and self_zero and sym,
             f"max |diff|={worst:.2e}, self-zero={self_zero}, symmetric={sym}")


# ---------------------------------------------------------------------------
# criterion 4: equation-structure invariants


def test_criterion_4_equation_structure():
    cfg = ModelConfig()  # published dimensions
    model, _ = build_model(cfg, seed=0)
    rng = np.random.default_rng(1)
    frames, _ = synthetic_window(cfg, rng)

    fused, affinity = model.fuse_frame(frames[0])
    row_err = float(np.abs(affinity.data.sum(axis=1) - 1.0).max())

    pts = rng.normal(size=(cfg.n_points, 3))
    base = model.point_encoder(pts).data
    perm_err = 0.0
    for _ in range(20):
        perm = rng.permutation(cfg.n_points)
        out = model.point_encoder(pts[perm]).data
        perm_err = max(perm_err, float(np.abs(out - base[perm]).max()))

    ln = ad.layer_norm(np.full((4, 16), 3.25), np.ones(16), np.zeros(16))
    ln_err = float(np.abs(ln.data).max())

    outs = model.forward(frames)
    shapes_ok = (
        fused.shape == (256, 256)
        and affinity.shape == (256, 64)
        and all(o.motion.shape == (21, 2) and o.positions.shape == (21, 3)
                and o.features.shape == (21, 64) for o in outs)
    )
    announce("criterion-4 equation-structure",
             row_err <= 1e-9 and perm_err <= 1e-12 and ln_err == 0.0 and shapes_ok,
             f"affinity row err={row_err:.1e}, perm err={perm_err:.1e}, "
             f"LN const={ln_err:.1e}, shapes_ok={shapes_ok}")


# ---------------------------------------------------------------------------
# criterion 5: geometry round trip and depth ambiguity


def test_criterion_5_geometry():
    calib = default_calibration(96, 96)
    rng = np.random.default_rng(2)
    pts = np.stack([rng.uniform(4, 12, 200), rng.uniform(-3, 3, 200),
                    rng.uniform(0, 2, 200)], axis=1)
    pixels, valid = project(pts, calib)
    depths = (pts @ calib.rotation.T + calib.translation)[:, 2]
    back = unproject(pixels[valid], depths[valid], calib)
    rt_err = float(np.abs(back - pts[valid]).max())

    pose = np.stack([rng.uniform(5, 8, 21), rng.uniform(-1, 1, 21),
                     rng.uniform(0.2, 1.8, 21)], axis=1)
    labels = Pose2D(project(pose, calib)[0] + rng.normal(0, 2, (21, 2)),
                    np.ones(21, dtype=bool))
    base = float(projection_loss(ad.Tensor(pose), labels, calib).data)
    center = calib.camera_center_world()
    moved = pose.copy()
    moved[6] = center + 1.45 * (pose[6] - center)  # slide along the camera ray
    along = float(projection_loss(ad.Tensor(moved), labels, calib).data)
    ray_err = abs(base - along)
    announce("criterion-5 geometry",
             rt_err < 1e-9 and ray_err < 1e-9,
             f"round-trip={rt_err:.1e} m, along-ray delta={ray_err:.1e} px")


def test_reference_generation_counts_and_budget(reference_run):
    """The reference scene (3 persons, 200 frames at 30% val) must yield
    140/60 train/val frames and generate in under a minute."""
    train_frames = sum(len(seq.frames)
                       for seq in load_split(reference_run["cfg"].path("dataset_dir"),
                                             "train").values())
    val_frames = sum(len(seq.frames)
                     for seq in load_split(reference_run["cfg"].path("dataset_dir"),
                                           "val").values())
    assert (train_frames, val_frames) == (140, 60)
    assert reference_run["gen_seconds"] < 60.0


# ---------------------------------------------------------------------------
# criterion 6: weak-supervision guard


def test_criterion_6_weak_supervision_guard(reference_run):
    cfg = reference_run["cfg"]
    train_data = reference_run["train"]
    store = ParameterStore(seed=1)
    model = FusionPoseModel(reference_run["model_cfg"], store)

    before = GT_GUARD.access_count
    with GT_GUARD.forbid():
        batch = train_data.samples[: cfg.batch_size]
        batch_gradients(model, store, train_data, batch, cfg.loss_weights(),
                        cfg.bone_samples)
    train_touches = GT_GUARD.access_count - before

    before = GT_GUARD.access_count
    evaluate_dataset(model, reference_run["val"], "val", cfg.bone_samples)
    eval_touches = GT_GUARD.access_count - before
    announce("criterion-6 weak-supervision-guard",
             train_touches == 0 and eval_touches > 0,
             f"training accesses={train_touches}, eval accesses={eval_touches}")


# ---------------------------------------------------------------------------
# criterion 7: learning smoke test


def test_criterion_7_overfit(reference_run):
    cfg = reference_run["cfg"]
    store = ParameterStore(seed=cfg.seed)
    model = FusionPoseModel(reference_run["model_cfg"], store)
    trainer = Trainer(cfg, reference_run["train"], model, store)
    rows = trainer.overfit(300)
    initial = rows[0]["total"]
    best = min(r["total"] for r in rows)
    announce("criterion-7a single-batch-overfit",
             best < 0.2 * initial,
             f"initial={initial:.3f}, best={best:.3f} "
             f"({best / initial:.1%} of initial within {len(rows)} steps)")


def test_criterion_7_training_beats_baseline(reference_run, trained_reference):
    cfg = reference_run["cfg"]
    val = reference_run["val"]
    baseline, _ = evaluate_dataset(None, val, "val", cfg.bone_samples,
                                   mode="baseline")
    trained, _ = evaluate_dataset(trained_reference["model"], val, "val",
                                  cfg.bone_samples)
    margin = trained.pck - baseline.pck
    budget_ok = (trained_reference["train_seconds"]
                 + reference_run["gen_seconds"]) < 1800.0
    announce("criterion-7b training-beats-baseline",
             margin >= 10.0 and budget_ok,
             f"trained pck={trained.pck:.2f}, baseline pck={baseline.pck:.2f}, "
             f"margin={margin:.2f} (needs >= 10), "
             f"train={trained_reference['train_seconds']:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: ablation directions


def test_criterion_8_density_direction(reference_run, trained_reference):
    cfg = reference_run["cfg"]
    model = trained_reference["model"]
    val = reference_run["val"]
    pcks = {}
    for budget in cfg.point_budgets:
        report, _ = evaluate_dataset(model, val, "val", cfg.bone_samples,
                                     point_budget=budget, seed=cfg.seed)
        pcks[budget] = report.pck
    finite = all(np.isfinite(v) for v in pcks.values())
    announce("criterion-8a density-direction",
             finite and len(pcks) == 4 and pcks[256] >= pcks[32],
             "pck by budget: " + ", ".join(f"{b}->{v:.2f}"
                                           for b, v in pcks.items()))


def test_criterion_8_occlusion_completes(reference_run, trained_reference):
    cfg = reference_run["cfg"]
    model = trained_reference["model"]
    val = reference_run["val"]
    clean, _ = evaluate_dataset(model, val, "val", cfg.bone_samples)
    occluded, _ = evaluate_dataset(model, val, "val", cfg.bone_samples,
                                   occlusion=cfg.occlusion_fraction,
                                   seed=cfg.seed)
    drop = clean.pck - occluded.pck
    announce("criterion-8b occlusion-completes",
             np.isfinite(occluded.pck) and np.isfinite(occluded.mpjpe_mm),
             f"pck {clean.pck:.2f} -> {occluded.pck:.2f} at "
             f"{cfg.occlusion_fraction:.0%} occlusion (drop {drop:.2f})")


def test_criterion_8_loss_component_structure(reference_run):
    from fusionpose.ablate import run_study

    text = reference_run["cfg_file"].read_text()
    text = text.replace("optim.epochs = 30", "optim.epochs = 1")
    text = text.replace("train.window_stride = 1", "train.window_stride = 4")
    cfg = parse_config_text(text, base_dir=str(reference_run["cfg_file"].parent))
    rows = run_study(cfg, "loss_components", epochs=1)
    arms = [r.arm for r in rows]
    finite = all(np.isfinite(r.pck) and np.isfinite(r.mpjpe_mm) for r in rows)
    announce("criterion-8c loss-component-structure",
             arms == ["ipa", "ipa+cb", "ipa+cb+mb", "ipa+cb+mb+cda"] and finite,
             f"arms={arms}, all finite={finite}")


# ---------------------------------------------------------------------------
# criterion 9: pipeline determinism


def test_criterion_9_determinism(tmp_path):
    small = """
seed = 13
paths.dataset_dir = data
paths.checkpoint_dir = ckpt
paths.report_dir = reports
model.n_points = 32
model.width = 32
model.image_hw = 16
model.joint_feat_dim = 8
model.head_hidden = 16
scene.persons = 2
scene.frames = 16
scene.raster_h = 64
scene.raster_w = 64
scene.val_fraction = 0.35
optim.epochs = 2
optim.batch_size = 4
"""

    digests = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        cfg_file = root / "run.cfg"
        cfg_file.write_text(small)
        assert cli_main(["generate", "--config", str(cfg_file)]) == 0
        assert cli_main(["train", "--config", str(cfg_file)]) == 0
        assert cli_main(["eval", "--config", str(cfg_file)]) == 0
        digests.append(tuple(
            (name, (root / "reports" / name).read_bytes())
            for name in ("loss_log.csv", "metrics_val.csv",
                         "metrics_val_windows.csv")))
    identical = digests[0] == digests[1]
    announce("criterion-9 determinism", identical,
             "generate->train(2 epochs)->eval twice: reports byte-identical="
             f"{identical}")
