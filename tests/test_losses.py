import numpy as np
import pytest

from fusionpose import autodiff as ad
from fusionpose.errors import ConfigError, InvalidInputError
from fusionpose.geometry import Pose2D, interpolation_matrix
from fusionpose.losses import (LossWeights, chamfer, chamfer_agu_loss,
                               consistency_loss, motion_loss, projection_loss,
                               total_loss)
from fusionpose.synthdata.generate import default_calibration

K = 21


def all_visible(joints):
    return Pose2D(joints, np.ones(len(joints), dtype=bool))


# -- motion ---------------------------------------------------------------------


def test_motion_loss_zero_when_prediction_exact():
    rng = np.random.default_rng(0)
    prev = all_visible(rng.normal(size=(K, 2)))
    cur = all_visible(rng.normal(size=(K, 2)))
    pred = ad.Tensor(cur.joints - prev.joints)
    assert float(motion_loss(pred, cur, prev).data) == pytest.approx(0.0, abs=1e-15)


def test_motion_loss_single_joint_orthogonal_error():
    prev = all_visible(np.zeros((K, 2)))
    cur_joints = np.zeros((K, 2))
    cur_joints[4] = (3.0, 4.0)
    cur = all_visible(cur_joints)
    pred = ad.Tensor(np.zeros((K, 2)))  # exact for all but joint 4
    assert float(motion_loss(pred, cur, prev).data) == pytest.approx(5.0 / K)


def test_motion_loss_matches_direct_recomputation():
    rng = np.random.default_rng(1)
    prev = Pose2D(rng.normal(size=(K, 2)), rng.random(K) > 0.2)
    cur = Pose2D(rng.normal(size=(K, 2)), rng.random(K) > 0.2)
    pred = rng.normal(size=(K, 2))
    got = float(motion_loss(ad.Tensor(pred), cur, prev).data)

    # independent scalar re-computation
    total, count = 0.0, 0
    for j in range(K):
        if cur.visibility[j] and prev.visibility[j]:
            target = cur.joints[j] - prev.joints[j]
            total += float(np.hypot(*(pred[j] - target)))
            count += 1
    assert got == pytest.approx(total / count, rel=1e-12)


def test_motion_loss_all_masked_contributes_zero():
    prev = Pose2D(np.zeros((K, 2)), np.zeros(K, dtype=bool))
    cur = all_visible(np.zeros((K, 2)))
    assert float(motion_loss(ad.Tensor(np.ones((K, 2))), cur, prev).data) == 0.0


# -- consistency ------------------------------------------------------------------


def test_consistency_zero_for_identical_frames():
    f = np.random.default_rng(2).normal(size=(K, 8))
    loss = consistency_loss([ad.Tensor(f), ad.Tensor(f.copy()), ad.Tensor(f.copy())])
    assert float(loss.data) == pytest.approx(0.0, abs=1e-15)


def test_consistency_two_frames_one_joint_apart():
    base = np.zeros((K, 6))
    other = base.copy()
    other[3, 0] = 2.0  # norm-2 difference on one joint
    loss = consistency_loss([ad.Tensor(base), ad.Tensor(other)])
    assert float(loss.data) == pytest.approx(1.0 / K)


def test_consistency_matches_direct_recomputation():
    rng = np.random.default_rng(3)
    frames = [rng.normal(size=(K, 5)) for _ in range(4)]
    got = float(consistency_loss([ad.Tensor(f) for f in frames]).data)
    mean = np.mean(frames, axis=0)
    expected = np.mean([
        np.mean([np.linalg.norm(f[j] - mean[j]) for j in range(K)])
        for f in frames
    ])
    assert got == pytest.approx(expected, rel=1e-12)


def test_consistency_of_stacked_windows_sums_the_windows():
    rng = np.random.default_rng(42)
    windows = [[rng.normal(size=(K, 5)) for _ in range(4)] for _ in range(3)]
    stacked = [ad.Tensor(np.concatenate([w[t] for w in windows])) for t in range(4)]
    want = sum(float(consistency_loss([ad.Tensor(f) for f in w]).data) for w in windows)
    assert float(consistency_loss(stacked).data) == pytest.approx(want, rel=1e-12)


def test_consistency_requires_two_frames():
    with pytest.raises(ConfigError):
        consistency_loss([ad.Tensor(np.zeros((K, 4)))])


def test_consistency_mean_is_constant_target():
    rng = np.random.default_rng(4)
    frames = [ad.Tensor(rng.normal(size=(K, 4))) for _ in range(3)]
    with ad.Tape() as tape:
        loss = consistency_loss(frames)
    g = ad.backward(tape, loss, dict(enumerate(frames)))
    # if gradients flowed through the mean they would cancel to zero sums
    assert sum(float(np.abs(x).sum()) for x in g.values()) > 0.0


# -- projection -------------------------------------------------------------------


def make_pose_in_view(rng):
    pose = np.stack([rng.uniform(5, 8, K), rng.uniform(-1, 1, K),
                     rng.uniform(0.2, 1.8, K)], axis=1)
    return pose


def test_projection_loss_zero_at_exact_labels():
    calib = default_calibration(96, 96)
    rng = np.random.default_rng(5)
    pose = make_pose_in_view(rng)
    from fusionpose.geometry import project
    pixels, valid = project(pose, calib)
    assert valid.all()
    loss = projection_loss(ad.Tensor(pose), all_visible(pixels), calib)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_projection_loss_three_pixel_offset():
    calib = default_calibration(96, 96)
    rng = np.random.default_rng(6)
    pose = make_pose_in_view(rng)
    from fusionpose.geometry import project
    pixels, _ = project(pose, calib)
    pixels[7, 0] += 3.0
    loss = projection_loss(ad.Tensor(pose), all_visible(pixels), calib)
    assert float(loss.data) == pytest.approx(3.0 / K)


def test_projection_loss_of_a_frame_with_one_usable_joint_is_its_distance():
    calib = default_calibration(96, 96)
    rng = np.random.default_rng(6)
    pose = make_pose_in_view(rng)
    from fusionpose.geometry import project
    pixels, _ = project(pose, calib)
    pixels[7] += (3.0, 4.0)
    visible = np.zeros(K, dtype=bool)
    visible[7] = True
    loss = projection_loss(ad.Tensor(pose), Pose2D(pixels, visible), calib)
    assert float(loss.data) == pytest.approx(5.0)


def test_projection_invariant_along_camera_ray():
    calib = default_calibration(96, 96)
    rng = np.random.default_rng(7)
    pose = make_pose_in_view(rng)
    from fusionpose.geometry import project
    pixels, _ = project(pose, calib)
    labels = all_visible(pixels + rng.normal(0, 2, size=(K, 2)))
    base = float(projection_loss(ad.Tensor(pose), labels, calib).data)

    # push joint 4 along its ray through the camera center
    center = calib.camera_center_world()
    moved = pose.copy()
    moved[4] = center + 1.3 * (pose[4] - center)
    shifted = float(projection_loss(ad.Tensor(moved), labels, calib).data)
    assert abs(base - shifted) < 1e-9


def test_projection_masks_behind_camera_joints():
    calib = default_calibration(96, 96)
    rng = np.random.default_rng(8)
    pose = make_pose_in_view(rng)
    pose[0] = (-5.0, 0.0, 1.0)  # behind the camera
    from fusionpose.geometry import project
    pixels, _ = project(pose, calib)
    loss = projection_loss(ad.Tensor(pose), all_visible(pixels), calib)
    assert np.isfinite(float(loss.data))


# -- chamfer ----------------------------------------------------------------------


def brute_chamfer(a, b):
    fwd = np.mean([min(np.sum((x - y) ** 2) for y in b) for x in a])
    bwd = np.mean([min(np.sum((y - x) ** 2) for x in a) for y in b])
    return fwd + bwd


def test_chamfer_self_is_zero():
    pts = np.random.default_rng(9).normal(size=(30, 3))
    assert float(chamfer(pts, pts.copy()).data) == 0.0


def test_chamfer_single_points_by_hand():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    assert float(chamfer(a, b).data) == pytest.approx(2.0)


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(25):
        a = rng.normal(size=(rng.integers(2, 50), 3))
        b = rng.normal(size=(rng.integers(2, 50), 3))
        assert float(chamfer(a, b).data) == pytest.approx(brute_chamfer(a, b), abs=1e-12)


def test_chamfer_symmetric():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(20, 3))
    b = rng.normal(size=(35, 3))
    assert float(chamfer(a, b).data) == float(chamfer(b, a).data)


def test_chamfer_rejects_empty_sets():
    with pytest.raises(InvalidInputError):
        chamfer(np.zeros((0, 3)), np.ones((3, 3)))


def test_chamfer_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    cloud = rng.normal(size=(40, 3))
    pts0 = rng.normal(size=(10, 3)) * 1.1  # jitter away from ties
    pts = ad.Tensor(pts0)
    with ad.Tape() as tape:
        loss = chamfer(cloud, pts)
    g = ad.backward(tape, loss, {"pts": pts})["pts"]
    h = 1e-6
    flat = pts0.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = float(chamfer(cloud, pts0).data)
        flat[i] = keep - h
        fm = float(chamfer(cloud, pts0).data)
        flat[i] = keep
        fd = (fp - fm) / (2 * h)
        assert abs(fd - g.reshape(-1)[i]) < 1e-4 * max(1.0, abs(fd))


def reference_chamfer_grads(av, bv):
    """Chamfer's gradients in each set, as two mirror-image expressions."""
    d2 = ((av[:, None, :] - bv[None, :, :]) ** 2).sum(axis=2)
    a_to_b, b_to_a = d2.argmin(axis=1), d2.argmin(axis=0)
    m, n = len(av), len(bv)
    grad_a = (2.0 / m) * (av - bv[a_to_b])
    np.add.at(grad_a, b_to_a, (2.0 / n) * (av[b_to_a] - bv))
    grad_b = (2.0 / n) * (bv - av[b_to_a])
    np.add.at(grad_b, a_to_b, (2.0 / m) * (bv[a_to_b] - av))
    return grad_a, grad_b


@pytest.mark.parametrize("seed", range(20))
def test_chamfer_gradients_are_bit_equal_to_the_two_mirror_vjps(seed):
    rng = np.random.default_rng(seed)
    # a few centres, each the nearest neighbour of many cloud rows and of
    # several skeleton rows, one of them repeated so nearest rows tie
    centres = rng.normal(size=(4, 3))
    av = centres[rng.integers(4, size=60)] + rng.normal(size=(60, 3)) * 0.05
    bv = np.concatenate([centres + rng.normal(size=(4, 3)) * 0.01, centres[:1]])
    assert len(set(((av[:, None] - bv) ** 2).sum(-1).argmin(axis=1))) < len(av)
    a, b = ad.Tensor(av.copy()), ad.Tensor(bv.copy())
    with ad.Tape() as tape:
        loss = chamfer(a, b)
    got = ad.backward(tape, loss, {"a": a, "b": b})
    want_a, want_b = reference_chamfer_grads(av, bv)
    np.testing.assert_array_equal(got["a"], want_a)
    np.testing.assert_array_equal(got["b"], want_b)


def test_chamfer_agu_s0_reduces_to_plain_chamfer():
    rng = np.random.default_rng(13)
    pose = rng.normal(size=(21, 3))
    cloud = rng.normal(size=(50, 3))
    agu = chamfer_agu_loss(ad.Tensor(pose), cloud, 0)
    plain = chamfer(cloud, pose)
    assert float(agu.data) == pytest.approx(float(plain.data), rel=1e-15)


def test_chamfer_agu_zero_when_cloud_on_skeleton():
    rng = np.random.default_rng(14)
    pose = rng.normal(size=(21, 3))
    cloud = interpolation_matrix(3) @ pose  # exactly the augmented points
    assert float(chamfer_agu_loss(ad.Tensor(pose), cloud, 3).data) == \
        pytest.approx(0.0, abs=1e-24)


def test_chamfer_agu_gradient():
    rng = np.random.default_rng(15)
    pose0 = rng.normal(size=(21, 3))
    cloud = rng.normal(size=(30, 3)) * 1.2
    pose = ad.Tensor(pose0)
    with ad.Tape() as tape:
        loss = chamfer_agu_loss(pose, cloud, 2)
    g = ad.backward(tape, loss, {"pose": pose})["pose"]
    h = 1e-6
    flat = pose0.reshape(-1)
    for i in range(0, flat.size, 7):  # subsample coordinates
        keep = flat[i]
        flat[i] = keep + h
        fp = float(chamfer_agu_loss(ad.Tensor(pose0), cloud, 2).data)
        flat[i] = keep - h
        fm = float(chamfer_agu_loss(ad.Tensor(pose0), cloud, 2).data)
        flat[i] = keep
        fd = (fp - fm) / (2 * h)
        assert abs(fd - g.reshape(-1)[i]) < 1e-4 * max(1.0, abs(fd))


# -- total --------------------------------------------------------------------


def components_fixture(rng):
    return {
        "motion": ad.Tensor(np.asarray(rng.uniform(0, 2))),
        "consistency": ad.Tensor(np.asarray(rng.uniform(0, 2))),
        "proj": ad.Tensor(np.asarray(rng.uniform(0, 2))),
        "cd_agu": ad.Tensor(np.asarray(rng.uniform(0, 2))),
    }


def test_total_loss_projection_only():
    comps = components_fixture(np.random.default_rng(16))
    w = LossWeights(motion=0.0, consistency=0.0, proj=1.0, cd_agu=0.0)
    assert float(total_loss(comps, w).data) == float(comps["proj"].data)


def test_total_loss_linear_in_weights():
    comps = components_fixture(np.random.default_rng(17))
    w1 = LossWeights(1.0, 0.1, 1.0, 0.5)
    w2 = LossWeights(2.0, 0.2, 2.0, 1.0)
    assert float(total_loss(comps, w2).data) == \
        pytest.approx(2.0 * float(total_loss(comps, w1).data), rel=1e-15)


def test_total_loss_all_zero_weights_is_zero():
    comps = components_fixture(np.random.default_rng(18))
    assert float(total_loss(comps, LossWeights(0, 0, 0, 0)).data) == 0.0


def test_loss_weights_reject_negative():
    with pytest.raises(InvalidInputError):
        LossWeights(motion=-0.1)


def test_total_loss_golden_regression():
    """Default weights on a fixed seed reproduce the frozen value recorded
    at the first correct run (guards against silent numeric drift)."""
    from fusionpose.params import ParameterStore
    from fusionpose.model import FusionPoseModel
    import tests.test_acceptance as ta

    cfg = ta.tiny_model_config()
    rng = np.random.default_rng(2024)
    store = ParameterStore(seed=99)
    model = FusionPoseModel(cfg, store)
    frames, kps = ta.synthetic_window(cfg, rng)
    total = ta.composite_loss(model, frames, kps, LossWeights())
    assert float(total.data) == pytest.approx(80.59079701348364, rel=1e-12)


def test_consistency_gradient_with_bound_target():
    rng = np.random.default_rng(30)
    frames0 = [rng.normal(size=(K, 5)) for _ in range(3)]
    target = np.mean(frames0, axis=0)
    tensors = [ad.Tensor(f) for f in frames0]
    with ad.Tape() as tape:
        loss = consistency_loss(tensors, target)
    grads = ad.backward(tape, loss, dict(enumerate(tensors)))
    got = [grads[i] for i in range(len(tensors))]
    h = 1e-6
    for fi, (f, g) in enumerate(zip(frames0, got)):
        flat = f.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(0, flat.size, 11):
            keep = flat[i]
            flat[i] = keep + h
            fp = float(consistency_loss([ad.Tensor(x) for x in frames0], target).data)
            flat[i] = keep - h
            fm = float(consistency_loss([ad.Tensor(x) for x in frames0], target).data)
            flat[i] = keep
            fd = (fp - fm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-4 * max(1.0, abs(fd)), (fi, i)


def _stack(poses):
    return Pose2D(np.concatenate([p.joints for p in poses]),
                  np.concatenate([p.visibility for p in poses]))


@pytest.mark.parametrize("term", ["motion", "projection"])
def test_stacked_frames_sum_per_frame_means_and_an_unusable_frame_adds_zero(term):
    rng = np.random.default_rng(41)
    calib = default_calibration(96, 96)
    preds = [make_pose_in_view(rng) if term == "projection" else rng.normal(size=(K, 2))
             for _ in range(3)]
    labels = [Pose2D(rng.normal(48, 10, size=(K, 2)), rng.random(K) > 0.3)
              for _ in range(3)]
    labels[1] = Pose2D(labels[1].joints, np.zeros(K, dtype=bool))
    prev = all_visible(rng.normal(48, 10, size=(3 * K, 2)))

    def loss(frames):
        pred = ad.Tensor(np.concatenate([preds[f] for f in frames]))
        kp = _stack([labels[f] for f in frames])
        with ad.Tape() as tape:
            if term == "projection":
                value = projection_loss(pred, kp, calib)
            else:
                rows = np.concatenate([np.arange(f * K, (f + 1) * K) for f in frames])
                value = motion_loss(pred, kp, Pose2D(prev.joints[rows],
                                                     prev.visibility[rows]))
        grad = ad.backward(tape, value, {"pred": pred}).get("pred")
        return float(value.data), grad

    per_frame = [loss([f])[0] for f in range(3)]
    assert per_frame[1] == 0.0 and min(per_frame[0], per_frame[2]) > 0.0
    stacked, grad = loss([0, 1, 2])
    assert stacked == pytest.approx(sum(per_frame), rel=1e-12)
    assert not grad[K:2 * K].any()
    assert stacked == loss([0, 2])[0]  # exactly: the unusable frame adds 0


def test_all_losses_nonnegative():
    rng = np.random.default_rng(19)
    calib = default_calibration(96, 96)
    pose = make_pose_in_view(rng)
    labels = all_visible(rng.normal(48, 10, size=(K, 2)))
    prev = all_visible(rng.normal(size=(K, 2)))
    cur = all_visible(rng.normal(size=(K, 2)))
    assert float(motion_loss(ad.Tensor(rng.normal(size=(K, 2))), cur, prev).data) >= 0
    assert float(projection_loss(ad.Tensor(pose), labels, calib).data) >= 0
    assert float(chamfer(rng.normal(size=(9, 3)), rng.normal(size=(7, 3))).data) >= 0
    frames = [ad.Tensor(rng.normal(size=(K, 4))) for _ in range(3)]
    assert float(consistency_loss(frames).data) >= 0
