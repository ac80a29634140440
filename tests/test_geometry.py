import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionpose.errors import EmptyCropError, InvalidInputError
from fusionpose.geometry import (BONES, JOINT_NAMES, N_JOINTS, ROOT_INDEX,
                                 Calibration, Pose3D, bilinear_sample, crop_coords,
                                 crop_image, crop_points,
                                 downsample, interpolation_matrix, project,
                                 rot_z, sq_dists)
from fusionpose.synthdata import body
from fusionpose.synthdata.generate import default_calibration
from support import affine_raster, unproject


def identity_calib(fx=1.0, fy=1.0, cx=0.0, cy=0.0):
    return Calibration(fx, fy, cx, cy, np.eye(3), np.zeros(3))


# -- calibration / projection ---------------------------------------------------


def test_calibration_rejects_non_orthonormal_rotation():
    with pytest.raises(InvalidInputError):
        Calibration(1, 1, 0, 0, np.eye(3) * 1.001, np.zeros(3))


def test_calibration_rejects_reflection():
    r = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(InvalidInputError):
        Calibration(1, 1, 0, 0, r, np.zeros(3))


def test_calibration_rejects_nonpositive_focal():
    with pytest.raises(InvalidInputError):
        Calibration(-1, 1, 0, 0, np.eye(3), np.zeros(3))


@pytest.mark.parametrize("fx, fy, cx, cy, translation", [
    (np.nan, 1, 0, 0, [0, 0, 0]),
    (1, np.nan, 0, 0, [0, 0, 0]),
    (1, 1, np.inf, 0, [0, 0, 0]),
    (1, 1, 0, -np.inf, [0, 0, 0]),
    (np.inf, 1, 0, 0, [0, 0, 0]),
    (1, 1, 0, 0, [0, np.nan, 0]),
    (1, 1, 0, 0, [np.inf, 0, 0]),
], ids=["fx-nan", "fy-nan", "cx-inf", "cy-neginf", "fx-inf", "t-nan", "t-inf"])
def test_calibration_rejects_non_finite_values(fx, fy, cx, cy, translation):
    with pytest.raises(InvalidInputError, match="finite"):
        Calibration(fx, fy, cx, cy, np.eye(3), np.array(translation, dtype=float))


def test_project_pinhole_by_hand():
    pixels, valid = project(np.array([[1.0, 2.0, 2.0]]), identity_calib())
    assert valid[0]
    np.testing.assert_allclose(pixels[0], [0.5, 1.0])


def test_project_optical_axis_hits_principal_point():
    calib = identity_calib(fx=100, fy=120, cx=32, cy=24)
    for z in (0.5, 3.0, 100.0):
        pixels, valid = project(np.array([[0.0, 0.0, z]]), calib)
        assert valid[0]
        np.testing.assert_allclose(pixels[0], [32.0, 24.0])


def test_project_flags_points_behind_camera():
    _, valid = project(np.array([[0.0, 0.0, -1.0]]), identity_calib())
    assert not valid[0]


def test_projection_round_trip_under_1e9():
    calib = default_calibration(96, 96)
    rng = np.random.default_rng(0)
    pts = np.stack([rng.uniform(4, 10, 50), rng.uniform(-2, 2, 50),
                    rng.uniform(0, 2, 50)], axis=1)
    pixels, valid = project(pts, calib)
    assert valid.all()
    depths = (pts @ calib.rotation.T + calib.translation)[:, 2]
    back = unproject(pixels, depths, calib)
    assert np.abs(back - pts).max() < 1e-9


def test_project_equivariant_under_world_translation():
    calib = default_calibration(64, 64)
    delta = np.array([0.3, -1.2, 0.7])
    moved = Calibration(calib.fx, calib.fy, calib.cx, calib.cy, calib.rotation,
                        calib.translation - calib.rotation @ delta)
    pts = np.array([[6.0, 0.5, 1.0], [8.0, -1.0, 1.5]])
    base, _ = project(pts, calib)
    shifted, _ = project(pts + delta, moved)
    assert np.abs(base - shifted).max() < 1e-9


# -- squared distances ----------------------------------------------------------


def _cloud_pair(m, n, d, seed, shared):
    """Random (m, d) and (n, d) sets with ``shared`` points of ``a`` repeated in ``b``
    and a point of each set repeated within it."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, d)) * rng.choice([1e-3, 1.0, 50.0])
    b = rng.normal(size=(n, d))
    a[-1], b[-1] = a[0], b[0]
    k = min(shared, m, n)
    b[:k] = a[rng.choice(m, k, replace=False)]
    return a, b


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 200), n=st.integers(1, 200), d=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1), shared=st.integers(0, 5))
def test_sq_dists_is_bit_equal_to_the_summed_squared_differences(m, n, d, seed, shared):
    a, b = _cloud_pair(m, n, d, seed, shared)
    got = sq_dists(a, b)
    assert got.shape == (m, n)
    np.testing.assert_array_equal(got, ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    if shared:
        assert (got == 0.0).sum() >= min(shared, m, n)


# -- downsample -----------------------------------------------------------------


def reference_fps(points, n):
    """Farthest-point sampling as ``downsample`` computed it with whole-row distances."""
    seed_idx = int(np.argmin(((points - points.mean(axis=0)) ** 2).sum(axis=1)))
    chosen = np.empty(n, dtype=np.int64)
    chosen[0] = seed_idx
    dist = ((points - points[seed_idx]) ** 2).sum(axis=1)
    for i in range(1, n):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        dist = np.minimum(dist, ((points - points[nxt]) ** 2).sum(axis=1))
    return points[chosen]


@settings(max_examples=40, deadline=None)
@given(m=st.integers(129, 600), n=st.sampled_from([16, 64, 128]),
       seed=st.integers(0, 2**32 - 1), repeats=st.integers(0, 200))
def test_downsample_picks_the_points_of_whole_row_fps(m, n, seed, repeats):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, 3)) * [0.3, 0.3, 0.9]
    # repeated points tie in every distance, and ties go to the first index
    k = min(repeats, m - 1)
    pts[rng.choice(m, k, replace=False)] = pts[rng.integers(m, size=k)]
    np.testing.assert_array_equal(downsample(pts, n), reference_fps(pts, n))


def test_downsample_exact_count_is_same_set():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(256, 3))
    out = downsample(pts, 256)
    assert sorted(map(tuple, out)) == sorted(map(tuple, pts))


def test_downsample_returns_small_clouds_whole_and_in_order():
    for m in (1, 3, 255, 256):
        pts = np.random.default_rng(m).normal(size=(m, 3))
        out = downsample(pts, 256)
        np.testing.assert_array_equal(out, pts)
        assert out is not pts


def test_downsample_rejects_empty():
    with pytest.raises(InvalidInputError):
        downsample(np.zeros((0, 3)), 16)


def test_downsample_deterministic():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(500, 3))
    np.testing.assert_array_equal(downsample(pts, 64), downsample(pts.copy(), 64))


def min_pairwise_dist(pts):
    d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    return np.sqrt(d2.min())


def test_fps_spreads_better_than_uniform_sampling():
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        pts = rng.normal(size=(1000, 3))
        fps = downsample(pts, 256)
        uniform = pts[rng.choice(1000, 256, replace=False)]
        if min_pairwise_dist(fps) >= min_pairwise_dist(uniform):
            wins += 1
    assert wins >= 95


# -- skeleton / interpolation ----------------------------------------------------


def test_skeleton_constants_form_one_21_joint_tree():
    assert N_JOINTS == len(JOINT_NAMES) == 21
    assert len(set(JOINT_NAMES)) == N_JOINTS
    assert JOINT_NAMES[ROOT_INDEX] == "mid_hip"
    assert len(BONES) == 20
    # Parents first, from the root, spanning every joint: a tree that
    # pose_at's forward kinematics can walk in order.
    seen = {ROOT_INDEX}
    for parent, child in BONES:
        assert parent in seen and child not in seen
        seen.add(child)
    assert seen == set(range(N_JOINTS))
    # The capsule body has a rest offset per joint and a radius per bone.
    assert set(body._REST_LOCAL) == set(JOINT_NAMES)
    assert set(body._BONE_RADII) == {(JOINT_NAMES[p], JOINT_NAMES[c]) for p, c in BONES}
    assert body.BONE_RADII.shape == (len(BONES),)
    assert (body.BONE_RADII > 0).all()


def test_interpolate_s0_returns_joints():
    rng = np.random.default_rng(3)
    pose = Pose3D(rng.normal(size=(21, 3)))
    np.testing.assert_allclose(interpolation_matrix(0) @ pose.joints, pose.joints)


def test_interpolate_contains_bone_midpoint():
    parent, child = BONES[0]
    joints = np.zeros((N_JOINTS, 3))
    joints[child] = [0.0, 0.0, 1.0]
    out = interpolation_matrix(1) @ Pose3D(joints).joints
    assert out.shape == (N_JOINTS + len(BONES), 3)
    np.testing.assert_allclose(out[21], [0, 0, 0.5])


@pytest.mark.parametrize("s", [0, 1, 3, 7])
def test_interpolate_count_invariant(s):
    pose = Pose3D(np.random.default_rng(4).normal(size=(21, 3)))
    assert (interpolation_matrix(s) @ pose.joints).shape == (21 + 20 * s, 3)


def test_interpolate_s3_gives_81_points():
    pose = Pose3D(np.zeros((21, 3)))
    assert (interpolation_matrix(3) @ pose.joints).shape[0] == 81


# -- crops -----------------------------------------------------------------------


def test_crop_points_box_containing_all_is_identity():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(50, 3))
    out = crop_points(pts, np.zeros(3), np.array([4.0, 4.0, 4.0]))
    np.testing.assert_array_equal(out, pts)


def test_crop_points_disjoint_box_raises():
    pts = np.ones((10, 3)) * 5.0
    with pytest.raises(EmptyCropError):
        crop_points(pts, np.zeros(3), np.array([1.0, 1.0, 1.0]))


def test_crop_points_unit_box_keeps_inner_points():
    pts = []
    for axis in range(3):
        for sign in (-1, 1):
            for mag in (0.4, 0.6):
                p = np.zeros(3)
                p[axis] = sign * mag
                pts.append(p)
    pts = np.array(pts)
    out = crop_points(pts, np.zeros(3), np.ones(3))
    assert len(out) == 6
    assert np.abs(out).max() == pytest.approx(0.4)


def test_z_rotation_turns_x_toward_y():
    np.testing.assert_array_equal(rot_z(0.0), np.eye(3))
    np.testing.assert_allclose(rot_z(np.pi / 2) @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                               atol=1e-16)
    r = rot_z(0.7)
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-15)


def test_crop_points_respects_yaw():
    # point at 45 degrees, box rotated to meet it
    pts = np.array([[0.6, 0.6, 0.0]])
    with pytest.raises(EmptyCropError):
        crop_points(pts, np.zeros(3), np.array([1.0, 1.0, 1.0]), yaw=0.0)
    out = crop_points(pts, np.zeros(3), np.array([2.0, 0.2, 1.0]), yaw=np.pi / 4)
    assert len(out) == 1


def test_crop_image_resamples_to_fixed_size():
    img = np.arange(36, dtype=float).reshape(6, 6, 1)
    out = crop_image(img, (1.0, 1.0, 5.0, 5.0), (8, 8))
    assert out.shape == (8, 8, 1)
    assert out.min() >= img.min() and out.max() <= img.max()


def test_crop_image_identity_box_reproduces_image():
    rng = np.random.default_rng(6)
    img = rng.random((8, 8, 3))
    out = crop_image(img, (0.0, 0.0, 8.0, 8.0), (8, 8))
    np.testing.assert_allclose(out, img)


def test_sampling_a_crop_at_crop_coords_gives_the_raster_at_the_pixel():
    rng = np.random.default_rng(31)
    raster = affine_raster(96, 96)
    interior = 0
    for hw in (8, 16, 32):
        for _ in range(30):
            u0, v0 = rng.uniform(2.0, 40.0, 2)
            box = (u0, v0, u0 + rng.uniform(4.0, 50.0), v0 + rng.uniform(4.0, 50.0))
            crop = crop_image(raster, box, (hw, hw))
            pixels = np.stack([rng.uniform(box[0] - 2.0, box[2] + 2.0, 100),
                               rng.uniform(box[1] - 2.0, box[3] + 2.0, 100)], axis=1)
            coords = crop_coords(pixels, box, hw)
            keep = ((coords >= 0.0) & (coords <= hw - 1.0)).all(axis=1)
            got = bilinear_sample(crop, coords[keep, 0], coords[keep, 1])
            want = bilinear_sample(raster, pixels[keep, 0], pixels[keep, 1])
            assert np.abs(got - want).max() < 1e-9
            interior += int(keep.sum())
    assert interior > 3000


def test_crop_image_rejects_degenerate_box():
    with pytest.raises(InvalidInputError):
        crop_image(np.zeros((4, 4, 3)), (2.0, 0.0, 2.0, 3.0), (4, 4))
