import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionpose.association import Detection2D, Detection3D
from fusionpose.errors import FusionPoseError, InvalidInputError
from fusionpose.geometry import BONES, ROOT_INDEX, Pose3D, project
from fusionpose.synthdata import (BodyModel, DetectionJitter, GaitAmplitudes,
                                  LidarConfig, MotionScript, occlude_points,
                                  pose_at, read_sequence, rest_pose,
                                  simulate_2d, simulate_detections,
                                  simulate_lidar, write_sequence)
from fusionpose.synthdata.body import capsules_for
from fusionpose.synthdata.generate import (SceneConfig, default_calibration,
                                           default_scene, generate_dataset,
                                           simulate_frames)
from fusionpose.synthdata import sensors
from fusionpose.synthdata.seqfile import (FrameRecord, PersonFrame, SequenceData,
                                          write_manifest)
from fusionpose.synthdata.sensors import _cast_rays, intersect_rays_capsules


def straight_script(**kwargs):
    defaults = dict(waypoints=((0.0, 6.0, -2.0), (20.0, 6.0, 2.0)),
                    gait_frequency_hz=1.5)
    defaults.update(kwargs)
    return MotionScript(**defaults)


def bone_lengths(joints):
    return np.array([np.linalg.norm(joints[c] - joints[p]) for p, c in BONES])


# -- bodies / motion -------------------------------------------------------------


def test_zero_amplitudes_give_rigid_translation():
    script = straight_script(amplitudes=GaitAmplitudes(0, 0, 0, 0))
    body = BodyModel()
    a = pose_at(script, body, 0.0).joints
    b = pose_at(script, body, 5.0).joints
    delta = b - a
    assert np.abs(delta - delta[0]).max() < 1e-12


def test_bone_lengths_constant_over_time():
    script = straight_script()
    body = BodyModel(scale=1.1)
    ref = bone_lengths(pose_at(script, body, 0.0).joints)
    for t in np.linspace(0.0, 19.9, 23):
        got = bone_lengths(pose_at(script, body, float(t)).joints)
        assert np.abs(got - ref).max() < 1e-9


def test_gait_is_periodic_up_to_root_translation():
    f = 1.5
    script = straight_script(gait_frequency_hz=f)
    body = BodyModel()
    t = 3.0
    a = pose_at(script, body, t).joints
    b = pose_at(script, body, t + 1.0 / f).joints
    root_shift = b[ROOT_INDEX] - a[ROOT_INDEX]
    assert np.abs((b - root_shift) - a).max() < 1e-9


def test_pose_at_rejects_out_of_range_time():
    script = straight_script()
    with pytest.raises(InvalidInputError):
        pose_at(script, BodyModel(), 25.0)


def test_body_scale_bounds():
    with pytest.raises(InvalidInputError):
        BodyModel(scale=1.5)


# -- lidar ------------------------------------------------------------------------


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_vertical_capsule_hit_range():
    radius = 0.15
    a = np.array([[5.0, 0.0, 0.0]])
    b = np.array([[5.0, 0.0, 3.0]])
    dirs = np.array([[1.0, 0.0, 0.0]])
    t, idx = intersect_rays_capsules(np.array([0.0, 0.0, 1.2]), dirs, a[None], b[None],
                                     np.array([[radius]]))
    assert idx[0] == 0
    assert abs(t[0] - (5.0 - radius)) < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_miss_returns_infinite_range():
    a = np.array([[5.0, 10.0, 0.0]])
    b = np.array([[5.0, 10.0, 3.0]])
    t, idx = intersect_rays_capsules(np.zeros(3), np.array([[1.0, 0, 0]]), a[None], b[None],
                                     np.array([[0.2]]))
    assert np.isinf(t[0]) and idx[0] == -1


def all_pairs_reference(origin, dirs, seg_a, seg_b, radii):
    """Every ray against every capsule: the loop the culled version must match bit for bit."""
    n_rays = dirs.shape[0]
    best_t = np.full(n_rays, np.inf)
    best_idx = np.full(n_rays, -1, dtype=np.int64)
    for ci in range(seg_a.shape[0]):
        a, b, r = seg_a[ci], seg_b[ci], radii[ci]
        axis = b - a
        length = np.linalg.norm(axis)
        t_cand = np.full(n_rays, np.inf)
        if length > 1e-12:
            u = axis / length
            m = origin - a
            d_par = dirs @ u
            m_par = m @ u
            d_perp = dirs - d_par[:, None] * u
            m_perp = m - m_par * u
            qa = (d_perp * d_perp).sum(axis=1)
            qb = 2.0 * d_perp @ m_perp
            qc = m_perp @ m_perp - r * r
            disc = qb * qb - 4.0 * qa * qc
            ok = (disc >= 0.0) & (qa > 1e-14)
            sq = np.sqrt(np.where(ok, disc, 0.0))
            t_cyl = np.where(ok, (-qb - sq) / (2.0 * np.where(ok, qa, 1.0)), np.inf)
            s = m_par + np.where(ok, t_cyl, 0.0) * d_par
            valid = ok & (t_cyl > 1e-9) & (s >= 0.0) & (s <= length)
            t_cand = np.where(valid, t_cyl, np.inf)
        for cap in (a, b):
            m = origin - cap
            qb = 2.0 * dirs @ m
            qc = m @ m - r * r
            disc = qb * qb - 4.0 * qc
            ok = disc >= 0.0
            sq = np.sqrt(np.where(ok, disc, 0.0))
            t_sph = np.where(ok, (-qb - sq) / 2.0, np.inf)
            t_sph = np.where(t_sph > 1e-9, t_sph, np.inf)
            t_cand = np.minimum(t_cand, t_sph)
        closer = t_cand < best_t
        best_t = np.where(closer, t_cand, best_t)
        best_idx = np.where(closer, ci, best_idx)
    return best_t, best_idx


def all_pairs_grouped(origin, dirs, seg_a, seg_b, radii):
    """``all_pairs_reference`` over capsules grouped (g, k), flattened group-major."""
    return all_pairs_reference(origin, dirs, seg_a.reshape(-1, 3), seg_b.reshape(-1, 3),
                               radii.reshape(-1))


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _tangent_dir(rng, origin, centre, dist):
    """A unit ray direction from ``origin`` whose line passes ``dist`` from ``centre``."""
    w = centre - origin
    w_hat = _unit(w)
    v = _unit(np.cross(w_hat, rng.normal(size=3)))
    sin = dist / np.linalg.norm(w)
    return _unit(np.sqrt(1.0 - sin * sin) * w_hat + sin * v)


def _grazing_dirs(rng, origin, a, b, r):
    """Rays at r * (1 +- 1e-12) from the capsule axis (cylinder band and caps)."""
    u = _unit(b - a)
    out = []
    for scale in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
        rho = r * scale
        o_perp = (origin - a) - ((origin - a) @ u) * u
        dist = np.linalg.norm(o_perp)
        if dist > rho:
            # tangent to the infinite cylinder at a point inside the band
            e_hat, f_hat = o_perp / dist, np.cross(u, o_perp / dist)
            cos = rho / dist
            tangent = rho * (cos * e_hat + np.sqrt(1.0 - cos * cos) * f_hat)
            s = rng.uniform(0.1, 0.9) * np.linalg.norm(b - a)
            out.append(_unit(a + s * u + tangent - origin))
        for cap in (a, b):
            if np.linalg.norm(cap - origin) > rho:
                out.append(_tangent_dir(rng, origin, cap, rho))
    return out


def random_capsule_scene(rng):
    """Capsules in front of the origin and rays aimed at, past and around them.

    Covers grazing rays, zero and 1e-13 lengths, a duplicated capsule
    (a tie), sometimes an origin inside a capsule, and small capsules
    behind the origin that only one aimed ray points at.
    """
    origin = rng.normal(0.0, 0.2, 3)
    n = int(rng.integers(2, 8))
    seg_a = rng.uniform([2.0, -2.0, -1.0], [6.0, 2.0, 1.0], (n, 3))
    seg_b = seg_a + rng.normal(0.0, 0.4, (n, 3))
    radii = rng.uniform(0.03, 0.3, n)
    seg_b[0] = seg_a[0]
    seg_b[1] = seg_a[1] + 1e-13 * _unit(rng.normal(size=3))
    seg_a, seg_b, radii = (np.concatenate([x, x[-1:]]) for x in (seg_a, seg_b, radii))
    dirs = [_unit(rng.normal(size=(int(rng.integers(0, 40)), 3)))]
    centres = (seg_a + seg_b) / 2.0
    dirs.append(_unit(centres + rng.normal(0.0, 0.2, centres.shape) - origin))
    for a, b, r in zip(seg_a[2:], seg_b[2:], radii[2:]):
        dirs.append(np.array(_grazing_dirs(rng, origin, a, b, r)))
    if rng.random() < 0.3:
        origin = seg_a[2] + 0.5 * radii[2] * _unit(rng.normal(size=3))
    for k in range(int(rng.integers(1, 3))):
        # behind the origin, where no other ray points
        target = origin + [-8.0, 6.0 * k - 3.0, 0.0]
        seg_a = np.vstack([seg_a, target])
        seg_b = np.vstack([seg_b, target + [0.0, 0.0, 0.05]])
        radii = np.append(radii, 0.02)
        dirs.append(_unit(target + rng.normal(0.0, 0.01, 3) - origin)[None])
    dirs = np.concatenate([np.reshape(d, (-1, 3)) for d in dirs])
    return origin, dirs[rng.permutation(len(dirs))], seg_a, seg_b, radii


def grouped_capsule_scene(rng):
    """``random_capsule_scene``'s capsules as g groups of k, plus four more groups.

    The scene's capsules fill groups of k, topped up with copies of its
    first capsules. Then, in random order after them: a copy of group 0
    moved a few centimetres (overlapping it), an exact copy of group 0
    (a tie with every hit on it), group 0 mirrored through the origin
    (behind it, with aimed rays) and group 0 lifted 50 m, above every
    ray. Returns the scene, the groups (g, k, 3) / (g, k), and the
    indices of the duplicate and out-of-reach groups.
    """
    origin, dirs, seg_a, seg_b, radii = random_capsule_scene(rng)
    k = int(rng.integers(1, len(radii) + 1))
    fill = -len(radii) % k
    seg_a, seg_b, radii = (np.concatenate([x, x[:fill]]).reshape(-1, k, *x.shape[1:])
                           for x in (seg_a, seg_b, radii))
    first = len(radii)
    shift = rng.normal(0.0, 0.05, 3)
    lift = [0.0, 0.0, 50.0]
    extra = [(seg_a[0] + shift, seg_b[0] + shift, radii[0]),
             (seg_a[0], seg_b[0], radii[0]),
             (2.0 * origin - seg_a[0], 2.0 * origin - seg_b[0], radii[0]),
             (seg_a[0] + lift, seg_b[0] + lift, radii[0])]
    order = rng.permutation(len(extra))
    seg_a, seg_b, radii = (np.concatenate([x, np.stack([extra[i][part] for i in order])])
                           for part, x in enumerate((seg_a, seg_b, radii)))
    behind = _unit(origin - (seg_a[0] + seg_b[0]) / 2.0 + rng.normal(0.0, 0.05, (k, 3)))
    dirs = np.concatenate([dirs, behind])
    dirs = dirs[dirs[:, 2] < 0.9]  # no ray comes near the lifted group
    duplicate, unreached = (first + int(np.flatnonzero(order == i)[0]) for i in (1, 3))
    return origin, dirs, seg_a, seg_b, radii, duplicate, unreached


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_culled_intersection_is_bit_identical_to_all_pairs():
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(300):
        origin, dirs, seg_a, seg_b, radii = random_capsule_scene(rng)
        t, idx = intersect_rays_capsules(origin, dirs, seg_a[None], seg_b[None], radii[None])
        t_ref, idx_ref = all_pairs_reference(origin, dirs, seg_a, seg_b, radii)
        assert t.tobytes() == t_ref.tobytes()
        np.testing.assert_array_equal(idx, idx_ref)
        hits += np.isfinite(t).sum()
    assert hits > 1000
    grouped_hits = 0
    for _ in range(150):
        origin, dirs, seg_a, seg_b, radii, duplicate, unreached = grouped_capsule_scene(rng)
        t, idx = intersect_rays_capsules(origin, dirs, seg_a, seg_b, radii)
        t_ref, idx_ref = all_pairs_grouped(origin, dirs, seg_a, seg_b, radii)
        assert t.tobytes() == t_ref.tobytes()
        np.testing.assert_array_equal(idx, idx_ref)
        group = np.where(idx >= 0, idx // radii.shape[1], -1)
        assert not np.isin(group, [duplicate, unreached]).any()  # group 0 comes first
        grouped_hits += np.isfinite(t).sum()
    assert grouped_hits > 1000


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_candidate_ray_matches_all_pairs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.uniform(-3.0, 3.0, (1, 3)) + [8.0, 0.0, 0.0]
        b = a + rng.normal(0.0, 0.5, (1, 3))
        radii = rng.uniform(0.05, 0.3, 1)
        hit = _unit((a + b) / 2.0 + rng.normal(0.0, 0.05, 3))
        dirs = np.vstack([hit, -hit])  # only the first can reach the capsule
        got = intersect_rays_capsules(np.zeros(3), dirs, a[None], b[None], radii[None])
        ref = all_pairs_reference(np.zeros(3), dirs, a, b, radii)
        assert got[0].tobytes() == ref[0].tobytes()
        np.testing.assert_array_equal(got[1], ref[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cast_rays_is_bit_identical_to_all_pairs():
    rng = np.random.default_rng(7)
    body = BodyModel()
    base = rest_pose() + [0.0, 0.0, 0.9]
    lidar = LidarConfig(azimuth_step_deg=2.0, beams=16).ray_directions()
    for trial in range(12):
        posed = [(Pose3D(base + [rng.uniform(3.0, 9.0), rng.uniform(-3.0, 3.0), 0.0]), body)
                 for _ in range(int(rng.integers(1, 4)))]
        posed.append(posed[0])  # identical bodies: ties go to the first person
        posed.append((Pose3D(base + [-6.0, 0.0, 0.0]), body))  # behind the origin
        origin = np.array([0.0, 0.0, 1.2])
        if trial % 4 == 3:
            origin = posed[0][0].joints[0] + [0.0, 0.0, 0.01]  # inside a capsule
        caps = [capsules_for(pose, b) for pose, b in posed]
        grazing = [d for a, b, r in zip(*caps[0]) for d in _grazing_dirs(rng, origin, a, b, r)]
        dirs = np.concatenate([lidar, grazing, _unit(rng.normal(size=(50, 3)))])
        t, idx, owner = _cast_rays(origin, dirs, posed)
        seg_a, seg_b, radii = (np.concatenate(part) for part in zip(*caps))
        t_ref, idx_ref = all_pairs_reference(origin, dirs, seg_a, seg_b, radii)
        capsule_owner = np.repeat(np.arange(len(caps)), [len(r) for _, _, r in caps])
        assert t.tobytes() == t_ref.tobytes()
        np.testing.assert_array_equal(idx, idx_ref)
        np.testing.assert_array_equal(owner, np.where(idx_ref >= 0, capsule_owner[idx_ref], -1))
        assert np.isfinite(t).any()
        assert not (owner == len(posed) - 2).any()  # every tie went to person 0


def nearer_vs_farther_counts(x_near, x_far, seed):
    body = BodyModel()
    cfg = LidarConfig(range_sigma_m=0.0, drop_prob=0.0)
    counts = []
    for x in (x_near, x_far):
        script = MotionScript(waypoints=((0.0, x, 0.0), (1.0, x, 0.01)))
        pose = pose_at(script, body, 0.0)
        pts, labels = simulate_lidar([(pose, body)], cfg, seed=seed)
        counts.append(len(pts))
    return counts


def test_nearer_person_yields_more_points():
    wins = 0
    for seed in range(10):
        near, far = nearer_vs_farther_counts(5.0, 9.0, seed)
        wins += near > far
    assert wins >= 9


def test_range_split_point_density_decreases():
    near, far = nearer_vs_farther_counts(12.0, 17.0, seed=0)
    assert near > far > 0


def test_labeled_points_lie_near_their_skeleton():
    body = BodyModel()
    script = straight_script()
    pose = pose_at(script, body, 2.0)
    sigma = 0.01
    cfg = LidarConfig(range_sigma_m=sigma, drop_prob=0.0)
    pts, labels = simulate_lidar([(pose, body)], cfg, seed=1)
    assert len(pts) > 30
    a, b, r = capsules_for(pose, body)
    max_r = r.max()
    for p in pts:
        # distance to the nearest bone segment
        ab = b - a
        tt = np.clip(((p - a) * ab).sum(1) / (ab * ab).sum(1), 0.0, 1.0)
        d = np.linalg.norm(a + tt[:, None] * ab - p, axis=1).min()
        assert d <= max_r + 3.0 * sigma


def test_lidar_is_deterministic_given_seed():
    body = BodyModel()
    pose = pose_at(straight_script(), body, 1.0)
    cfg = LidarConfig()
    p1, l1 = simulate_lidar([(pose, body)], cfg, seed=9)
    p2, l2 = simulate_lidar([(pose, body)], cfg, seed=9)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(l1, l2)


def test_ray_budget_under_10k():
    assert LidarConfig().ray_directions().shape[0] < 10_000


# -- 2d keypoints -----------------------------------------------------------------


def test_simulate_2d_exact_when_noise_free():
    calib = default_calibration(96, 96)
    pose = pose_at(straight_script(), BodyModel(), 1.0)
    kp = simulate_2d(pose, calib, noise_sigma=0.0, drop_prob=0.0, seed=0)
    expected, valid = project(pose.joints, calib)
    assert kp.visibility.all() and valid.all()
    np.testing.assert_allclose(kp.joints, expected)


def test_simulate_2d_drop_one_hides_all():
    calib = default_calibration(96, 96)
    pose = pose_at(straight_script(), BodyModel(), 1.0)
    kp = simulate_2d(pose, calib, noise_sigma=0.0, drop_prob=1.0, seed=0)
    assert not kp.visibility.any()


def test_simulate_2d_noise_std_within_5_percent():
    calib = default_calibration(96, 96)
    pose = pose_at(straight_script(), BodyModel(), 1.0)
    exact, _ = project(pose.joints, calib)
    sigma = 2.0
    draws = []
    for seed in range(500):  # 500 seeds x 21 joints x 2 coords = 21000 samples
        kp = simulate_2d(pose, calib, sigma, 0.0, seed=seed)
        draws.append(kp.joints - exact)
    std = np.std(np.concatenate(draws).ravel())
    assert abs(std - sigma) / sigma < 0.05


def test_simulate_2d_behind_camera_never_visible():
    calib = default_calibration(96, 96)
    joints = rest_pose() + np.array([-8.0, 0.0, 0.9])  # behind the camera
    from fusionpose.geometry import Pose3D
    kp = simulate_2d(Pose3D(joints), calib, 0.0, 0.0, seed=0)
    assert not kp.visibility.any()


# -- detections -------------------------------------------------------------------


def _person_setup(seed=0):
    calib = default_calibration(96, 96)
    body = BodyModel()
    pose = pose_at(straight_script(), body, 2.0)
    cfg = LidarConfig(range_sigma_m=0.0, drop_prob=0.0)
    pts, labels = simulate_lidar([(pose, body)], cfg, seed=seed)
    return calib, pose, pts


def test_zero_jitter_boxes_contain_points_and_joints():
    calib, pose, pts = _person_setup()
    still = DetectionJitter(0.0, 0.0)
    det2d, det3d = simulate_detections(pose, pts, calib, still, seed=0)
    lo = np.asarray(det3d.center) - np.asarray(det3d.size) / 2
    hi = np.asarray(det3d.center) + np.asarray(det3d.size) / 2
    assert (pts >= lo - 1e-9).all() and (pts <= hi + 1e-9).all()
    pixels, valid = project(pose.joints, calib)
    u0, v0, u1, v1 = det2d.box
    assert (pixels[valid, 0] >= u0).all() and (pixels[valid, 0] <= u1).all()
    assert (pixels[valid, 1] >= v0).all() and (pixels[valid, 1] <= v1).all()


def test_inflation_monotonicity():
    calib, pose, pts = _person_setup()
    still = DetectionJitter(0.0, 0.0)
    d2_small, d3_small = simulate_detections(pose, pts, calib, still, 0,
                                             inflate3d=0.10, inflate2d=0.10)
    d2_big, d3_big = simulate_detections(pose, pts, calib, still, 0,
                                         inflate3d=0.20, inflate2d=0.20)
    assert (np.asarray(d3_big.size) >= np.asarray(d3_small.size)).all()
    assert d2_big.box[0] <= d2_small.box[0] and d2_big.box[2] >= d2_small.box[2]
    assert d2_big.box[1] <= d2_small.box[1] and d2_big.box[3] >= d2_small.box[3]


def test_person_with_no_points_gets_no_3d_detection():
    calib, pose, _ = _person_setup()
    det2d, det3d = simulate_detections(pose, np.zeros((0, 3)), calib,
                                       DetectionJitter(), seed=0)
    assert det3d is None and det2d is not None


def test_every_3d_box_holds_one_of_its_persons_points():
    """The center jitter (3 cm) can move a box of the 5 cm floor off a
    person with 1-3 returns; such a box is not emitted, and the 2D box
    keeps the bits it has with the full cloud (same generator draws)."""
    calib, pose, pts = _person_setup()
    rng = np.random.default_rng(0)
    emitted = withheld = 0
    for seed in range(300):
        sparse = pts[rng.choice(len(pts), 1 + seed % 3, replace=False)]
        if seed % 2:  # a tight cluster, so the box is at the size floor
            sparse = sparse[:1] + rng.normal(0.0, 0.005, size=sparse.shape)
        det2d, det3d = simulate_detections(pose, sparse, calib, DetectionJitter(), seed)
        assert det2d == simulate_detections(pose, pts, calib, DetectionJitter(), seed)[0]
        if det3d is None:
            withheld += 1
            continue
        emitted += 1
        half = np.asarray(det3d.size) / 2.0
        assert (np.abs(sparse - np.asarray(det3d.center)) <= half).all(axis=1).any()
    assert emitted and withheld


# -- occlusion ----------------------------------------------------------------------


def test_occlude_zero_fraction_is_identity():
    pts = np.random.default_rng(0).normal(size=(100, 3))
    np.testing.assert_array_equal(occlude_points(pts, 0.0, seed=1), pts)


def test_occlude_60_percent_of_256_leaves_103():
    pts = np.random.default_rng(1).normal(size=(256, 3))
    assert occlude_points(pts, 0.6, seed=2).shape[0] == 103


def test_occlude_same_seed_same_subset():
    pts = np.random.default_rng(2).normal(size=(64, 3))
    a = occlude_points(pts, 0.4, seed=7)
    b = occlude_points(pts, 0.4, seed=7)
    np.testing.assert_array_equal(a, b)


def test_occlude_rejects_full_fraction():
    with pytest.raises(InvalidInputError):
        occlude_points(np.zeros((4, 3)), 1.0, seed=0)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0.0, 1.0, exclude_max=True))
@example(n=1, seed=0, fraction=float(np.nextafter(1.0, 0.0)))
@example(n=4096, seed=0, fraction=float(np.nextafter(1.0, 0.0)))
@example(n=4999, seed=0, fraction=1.0 - 1e-12)
@example(n=3, seed=0, fraction=0.9999999)
def test_occlusion_keeps_a_point_of_every_non_empty_cloud(n, seed, fraction):
    """floor(fraction * n) <= n - 1 for any fraction in [0, 1), so the
    density and occlusion studies never see an empty crop."""
    pts = np.arange(3.0 * n).reshape(n, 3)
    kept = occlude_points(pts, fraction, seed)
    assert len(kept) == n - int(np.floor(fraction * n)) >= 1
    assert np.isin(kept[:, 0], pts[:, 0]).all() and (np.diff(kept[:, 0]) > 0).all()


# -- dataset ---------------------------------------------------------------------


def small_scene(seed=11):
    return default_scene(n_persons=2, frames=12, seed=seed, raster_h=48, raster_w=48)


def test_generate_dataset_is_byte_identical(tmp_path):
    cfg = small_scene()
    generate_dataset(cfg, tmp_path / "a")
    generate_dataset(cfg, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["manifest.txt", "train_000.fpseq", "val_000.fpseq"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generated_files_match_testing_every_ray_against_every_capsule(tmp_path,
                                                                       monkeypatch):
    cfg = small_scene()
    generate_dataset(cfg, tmp_path / "culled")
    monkeypatch.setattr(sensors, "intersect_rays_capsules", all_pairs_grouped)
    generate_dataset(cfg, tmp_path / "all_pairs")
    names = sorted(p.name for p in (tmp_path / "culled").iterdir())
    for name in names:
        assert (tmp_path / "culled" / name).read_bytes() == \
            (tmp_path / "all_pairs" / name).read_bytes()
    assert read_sequence(tmp_path / "culled" / "train_000.fpseq").frames[0].points.size


def test_sequence_round_trip_is_exact(tmp_path):
    cfg = small_scene(seed=12)
    frames = simulate_frames(cfg)
    data = SequenceData(cfg.calibration, frames, has_gt=True)
    path = tmp_path / "seq.fpseq"
    write_sequence(path, data)
    back = read_sequence(path)
    assert len(back.frames) == len(frames)
    assert back.has_gt
    calib, got_calib = cfg.calibration, back.calibration
    assert (got_calib.fx, got_calib.fy, got_calib.cx, got_calib.cy) == \
        (calib.fx, calib.fy, calib.cx, calib.cy)
    np.testing.assert_array_equal(got_calib.rotation, calib.rotation)
    np.testing.assert_array_equal(got_calib.translation, calib.translation)
    for orig, got in zip(frames, back.frames):
        np.testing.assert_array_equal(orig.points, got.points)
        np.testing.assert_array_equal(orig.raster, got.raster)
        for po, pg in zip(orig.persons, got.persons):
            np.testing.assert_array_equal(po.keypoints_2d, pg.keypoints_2d)
            np.testing.assert_array_equal(po.visibility, pg.visibility)
            np.testing.assert_array_equal(po._gt3d, pg._gt3d)
            assert (po.det2d is None) == (pg.det2d is None)
            if po.det2d:
                assert po.det2d.box == pg.det2d.box
            if po.det3d:
                assert po.det3d.center == pg.det3d.center
                assert po.det3d.size == pg.det3d.size


def two_frame_sequence(seed: int) -> SequenceData:
    """Two random 2x2-raster frames of one person, every field present."""
    rng = np.random.default_rng(seed)
    frames = [FrameRecord(rng.normal(size=(3, 3)),
                          rng.random((2, 2, 3)).astype(np.float32),
                          [PersonFrame(rng.random((21, 2)), np.ones(21, dtype=bool),
                                       Detection2D((1.0, 1.0, 5.0, 7.0)),
                                       Detection3D((6.0, 0.0, 1.0), (1.0, 1.0, 2.0), 0.1),
                                       rng.random((21, 3)))])
              for _ in range(2)]
    return SequenceData(default_calibration(2, 2), frames, has_gt=True)


def test_every_truncated_sequence_file_raises(tmp_path):
    path = tmp_path / "seq.fpseq"
    write_sequence(path, two_frame_sequence(14))
    blob = path.read_bytes()
    assert len(read_sequence(path).frames) == 2
    cut = tmp_path / "cut.fpseq"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(FusionPoseError):
            read_sequence(cut)


def test_failed_sequence_or_manifest_write_keeps_previous_file(tmp_path, request):
    old = tmp_path / "train_000.fpseq"
    write_sequence(old, two_frame_sequence(1))
    write_manifest(tmp_path, {"train": [old.name]})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    request.getfixturevalue("full_disk")
    for target in (old, tmp_path / "train_001.fpseq"):
        with pytest.raises(OSError):
            write_sequence(target, two_frame_sequence(2))
    with pytest.raises(OSError):
        write_manifest(tmp_path, {"train": ["train_000.fpseq", "train_001.fpseq"],
                                  "val": ["val_000.fpseq"]})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_header_frame_count_matches_frames_on_disk(tmp_path):
    cfg = small_scene(seed=13)
    summary = generate_dataset(cfg, tmp_path)
    train = read_sequence(tmp_path / "train_000.fpseq")
    val = read_sequence(tmp_path / "val_000.fpseq")
    assert len(train.frames) == summary["frames"]["train"]
    assert len(val.frames) == summary["frames"]["val"]
    assert len(train.frames) + len(val.frames) == cfg.frame_count


def test_scene_config_requires_enough_frames():
    # generate_dataset gives each split at least 4 frames
    for frames in (3, 7):
        with pytest.raises(InvalidInputError):
            SceneConfig(persons=small_scene().persons, frame_count=frames)
    assert SceneConfig(persons=small_scene().persons, frame_count=8).frame_count == 8
