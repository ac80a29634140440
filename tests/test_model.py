import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionpose import autodiff as ad
from fusionpose.errors import ConfigError, DimensionError
from fusionpose.geometry import N_JOINTS, bilinear_sample, crop_coords, crop_image, project
from fusionpose.model import (FUSION_VARIANTS, Attention, FusionPoseModel,
                              ModelConfig, ModelFrame, build_model, lookup_weights)
from fusionpose.params import ParameterStore
from fusionpose.synthdata.generate import default_calibration
from support import affine_raster, finite_diff_check

CALIB = default_calibration(96, 96)


def tiny_config(**kwargs):
    defaults = dict(n_points=32, width=32, image_hw=16, joint_feat_dim=8,
                    head_hidden=16)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def make_frames(cfg, seed=0, center=(7.0, 0.0, 1.0), m=None):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(cfg.window):
        pts = rng.normal(0.0, 0.3, size=(m or cfg.n_points, 3))
        raster = rng.random((cfg.image_hw, cfg.image_hw, 3))
        frames.append(ModelFrame(pts, raster, np.asarray(center, dtype=float),
                                 (20.0, 20.0, 76.0, 76.0), CALIB))
    return frames


# -- declared dimensions -----------------------------------------------------------


def test_paper_default_shapes():
    cfg = ModelConfig()  # N=256, width=256, 64x64 image, K=21, C=64
    model, _ = build_model(cfg, seed=0)
    frames = make_frames(cfg)
    fused, affinity = model.fuse_frame(frames[0])
    assert fused.shape == (256, 256)
    assert affinity.shape == (256, 64)  # tokens = (64/8)^2
    outs = model.forward(frames)
    assert len(outs) == 4
    for o in outs:
        assert o.motion.shape == (21, 2)
        assert o.positions.shape == (21, 3)
        assert o.features.shape == (21, 64)
        assert o.final_pose.shape == (21, 3)


def test_affinity_rows_are_stochastic():
    cfg = tiny_config()
    model, _ = build_model(cfg, seed=1)
    fused, affinity = model.fuse_frame(make_frames(cfg)[0])
    rows = affinity.data.sum(axis=1)
    assert np.abs(rows - 1.0).max() <= 1e-9
    assert (affinity.data >= 0.0).all()


def test_identical_image_tokens_give_query_independent_weighting():
    cfg = tiny_config()
    model, _ = build_model(cfg, seed=2)
    fp = ad.Tensor(np.random.default_rng(0).normal(size=(cfg.n_points, cfg.width)))
    fi = ad.Tensor(np.tile(np.random.default_rng(1).normal(size=(1, cfg.width)), (6, 1)))
    weighted, _, _ = model.fusion.attn(fp, fi)
    v = fi.data[:1] @ model.fusion.attn.wv.data
    np.testing.assert_allclose(weighted.data, np.tile(v, (cfg.n_points, 1)),
                               atol=1e-12)


def test_attention_matches_written_out_softmax_reference():
    store = ParameterStore(seed=5)
    attn = Attention(store, "attn", 8)
    rng = np.random.default_rng(6)
    x, context = rng.normal(size=(5, 8)), rng.normal(size=(3, 8))
    for keys in (x, context):
        values, affinity, queries = attn(ad.Tensor(x), ad.Tensor(keys))
        q = x @ store["attn.q"].data
        k, v = keys @ store["attn.k"].data, keys @ store["attn.v"].data
        logits = q @ k.T / np.sqrt(8)
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(queries.data, q, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(affinity.data, weights, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(values.data, weights @ v, rtol=1e-12, atol=1e-12)


def test_attention_parameters_keep_their_paths_and_creation_order():
    _, store = build_model(tiny_config(), seed=0)
    created = [p for p in store._params if ".attn." in p or p.startswith("fuse.")]
    assert created == [
        "point.attn.q", "point.attn.k", "point.attn.v",
        "image.attn.q", "image.attn.k", "image.attn.v",
        "fuse.q", "fuse.k", "fuse.v", "fuse.proj0.w", "fuse.proj0.b",
        "fuse.proj1.w", "fuse.proj1.b", "fuse.ln1.gain", "fuse.ln1.bias",
        "fuse.ffn0.w", "fuse.ffn0.b", "fuse.ffn1.w", "fuse.ffn1.b",
        "fuse.ln2.gain", "fuse.ln2.bias"]
    order = list(store._params)
    assert order.index("point.attn.q") == order.index("point.reduce.b") + 1
    assert order.index("image.attn.q") == order.index("image.mix1.b") + 1
    assert order.index("fuse.q") == order.index("image.ln.bias") + 1


def test_point_encoder_permutation_equivariance():
    cfg = tiny_config(n_points=64)
    model, _ = build_model(cfg, seed=3)
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(64, 3))
    base = model.point_encoder(pts).data
    for trial in range(20):
        perm = rng.permutation(64)
        permuted = model.point_encoder(pts[perm]).data
        assert np.abs(permuted - base[perm]).max() <= 1e-12, trial


def test_identical_clouds_identical_features():
    cfg = tiny_config()
    model, _ = build_model(cfg, seed=5)
    pts = np.random.default_rng(6).normal(size=(cfg.n_points, 3))
    a = model.point_encoder(pts).data
    b = model.point_encoder(pts.copy()).data
    np.testing.assert_array_equal(a, b)


def test_zero_image_with_zero_bias_gives_uniform_tokens():
    cfg = tiny_config()
    model, _ = build_model(cfg, seed=7)
    raster = np.zeros((cfg.image_hw, cfg.image_hw, 3))
    encoded, tokens = model.image_encoder(raster)
    # biases initialize to zero: constant input -> constant per-position output
    assert np.abs(tokens.data - tokens.data[0]).max() < 1e-12
    assert np.abs(encoded.data - encoded.data[0]).max() < 1e-12


def test_image_encoder_rejects_indivisible_sizes():
    with pytest.raises(ConfigError):
        ModelConfig(image_hw=30)


def test_malformed_points_raise_dimension_error():
    cfg = tiny_config()
    model, _ = build_model(cfg, seed=8)
    for points in (np.zeros((5, 2)), np.zeros((0, 3))):
        frames = make_frames(cfg)
        frames[0] = dataclasses.replace(frames[0], points=points)
        with pytest.raises(DimensionError):
            model.forward(frames)


def test_wrong_window_length_raises():
    cfg = tiny_config()
    model, _ = build_model(cfg, seed=9)
    with pytest.raises(DimensionError):
        model.forward(make_frames(cfg)[:3])


# -- fusion variants ----------------------------------------------------------------


@pytest.mark.parametrize("variant", FUSION_VARIANTS)
def test_every_variant_emits_points_by_width(variant):
    cfg = tiny_config(fusion=variant)
    model, _ = build_model(cfg, seed=10)
    fused, _ = model.fuse_frame(make_frames(cfg)[0])
    assert fused.shape == (cfg.n_points, cfg.width)


@functools.cache
def variant_model(variant):
    return build_model(tiny_config(fusion=variant), seed=24)[0]


@pytest.mark.parametrize("variant", FUSION_VARIANTS)
@settings(max_examples=10, deadline=None)
@given(m=st.integers(1, tiny_config().n_points), seed=st.integers(0, 2**16))
@example(m=1, seed=0)
def test_any_point_count_gives_finite_outputs_of_documented_shapes(variant, m, seed):
    model = variant_model(variant)
    cfg = model.cfg
    frames = make_frames(cfg, seed=seed, m=m)
    fused, affinity = model.fuse_frame(frames[0])
    assert fused.shape == (m, cfg.width)
    assert np.isfinite(fused.data).all()
    if variant == "ipa":
        assert affinity.shape == (m, (cfg.image_hw // 8) ** 2)
        assert np.isfinite(affinity.data).all()
    for o in model.forward(frames):
        for out, shape in ((o.motion, (N_JOINTS, 2)),
                           (o.positions, (N_JOINTS, 3)),
                           (o.features, (N_JOINTS, cfg.joint_feat_dim)),
                           (o.final_pose, (N_JOINTS, 3))):
            assert out.shape == shape
            assert np.isfinite(out.data).all()


def test_global_fusion_invariant_to_token_permutation():
    cfg = tiny_config(fusion="global")
    model, _ = build_model(cfg, seed=11)
    rng = np.random.default_rng(12)
    fi = ad.Tensor(rng.normal(size=(9, cfg.width)))
    fp = ad.Tensor(rng.normal(size=(cfg.n_points, cfg.width)))

    def fuse(fi_arr):
        m = fi_arr.shape[0]
        g_img = ad.matmul(np.full((1, m), 1.0 / m), ad.Tensor(fi_arr))
        g_pt = ad.max_over_rows(fp)
        g = ad.concat([g_img, g_pt], axis=1)
        broadcast = ad.matmul(np.ones((cfg.n_points, 1)), g)
        return model.global_reduce(broadcast).data

    base = fuse(fi.data)
    shuffled = fuse(fi.data[rng.permutation(9)])
    np.testing.assert_allclose(shuffled, base, atol=1e-12)


def test_lookup_weights_rows_sum_to_at_most_one():
    rng = np.random.default_rng(13)
    pts = np.stack([rng.uniform(5, 8, 40), rng.uniform(-3, 3, 40),
                    rng.uniform(0, 2, 40)], axis=1)
    w = lookup_weights(pts, CALIB, (20.0, 20.0, 76.0, 76.0), 16)
    sums = w.sum(axis=1)
    assert (sums <= 1.0 + 1e-12).all() and (sums >= 0.0).all()
    # points far outside the crop give all-zero rows
    far = np.array([[5.0, 50.0, 1.0]])
    assert lookup_weights(far, CALIB, (20.0, 20.0, 76.0, 76.0), 16).sum() == 0.0


def test_point_rgb_colours_are_the_raster_at_each_projected_pixel():
    cfg = tiny_config(fusion="point_rgb")
    model, _ = build_model(cfg, seed=25)
    raster = affine_raster(96, 96)
    center = np.array([7.0, 0.0, 1.0])
    pts = np.random.default_rng(26).normal(0.0, 0.4, size=(300, 3))
    pixels, valid = project(pts + center, CALIB)
    assert valid.all()
    box = (*(np.percentile(pixels, 10, axis=0) - 0.3), *(np.percentile(pixels, 90, axis=0)))
    frame = ModelFrame(pts, crop_image(raster, box, (cfg.image_hw, cfg.image_hw)), center,
                       box, CALIB)
    seen = []
    model.point_encoder = seen.append
    model.fuse_frame(frame)
    colours = seen[0][:, 3:]
    coords = crop_coords(pixels, box, cfg.image_hw)
    inside = ((coords >= 0.0) & (coords <= cfg.image_hw - 1.0)).all(axis=1)
    assert inside.sum() > 100
    want = bilinear_sample(raster, pixels[inside, 0], pixels[inside, 1])
    assert np.abs(colours[inside] - want).max() < 1e-9
    outside = ((coords <= -1.0) | (coords >= cfg.image_hw)).any(axis=1)
    assert outside.sum() > 50 and (colours[outside] == 0.0).all()


def lookup_weights_loop(points_world, calib, box2d, image_hw):
    """Per-point reference for the vectorized ``lookup_weights``.

    Raster coordinate u is crop coordinate (u + 0.5 - u0) / (u1 - u0) *
    image_hw - 0.5 (``crop_image`` inverted), and token t's centre is
    crop coordinate 8t + 3.5.
    """
    grid = image_hw // 8
    weights = np.zeros((len(points_world), grid * grid))
    pixels, valid = project(points_world, calib)
    u0, v0, u1, v1 = box2d
    cu = (pixels[:, 0] + 0.5 - u0) / (u1 - u0) * image_hw - 0.5
    cv = (pixels[:, 1] + 0.5 - v0) / (v1 - v0) * image_hw - 0.5
    gu = (cu + 0.5) / 8.0 - 0.5
    gv = (cv + 0.5) / 8.0 - 0.5
    ok = valid & (gu > -1.0) & (gu < grid) & (gv > -1.0) & (gv < grid)
    for i in np.nonzero(ok)[0]:
        x0, y0 = int(np.floor(gu[i])), int(np.floor(gv[i]))
        fx, fy = gu[i] - x0, gv[i] - y0
        for dy, wy in ((0, 1.0 - fy), (1, fy)):
            for dx, wx in ((0, 1.0 - fx), (1, fx)):
                xx, yy = x0 + dx, y0 + dy
                if 0 <= xx < grid and 0 <= yy < grid and wx * wy > 0.0:
                    weights[i, yy * grid + xx] = wx * wy
    return weights


@pytest.mark.parametrize("box2d", [(20.0, 20.0, 76.0, 76.0), (40.0, 30.0, 56.0, 70.0)])
def test_lookup_weights_matches_per_point_loop(box2d):
    rng = np.random.default_rng(17)
    pts = np.stack([rng.uniform(-2, 9, 400), rng.uniform(-4, 4, 400),
                    rng.uniform(-1, 3, 400)], axis=1)
    for image_hw in (16, 32):
        got = lookup_weights(pts, CALIB, box2d, image_hw)
        want = lookup_weights_loop(pts, CALIB, box2d, image_hw)
        assert 0 < np.count_nonzero(got.sum(axis=1)) < len(pts)
        assert got.tobytes() == want.tobytes()


def test_forward_with_encoded_frames_matches_plain_forward():
    cfg = tiny_config()
    model, _ = build_model(cfg, seed=3)
    frames = make_frames(cfg, seed=4)
    plain = model.forward(frames)
    encoded = model.forward(frames, [model.encode(f) for f in frames])
    for a, b in zip(plain, encoded):
        assert a.final_pose.data.tobytes() == b.final_pose.data.tobytes()
        assert a.motion.data.tobytes() == b.motion.data.tobytes()
    with pytest.raises(DimensionError):
        model.forward(frames, [model.encode(frames[0])])


def test_a_window_in_a_batched_temporal_call_matches_its_own_forward():
    cfg = tiny_config()
    model, _ = build_model(cfg, seed=3)
    windows = [make_frames(cfg, seed=10 + b, center=(6.0 + b, 0.5 * b, 1.0))
               for b in range(3)]
    encoded = [[model.encode(f) for f in window] for window in windows]
    outs = model.temporal(
        [ad.concat([enc[t] for enc in encoded], axis=0) for t in range(cfg.window)],
        [np.stack([window[t].box_center for window in windows])
         for t in range(cfg.window)])
    k = N_JOINTS
    for b, window in enumerate(windows):
        for got, want in zip(outs, model.forward(window)):
            for name in ("motion", "positions", "features", "final_pose"):
                single, batched = getattr(want, name).data, getattr(got, name).data
                assert single.shape[0] == k and batched.shape == (3 * k, single.shape[1])
                np.testing.assert_allclose(batched[b * k:(b + 1) * k], single,
                                           rtol=1e-12, atol=0, err_msg=name)


# -- temporal behaviour ----------------------------------------------------------------


def test_perturbing_last_frame_changes_first_frame_output():
    cfg = tiny_config()
    model, _ = build_model(cfg, seed=14)
    frames = make_frames(cfg, seed=15)
    base = model.forward(frames)[0].final_pose.data
    frames[-1] = dataclasses.replace(frames[-1], points=frames[-1].points + 0.25)
    changed = model.forward(frames)[0].final_pose.data
    assert np.abs(changed - base).max() > 0.0


def test_every_frame_depends_on_every_other_frame():
    cfg = tiny_config()
    model, _ = build_model(cfg, seed=16)
    frames = make_frames(cfg, seed=17)
    base = [o.final_pose.data.copy() for o in model.forward(frames)]
    for perturb_t in range(cfg.window):
        mod = make_frames(cfg, seed=17)
        mod[perturb_t] = dataclasses.replace(mod[perturb_t], points=mod[perturb_t].points + 0.3)
        outs = model.forward(mod)
        for t in range(cfg.window):
            assert np.abs(outs[t].final_pose.data - base[t]).max() > 0.0, \
                (perturb_t, t)


def test_positions_are_anchored_at_box_center():
    cfg = tiny_config()
    model, _ = build_model(cfg, seed=18)
    frames_a = make_frames(cfg, seed=19, center=(7.0, 0.0, 1.0))
    frames_b = make_frames(cfg, seed=19, center=(9.0, 2.0, 1.5))
    out_a = model.forward(frames_a)[0]
    out_b = model.forward(frames_b)[0]
    shift = np.array([2.0, 2.0, 0.5])
    np.testing.assert_allclose(out_b.positions.data - out_a.positions.data,
                               np.tile(shift, (21, 1)), atol=1e-12)
    np.testing.assert_allclose(out_b.final_pose.data - out_a.final_pose.data,
                               np.tile(shift, (21, 1)), atol=1e-12)


def test_same_seed_same_data_bit_identical_outputs():
    cfg = tiny_config()
    model_a, _ = build_model(cfg, seed=20)
    model_b, _ = build_model(cfg, seed=20)
    frames = make_frames(cfg, seed=21)
    out_a = model_a.forward(frames)
    out_b = model_b.forward(frames)
    for a, b in zip(out_a, out_b):
        assert np.array_equal(a.final_pose.data, b.final_pose.data)


def test_full_model_gradient_matches_finite_differences():
    cfg = tiny_config(window=2)
    store = ParameterStore(seed=22)
    model = FusionPoseModel(cfg, store)
    frames = make_frames(cfg, seed=23)
    target = np.random.default_rng(24).normal(size=(21, 3))

    def f(s):
        outs = model.forward(frames)
        diff = ad.sub(outs[1].final_pose, target + frames[1].box_center)
        return ad.scale(ad.sum_all(ad.mul(diff, diff)), 1.0 / diff.data.size)

    report = finite_diff_check(f, store, max_coords_per_param=3)
    assert report.max_error < 1e-3, report.worst()
