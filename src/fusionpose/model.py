"""The learnable network: point/image encoders, cross-attention fusion,
and the temporal pose estimator with its three heads.

All dense math lives on the autodiff tape. Each frame is encoded on its
own (point and image encoders, fusion, max-pool to one feature vector);
frames meet only in the temporal estimator. A single forward consumes
one instance window (T frames of one tracked person) and emits per-frame
motion, positions, per-joint features, and the combined final pose.
Feature widths default to the published dimensions (256-wide features,
tokens at 1/8 resolution, bi-GRU with 128 hidden per direction) and
scale down proportionally for small configs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError
from .geometry import N_JOINTS, Calibration, bilinear_sample, project
from .params import ParameterStore

FUSION_VARIANTS = ("ipa", "point_rgb", "pixel", "local", "global")


@dataclass(frozen=True)
class ModelConfig:
    n_points: int = 256  # cap on a crop's points; no weight depends on it
    width: int = 256
    image_hw: int = 64
    window: int = 4
    joint_feat_dim: int = 64
    head_hidden: int = 64
    fusion: str = "ipa"

    def __post_init__(self):
        if self.n_points < 1:
            raise ConfigError(f"model.n_points must be >= 1, got {self.n_points}")
        if self.image_hw < 8 or self.image_hw % 8 != 0:
            raise ConfigError(f"model.image_hw must be a positive multiple of 8, "
                              f"got {self.image_hw}")
        if self.width < 4 or self.width % 4 != 0:
            raise ConfigError(f"model.width must be a positive multiple of 4, got {self.width}")
        for name in ("joint_feat_dim", "head_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if self.fusion not in FUSION_VARIANTS:
            raise ConfigError(f"model.fusion must be one of {FUSION_VARIANTS}, "
                              f"got {self.fusion!r}")
        if self.window < 2:
            raise ConfigError(f"model.window must be >= 2, got {self.window}")

    @property
    def n_tokens(self) -> int:
        return (self.image_hw // 8) ** 2

    @property
    def gru_hidden(self) -> int:
        return self.width // 2


@dataclass
class ModelFrame:
    """One frame of network input for one instance."""

    points: np.ndarray  # (m, 3), m >= 1, centered on the 3D crop-box center
    raster: np.ndarray  # (hw, hw, 3) cropped image
    box_center: np.ndarray  # (3,) world
    box2d: tuple[float, float, float, float]
    calib: Calibration


@dataclass
class FrameOutput:
    """Per-frame head outputs (world coordinates for positions)."""

    motion: ad.Tensor  # (k, 2) pixel offsets
    positions: ad.Tensor  # (k, 3) position-block pose
    features: ad.Tensor  # (k, c) consistency features
    final_pose: ad.Tensor  # (k, 3) combined pose


class Linear:
    def __init__(self, store, path: str, d_in: int, d_out: int):
        self.w = store.weight(f"{path}.w", (d_in, d_out))
        self.b = store.zeros(f"{path}.b", (d_out,))

    def __call__(self, x):
        return ad.linear(x, self.w, self.b)


class LayerNorm:
    def __init__(self, store, path: str, d: int):
        self.gain = store.from_value(f"{path}.gain", np.ones(d))
        self.bias = store.zeros(f"{path}.bias", (d,))

    def __call__(self, x):
        return ad.layer_norm(x, self.gain, self.bias)


class SelfAttention:
    """Single-head scaled dot-product attention over one token set."""

    def __init__(self, store, path: str, d: int):
        self.wq = store.weight(f"{path}.q", (d, d))
        self.wk = store.weight(f"{path}.k", (d, d))
        self.wv = store.weight(f"{path}.v", (d, d))
        self.scale = 1.0 / np.sqrt(d)

    def __call__(self, x):
        q = ad.matmul(x, self.wq)
        k = ad.matmul(x, self.wk)
        v = ad.matmul(x, self.wv)
        affinity = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k)), self.scale))
        return ad.matmul(affinity, v)


class PointEncoder:
    """Per-point MLP with a max-pooled global feature folded back in,
    then residual self-attention + layer norm."""

    def __init__(self, store, path: str, d_in: int, width: int):
        dims = (width // 4, width // 2, width)
        self.mlp = []
        prev = d_in
        for i, d in enumerate(dims):
            self.mlp.append(Linear(store, f"{path}.mlp{i}", prev, d))
            prev = d
        self.reduce = Linear(store, f"{path}.reduce", 2 * width, width)
        self.attn = SelfAttention(store, f"{path}.attn", width)
        self.ln = LayerNorm(store, f"{path}.ln", width)

    def __call__(self, points):
        h = points
        for layer in self.mlp:
            h = ad.relu(layer(h))
        pooled = ad.max_over_rows(h)
        broadcast = ad.matmul(np.ones((h.shape[0], 1)), pooled)
        p = self.reduce(ad.concat([h, broadcast], axis=1))
        return self.ln(ad.add(p, self.attn(p)))


class ImageEncoder:
    """Three stride-2 conv stages to 1/8 resolution, channel-mix MLP,
    then residual self-attention + layer norm over the flattened tokens."""

    def __init__(self, store, path: str, width: int, image_hw: int):
        chans = (3, width // 4, width // 2, width)
        self.stages = [
            (Linear(store, f"{path}.conv{i}", chans[i] * 9, chans[i + 1]), chans[i])
            for i in range(3)
        ]
        self.mix0 = Linear(store, f"{path}.mix0", width, width)
        self.mix1 = Linear(store, f"{path}.mix1", width, width)
        self.attn = SelfAttention(store, f"{path}.attn", width)
        self.ln = LayerNorm(store, f"{path}.ln", width)
        self.image_hw = image_hw
        self.width = width

    def __call__(self, raster: np.ndarray):
        hw = self.image_hw
        if raster.shape != (hw, hw, 3):
            raise DimensionError(f"raster shape {raster.shape}, expected {(hw, hw, 3)}")
        x = np.ascontiguousarray(raster.astype(np.float64).transpose(2, 0, 1))
        cur: ad.Tensor | np.ndarray = x
        size = hw
        for conv, c_in in self.stages:
            col = ad.im2col(cur, kernel=3, stride=2, pad=1)
            h = ad.relu(conv(col))  # (size/2 * size/2, c_out)
            size //= 2
            c_out = h.shape[1]
            cur = ad.reshape(ad.transpose(h), (c_out, size, size))
        tokens = ad.transpose(ad.reshape(cur, (self.width, size * size)))
        mixed = self.mix1(ad.relu(self.mix0(tokens)))
        encoded = self.ln(ad.add(mixed, self.attn(mixed)))
        return encoded, tokens  # tokens: pre-mix conv features for lookups


class CrossAttentionFusion:
    """Point queries attend over image tokens; the weighted values are
    joined with the queries through two linear layers, then residual
    layer norm and a feed-forward block produce the fused features."""

    def __init__(self, store, path: str, width: int):
        self.wq = store.weight(f"{path}.q", (width, width))
        self.wk = store.weight(f"{path}.k", (width, width))
        self.wv = store.weight(f"{path}.v", (width, width))
        self.proj0 = Linear(store, f"{path}.proj0", 2 * width, width)
        self.proj1 = Linear(store, f"{path}.proj1", width, width)
        self.ln1 = LayerNorm(store, f"{path}.ln1", width)
        self.ffn0 = Linear(store, f"{path}.ffn0", width, 2 * width)
        self.ffn1 = Linear(store, f"{path}.ffn1", 2 * width, width)
        self.ln2 = LayerNorm(store, f"{path}.ln2", width)
        self.scale = 1.0 / np.sqrt(width)

    def __call__(self, fp, fi):
        q = ad.matmul(fp, self.wq)
        k = ad.matmul(fi, self.wk)
        v = ad.matmul(fi, self.wv)
        affinity = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k)), self.scale))
        weighted = ad.matmul(affinity, v)
        joined = self.proj1(ad.relu(self.proj0(ad.concat([weighted, q], axis=1))))
        attended = self.ln1(ad.add(fp, joined))
        ffn = self.ffn1(ad.relu(self.ffn0(attended)))
        fused = self.ln2(ad.add(attended, ffn))
        return fused, affinity


class TemporalEstimator:
    """Bi-GRU across the window's pooled frame features, three MLP heads,
    and the per-joint combiner producing the final pose."""

    _GATES = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")

    def __init__(self, store, path: str, cfg: ModelConfig):
        w, hh = cfg.width, cfg.gru_hidden
        self.cfg = cfg
        self.gru = {}
        for direction in ("fwd", "bwd"):
            params = {}
            for gate in self._GATES:
                if gate.startswith("w"):
                    params[gate] = store.weight(f"{path}.gru.{direction}.{gate}", (w, hh))
                elif gate.startswith("u"):
                    params[gate] = store.weight(f"{path}.gru.{direction}.{gate}", (hh, hh))
                else:
                    params[gate] = store.zeros(f"{path}.gru.{direction}.{gate}", (hh,))
            self.gru[direction] = params
        k, c, hd = N_JOINTS, cfg.joint_feat_dim, cfg.head_hidden
        self.motion0 = Linear(store, f"{path}.motion0", w, hd)
        self.motion1 = Linear(store, f"{path}.motion1", hd, k * 2)
        self.position0 = Linear(store, f"{path}.position0", w, hd)
        self.position1 = Linear(store, f"{path}.position1", hd, k * 3)
        self.feature0 = Linear(store, f"{path}.feature0", w, hd)
        self.feature1 = Linear(store, f"{path}.feature1", hd, k * c)
        self.combine0 = Linear(store, f"{path}.combine0", c + 3, hd)
        self.combine1 = Linear(store, f"{path}.combine1", hd, 3)

    def _run_gru(self, inputs, direction: str):
        p = self.gru[direction]
        h = ad.Tensor(np.zeros((1, self.cfg.gru_hidden)))
        states = []
        for x in inputs:
            h = ad.gru_cell(x, h, p["wz"], p["uz"], p["bz"],
                            p["wr"], p["ur"], p["br"],
                            p["wh"], p["uh"], p["bh"])
            states.append(h)
        return states

    def __call__(self, pooled, box_centers) -> list[FrameOutput]:
        k, c = N_JOINTS, self.cfg.joint_feat_dim
        fwd = self._run_gru(pooled, "fwd")
        bwd = self._run_gru(pooled[::-1], "bwd")[::-1]
        outputs = []
        for t, center in enumerate(box_centers):
            feat = ad.concat([fwd[t], bwd[t]], axis=1)
            motion = ad.reshape(self.motion1(ad.relu(self.motion0(feat))), (k, 2))
            offsets = ad.reshape(self.position1(ad.relu(self.position0(feat))), (k, 3))
            jfeat = ad.reshape(self.feature1(ad.relu(self.feature0(feat))), (k, c))
            delta = self.combine1(ad.relu(self.combine0(
                ad.concat([jfeat, offsets], axis=1))))
            center = np.asarray(center, dtype=np.float64)
            positions = ad.add(offsets, center)
            final = ad.add(ad.add(offsets, delta), center)
            outputs.append(FrameOutput(motion, positions, jfeat, final))
        return outputs


def lookup_weights(points_world: np.ndarray, calib: Calibration,
                   box2d, image_hw: int) -> np.ndarray:
    """Constant (m, n_tokens) bilinear gather matrix for m points.

    Each row picks the token-grid neighborhood of the point's projected
    pixel mapped into the image crop; points projecting outside the crop
    get an all-zero row (zero feature by convention).
    """
    grid = image_hw // 8
    n = len(points_world)
    weights = np.zeros((n, grid * grid))
    pixels, valid = project(points_world, calib)
    u0, v0, u1, v1 = box2d
    cu = (pixels[:, 0] - u0) / (u1 - u0) * image_hw
    cv = (pixels[:, 1] - v0) / (v1 - v0) * image_hw
    gu = cu / 8.0 - 0.5
    gv = cv / 8.0 - 0.5
    ok = valid & (gu > -1.0) & (gu < grid) & (gv > -1.0) & (gv < grid)
    rows = np.nonzero(ok)[0]
    x0, y0 = np.floor(gu[rows]), np.floor(gv[rows])
    fx, fy = gu[rows] - x0, gv[rows] - y0
    x0, y0 = x0.astype(np.int64), y0.astype(np.int64)
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            xx, yy = x0 + dx, y0 + dy
            w = wx * wy
            keep = (xx >= 0) & (xx < grid) & (yy >= 0) & (yy < grid) & (w > 0.0)
            weights[rows[keep], (yy * grid + xx)[keep]] = w[keep]
    return weights


class FusionPoseModel:
    """End-to-end network over one instance window.

    The fusion variant is fixed at construction; every variant emits
    (m, width) features for a frame of any m >= 1 points (no weight
    depends on m), so the temporal estimator is variant-agnostic.
    """

    def __init__(self, cfg: ModelConfig, store):
        self.cfg = cfg
        point_in = {"point_rgb": 6, "pixel": 3 + cfg.width}.get(cfg.fusion, 3)
        self.point_encoder = PointEncoder(store, "point", point_in, cfg.width)
        self.image_encoder = ImageEncoder(store, "image", cfg.width, cfg.image_hw)
        if cfg.fusion == "ipa":
            self.fusion = CrossAttentionFusion(store, "fuse", cfg.width)
        elif cfg.fusion == "local":
            self.local_reduce = Linear(store, "fuse_local.reduce", 2 * cfg.width, cfg.width)
        elif cfg.fusion == "global":
            self.global_reduce = Linear(store, "fuse_global.reduce", 2 * cfg.width, cfg.width)
        self.temporal = TemporalEstimator(store, "temporal", cfg)

    def _check_frame(self, frame: ModelFrame) -> None:
        shape = np.shape(frame.points)
        if len(shape) != 2 or shape[0] == 0 or shape[1] != 3:
            raise DimensionError(f"expected (m, 3) points with m >= 1, got {shape}")

    def fuse_frame(self, frame: ModelFrame):
        """Per-frame fused features (m, width); also returns the
        cross-attention affinity when the variant is ipa (else None)."""
        self._check_frame(frame)
        cfg = self.cfg
        pts = frame.points
        world = pts + frame.box_center

        if cfg.fusion == "point_rgb":
            pixels, valid = project(world, frame.calib)
            u0, v0, u1, v1 = frame.box2d
            cu = (pixels[:, 0] - u0) / (u1 - u0) * cfg.image_hw - 0.5
            cv = (pixels[:, 1] - v0) / (v1 - v0) * cfg.image_hw - 0.5
            colors = bilinear_sample(frame.raster.astype(np.float64), cu, cv)
            inside = valid & (cu > -1) & (cu < cfg.image_hw) & (cv > -1) & (cv < cfg.image_hw)
            colors[~inside] = 0.0
            return self.point_encoder(np.concatenate([pts, colors], axis=1)), None

        fi, conv_tokens = self.image_encoder(frame.raster)

        if cfg.fusion == "pixel":
            lw = lookup_weights(world, frame.calib, frame.box2d, cfg.image_hw)
            per_point = ad.matmul(lw, conv_tokens)
            fused = self.point_encoder(ad.concat([ad.Tensor(pts), per_point], axis=1))
            return fused, None

        fp = self.point_encoder(pts)
        if cfg.fusion == "ipa":
            fused, affinity = self.fusion(fp, fi)
            return fused, affinity
        if cfg.fusion == "local":
            lw = lookup_weights(world, frame.calib, frame.box2d, cfg.image_hw)
            per_point = ad.matmul(lw, fi)
            return self.local_reduce(ad.concat([fp, per_point], axis=1)), None
        # global: mean image tokens ++ max point feature, broadcast per point
        m = fi.shape[0]
        g_img = ad.matmul(np.full((1, m), 1.0 / m), fi)
        g_pt = ad.max_over_rows(fp)
        g = ad.concat([g_img, g_pt], axis=1)
        broadcast = ad.matmul(np.ones((fp.shape[0], 1)), g)
        return self.global_reduce(broadcast), None

    def encode(self, frame: ModelFrame) -> ad.Tensor:
        """The frame's max-pooled fused feature, (1, width)."""
        return ad.max_over_rows(self.fuse_frame(frame)[0])

    def forward(self, frames: list[ModelFrame],
                encoded: list[ad.Tensor] | None = None) -> list[FrameOutput]:
        """Outputs of one window. ``encoded`` holds each frame's
        ``encode`` result when the caller has them already; without it
        every frame is encoded here."""
        if len(frames) != self.cfg.window:
            raise DimensionError(
                f"expected {self.cfg.window} frames, got {len(frames)}")
        if encoded is None:
            encoded = [self.encode(f) for f in frames]
        elif len(encoded) != len(frames):
            raise DimensionError(
                f"{len(encoded)} encoded features for {len(frames)} frames")
        return self.temporal(encoded, [f.box_center for f in frames])


def build_model(cfg: ModelConfig, seed: int):
    """Construct a model with freshly initialized parameters."""
    store = ParameterStore(seed=seed)
    model = FusionPoseModel(cfg, store)
    return model, store
