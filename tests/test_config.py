from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionpose.config import _KEY_MAP, RunConfig, load_config, parse_config_text
from fusionpose.errors import ConfigError, FusionPoseError


def test_defaults_follow_published_dimensions():
    cfg = RunConfig()
    assert cfg.n_points == 256
    assert cfg.window == 4
    assert cfg.batch_size == 8
    mc = cfg.model_config()
    assert mc.width == 256 and mc.image_hw == 64


def test_parse_round_trip_and_comments():
    cfg = parse_config_text("""
# comment line
seed = 9
model.n_points = 128   # trailing comment
assoc.gate_distance = 2.5
model.fusion = global
ablate.point_budgets = 64,32
eval.squared_cd = true
""")
    assert cfg.seed == 9
    assert cfg.n_points == 128
    assert cfg.gate_distance == 2.5
    assert cfg.fusion == "global"
    assert cfg.point_budgets == (64, 32)
    assert cfg.squared_cd is True


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="model.depth"):
        parse_config_text("model.depth = 3")


def test_unparseable_value_is_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("optim.epochs = banana")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("seed 9")


@pytest.mark.parametrize("line", [
    "model.n_points = 0",
    "model.image_hw = 30",
    "model.image_hw = 0",
    "model.width = 30",
    "model.width = 0",
    "model.joint_feat_dim = 0",
    "model.head_hidden = 0",
    "optim.batch_size = 0",
    "model.window = 1",
    "model.joints = 19",
    "model.fusion = invalid",
    "train.window_stride = 0",
    "seed = -1",
    "scene.persons = 0",
    "scene.persons = 100000",
    "scene.frames = 3",
    "scene.frames = 4",
    "scene.frames = 7",
    "optim.step_size = -1",
    "optim.step_size = 0",
    "optim.step_size = nan",
    "optim.step_size = inf",
    "optim.epochs = 0",
    "optim.epochs = -3",
    "loss.lambda_motion = -1",  # removed keys: rejected as unknown
    "loss.lambda_consistency = inf",
    "loss.lambda_proj = nan",
    "loss.lambda_cd_agu = -0.5",
    "assoc.iou_threshold = nan",
    "assoc.iou_threshold = -0.1",
    "assoc.iou_threshold = 1.5",
    "assoc.gate_distance = 0",
    "assoc.gate_distance = nan",
    "assoc.gate_distance = inf",
    "assoc.max_misses = -1",
    "scene.frame_rate_hz = 0",  # a removed key: rejected as unknown
    "scene.frame_rate_hz = nan",
    "scene.frame_rate_hz = inf",
    "scene.frame_rate_hz = 1e-320",
    "scene.raster_h = 0",
    "scene.raster_w = -4",
    "scene.val_fraction = nan",
    "scene.val_fraction = 1.5",
    "scene.val_fraction = 0",
    "ablate.point_budgets = -5",
    "ablate.point_budgets = 256,-1",
    "ablate.point_budgets = 0",
    "ablate.point_budgets =",
    "ablate.point_budgets = 8,,16",
    "ablate.point_budgets = 8,16,",
    "scene.frames = 8\nmodel.window = 6",
    "scene.frames = 20\nscene.val_fraction = 0.9\nmodel.window = 5",
    "ablate.occlusion_fraction = -0.2",  # a removed key: rejected as unknown
    "ablate.occlusion_fraction = 1.0",
    "ablate.occlusion_fraction = nan",
    "ablate.occlusion_fraction = inf",
    "loss.bone_samples = -1",
])
def test_invariant_violations(line):
    with pytest.raises(ConfigError):
        parse_config_text(line)


@pytest.mark.parametrize("text, key", [
    ("optim.epochs = banana", "optim.epochs"),
    ("ablate.point_budgets =", "ablate.point_budgets"),
    ("ablate.point_budgets = 8,,16", "ablate.point_budgets"),
])
def test_unparseable_value_names_its_key(text, key):
    with pytest.raises(ConfigError, match=key):
        parse_config_text(text)


def test_short_split_names_frames_val_fraction_and_window():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("scene.frames = 8\nmodel.window = 6")
    for key in ("scene.frames", "scene.val_fraction", "model.window"):
        assert key in str(exc.value)
    # each split of 8 frames holds 4: a window of 4 still fits
    assert parse_config_text("scene.frames = 8\nmodel.window = 4").window == 4


def test_every_key_sets_a_field_and_every_field_has_a_key():
    assert set(_KEY_MAP.values()) == {f.name for f in fields(RunConfig)} - {"base_dir"}


def test_env_seed_override(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\n")
    monkeypatch.setenv("FUSIONPOSE_SEED", "777")
    assert load_config(path).seed == 777
    for bad in ("not-an-int", "-1"):
        monkeypatch.setenv("FUSIONPOSE_SEED", bad)
        with pytest.raises(ConfigError, match="FUSIONPOSE_SEED"):
            load_config(path)


def test_paths_resolve_against_config_dir(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    path = sub / "run.cfg"
    path.write_text("paths.dataset_dir = my_data\n")
    cfg = load_config(path)
    assert cfg.path("dataset_dir") == (sub / "my_data").resolve()


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.cfg")


def test_shipped_configs_parse():
    from pathlib import Path
    root = Path(__file__).resolve().parents[1] / "configs"
    ref = load_config(root / "reference.cfg")
    assert ref.seed == 42 and ref.scene_persons == 3 and ref.scene_frames == 200
    paper = load_config(root / "paper_default.cfg")
    assert paper.n_points == 256 and paper.width == 256


_DEFAULTS = vars(RunConfig())
_NUMERIC_KEYS = sorted(
    key for key, name in _KEY_MAP.items()
    if (key == "seed" or key.split(".")[0] in ("scene", "model", "optim"))
    and type(_DEFAULTS[name]) in (int, float))

_NUMBERS = st.one_of(
    st.integers(-10, 300),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    st.sampled_from([0, 1, -1, 0.0, -0.0, 1e-320, 1e308, "nan", "inf", "-inf"]),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_NUMERIC_KEYS), _NUMBERS, min_size=1, max_size=4))
def test_numeric_values_configure_or_raise_package_errors(values):
    text = "".join(f"{key} = {value!r}\n".replace("'", "") for key, value in values.items())
    try:
        cfg = parse_config_text(text)
        cfg.scene_config()
        cfg.model_config()
    except FusionPoseError:
        pass
