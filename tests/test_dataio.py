import logging

import numpy as np
import pytest

from fusionpose.association import Detection2D, Detection3D, projected_rect
from fusionpose.dataio import InstanceDataset, associate_sequence, load_split
from fusionpose.gtguard import GT_GUARD
from fusionpose.errors import ContractError, InvalidInputError
from fusionpose.geometry import N_JOINTS
from fusionpose.model import ModelConfig
from fusionpose.synthdata.generate import (default_calibration, default_scene,
                                           generate_dataset)
from fusionpose.synthdata.seqfile import FrameRecord, PersonFrame, SequenceData


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = default_scene(n_persons=3, frames=24, seed=5, raster_h=64, raster_w=64)
    generate_dataset(cfg, out)
    return out


def model_cfg(**kw):
    defaults = dict(n_points=64, width=32, image_hw=16, joint_feat_dim=8,
                    head_hidden=16)
    defaults.update(kw)
    return ModelConfig(**defaults)


def test_association_tracks_every_person(dataset_dir):
    sequences = load_split(dataset_dir, "train")
    seq = next(iter(sequences.values()))
    windows = associate_sequence(seq, window=4)
    assert windows
    # each window stays on one person: the detections come from one source
    for win in windows:
        owners = {obs.person_index for obs in win.observations}
        assert len(owners) == 1


def test_window_counts_match_track_lengths(dataset_dir):
    sequences = load_split(dataset_dir, "train")
    seq = next(iter(sequences.values()))
    n_frames = len(seq.frames)
    windows = associate_sequence(seq, window=4)
    # fully visible tracks give (frames - T + 1) windows each
    per_track: dict[int, int] = {}
    for w in windows:
        per_track[w.track_id] = per_track.get(w.track_id, 0) + 1
    assert max(per_track.values()) <= n_frames - 4 + 1


def test_instance_dataset_builds_model_inputs(dataset_dir):
    cfg = model_cfg()
    data = InstanceDataset(load_split(dataset_dir, "train"), cfg)
    assert data.samples
    sample = data.samples[0]
    assert len(sample.frames) == 4
    frames = data.model_frames(sample)
    for fs, mf in zip(sample.frames, frames):
        assert mf.points.shape == (min(len(fs.crop_cloud), 64), 3)
        assert mf.raster.shape == (16, 16, 3)
        # points are centered on the box center
        assert np.abs(mf.points.mean(axis=0)).max() < 2.0
        assert mf is fs.model_input  # the clean input is the stored one


def test_model_frames_with_budget_and_occlusion(dataset_dir):
    cfg = model_cfg()
    data = InstanceDataset(load_split(dataset_dir, "val"), cfg)
    sample = data.samples[0]
    base = data.model_frames(sample)
    small = data.model_frames(sample, point_budget=8, seed=1)
    occluded = data.model_frames(sample, occlusion=0.6, seed=1)
    for mf in small:
        assert 1 <= len(mf.points) <= 8
    assert any(not np.array_equal(a.points, b.points)
               for a, b in zip(base, occluded))


@pytest.mark.parametrize("arm, cap", [(dict(), 64),
                                      (dict(point_budget=256, seed=1), 64),
                                      (dict(point_budget=32, seed=1), 32),
                                      (dict(occlusion=0.6, seed=1), None)],
                         ids=["clean", "budget256", "budget32", "occlusion"])
def test_model_frames_hold_distinct_crop_points_up_to_the_cap(dataset_dir, arm, cap):
    cfg = model_cfg()
    data = InstanceDataset(load_split(dataset_dir, "train"), cfg)
    sizes = set()
    for sample in data.samples:
        for fs, mf in zip(sample.frames, data.model_frames(sample, **arm)):
            rows = {tuple(p) for p in mf.points}
            assert len(rows) == len(mf.points) <= cfg.n_points
            assert rows <= {tuple(p) for p in fs.crop_cloud - fs.model_input.box_center}
            if cap is not None:
                assert len(mf.points) == min(len(fs.crop_cloud), cap)
            sizes.add(len(fs.crop_cloud))
    # the dataset has crops both below and above the cap
    assert min(sizes) < cfg.n_points < max(sizes)


def test_frames_are_shared_between_overlapping_windows(dataset_dir):
    cfg = model_cfg()
    data = InstanceDataset(load_split(dataset_dir, "train"), cfg)
    by_track: dict[int, list] = {}
    for s in data.samples:
        by_track.setdefault((s.sequence_name, s.track_id), []).append(s)
    for windows in by_track.values():
        windows.sort(key=lambda s: s.start_frame)
        for a, b in zip(windows, windows[1:]):
            if b.start_frame == a.start_frame + 1:
                assert b.frames[0] is a.frames[1]


def test_windows_sharing_a_crop_share_its_clean_input(dataset_dir):
    data = InstanceDataset(load_split(dataset_dir, "train"), model_cfg())
    inputs = {}
    shared = 0
    for sample in data.samples:
        for fs, mf in zip(sample.frames, data.model_frames(sample)):
            if id(fs) in inputs:
                assert mf is inputs[id(fs)]
                shared += 1
            inputs[id(fs)] = mf
    assert shared > 0


def test_degraded_arms_leave_the_stored_inputs_untouched(dataset_dir):
    data = InstanceDataset(load_split(dataset_dir, "val"), model_cfg(n_points=16))
    frames = [fs for sample in data.samples for fs in sample.frames]
    before = [fs.model_input.points.copy() for fs in frames]
    for sample in data.samples:
        for arm in (dict(point_budget=8, seed=1), dict(occlusion=0.6, seed=1)):
            for fs, mf in zip(sample.frames, data.model_frames(sample, **arm)):
                assert mf is not fs.model_input
                assert mf.raster is fs.model_input.raster
                mf.points[...] += 1.0  # a caller's edit must not reach the store
    for fs, points in zip(frames, before):
        assert fs.model_input.points.tobytes() == points.tobytes()


def test_gt_access_is_counted_and_forbidden_in_training_scope(dataset_dir):
    cfg = model_cfg()
    data = InstanceDataset(load_split(dataset_dir, "val"), cfg)
    sample = data.samples[0]
    before = GT_GUARD.access_count
    data.model_frames(sample)  # building inputs must not touch GT
    assert GT_GUARD.access_count == before
    gt = sample.frames[0].gt_pose3d
    assert gt.shape == (21, 3)
    assert GT_GUARD.access_count == before + 1
    with GT_GUARD.forbid():
        with pytest.raises(ContractError):
            _ = sample.frames[0].gt_pose3d


def standing_person(n_frames: int, empty_frame: int) -> SequenceData:
    """One person standing still 6 m in front of the camera, detected in
    every frame; in ``empty_frame`` their returns lie 1 m behind the 3D box."""
    calib = default_calibration(64, 64)
    det3d = Detection3D((6.0, 0.0, 0.9), (0.6, 0.6, 1.8))
    det2d = Detection2D(projected_rect(det3d, calib))
    returns = np.array([[6.0, 0.0, 0.9], [6.1, 0.1, 1.3], [5.9, -0.1, 0.4]])
    frames = []
    for f in range(n_frames):
        points = returns + [1.0 * (f == empty_frame), 0.0, 0.0]
        person = PersonFrame(np.zeros((N_JOINTS, 2)), np.ones(N_JOINTS, bool),
                             det2d, det3d)
        frames.append(FrameRecord(points, np.zeros((64, 64, 3), np.float32), [person]))
    return SequenceData(calib, frames, has_gt=False)


def test_windows_holding_an_empty_crop_are_dropped_and_counted(caplog):
    seq = standing_person(n_frames=8, empty_frame=5)
    with caplog.at_level(logging.WARNING, logger="fusionpose.dataio"):
        data = InstanceDataset({"standing": seq}, model_cfg())
    # windows start at frames 0-4; those starting at 2, 3 and 4 hold frame 5
    assert [s.start_frame for s in data.samples] == [0, 1]
    assert data._dropped == 3
    assert "dropped 3 windows with empty 3D crops" in caplog.text


def test_load_split_unknown_split(dataset_dir):
    with pytest.raises(InvalidInputError):
        load_split(dataset_dir, "test")


def test_pairing_recovers_identity_under_strong_jitter(tmp_path):
    """With 0.2 m detection-center jitter on the standard scene, the
    cross-modal pairing still links each 2D detection to its own person's
    3D detection."""
    from fusionpose.synthdata.sensors import DetectionJitter

    cfg = default_scene(n_persons=3, frames=12, seed=21, raster_h=64, raster_w=64,
                        jitter=DetectionJitter(center_sigma_m=0.2,
                                               box2d_sigma_px=2.0))
    generate_dataset(cfg, tmp_path)
    sequences = load_split(tmp_path, "train")
    checked = 0
    for seq in sequences.values():
        for frame_idx, frame in enumerate(seq.frames):
            windows = associate_sequence(seq, window=4)
            for win in windows:
                for offset, obs in enumerate(win.observations):
                    record = seq.frames[win.start_frame + offset]
                    # identify the 2D-side person by its keypoint array
                    matches = [i for i, p in enumerate(record.persons)
                               if np.array_equal(p.keypoints_2d, obs.kp2d.joints)]
                    assert matches == [obs.person_index]
                    checked += 1
            break  # association already covers all frames of the sequence
    assert checked > 0
