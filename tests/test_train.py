"""Segment batches and the three-phase batch gradient of ``train``."""

import dataclasses
import errno
import functools
import gc
import itertools
import logging
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionpose import autodiff as ad
from fusionpose import train
from fusionpose.config import parse_config_text
from fusionpose.dataio import InstanceDataset, load_split
from fusionpose.errors import ContractError
from fusionpose.geometry import Pose2D
from fusionpose.losses import (LossWeights, chamfer_agu_loss, consistency_loss,
                               motion_loss, projection_loss, total_loss)
from fusionpose.model import FusionPoseModel, TemporalEstimator, build_model
from fusionpose.synthdata.generate import child_seed, generate_dataset
from fusionpose.train import LOSS_NAMES, FrameWorker, Trainer, batch_gradients
from support import overfit

TINY_CFG = """
seed = 3
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
optim.batch_size = 4
"""


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    cfg = parse_config_text(TINY_CFG, base_dir=str(root))
    generate_dataset(cfg.scene_config(), cfg.path("dataset_dir"))
    data = InstanceDataset(load_split(cfg.path("dataset_dir"), "train"),
                           cfg.model_config())
    return cfg, data


def _sum(terms):
    return functools.reduce(ad.add, terms)


def window_loss(model, frames, sample, weights, bone_samples):
    """Reference: the total weighted loss of one window on its own, every
    loss term called once per frame."""
    outs = model.forward(frames)
    components = {}
    components["motion"] = _sum([motion_loss(outs[t].motion, sample.frames[t].kp,
                                             sample.frames[t - 1].kp)
                                 for t in range(1, len(outs))])
    consistency = consistency_loss([o.features for o in outs])
    components["consistency"] = ad.scale(consistency, float(len(outs)))
    components["proj"] = _sum([projection_loss(outs[t].final_pose, sample.frames[t].kp,
                                               frames[t].calib)
                               for t in range(len(outs))])
    components["cd_agu"] = _sum([chamfer_agu_loss(outs[t].final_pose,
                                                  frames[t].points + frames[t].box_center,
                                                  bone_samples)
                                 for t in range(len(outs))])
    total = total_loss(components, weights)
    values = {name: float(components[name].data) for name in LOSS_NAMES}
    values["total"] = float(total.data)
    return total, values


def per_window_tapes(model, store, dataset, batch, weights, bone_samples):
    """Reference: one tape per window, every frame encoded on it."""
    grads = {path: np.zeros_like(tensor.data) for path, tensor in store.items()}
    sums = {name: 0.0 for name in (*LOSS_NAMES, "total")}
    for sample in batch:
        frames = dataset.model_frames(sample)
        with ad.Tape() as tape:
            total, values = window_loss(model, frames, sample, weights,
                                        bone_samples)
        g = ad.backward(tape, total, store)
        grads.update({p: grads[p] + g[p] for p in g})
        for name, v in values.items():
            sums[name] += v
    scale = 1.0 / len(batch)
    return ({p: g * scale for p, g in grads.items()},
            {name: v * scale for name, v in sums.items()})


def overlapping_batch(data, size=4):
    batch = data.samples[:size]
    assert len({(s.sequence_name, s.track_id) for s in batch}) == 1
    assert [s.start_frame for s in batch] == list(range(size))
    return batch


def test_batch_gradients_match_per_window_tapes(tiny):
    cfg, data = tiny
    model, store = build_model(cfg.model_config(), 7)
    batch = overlapping_batch(data)
    args = (model, store, data, batch, LossWeights(), cfg.bone_samples)
    want, want_means = per_window_tapes(*args)
    got, got_means = batch_gradients(*args)
    # the losses sum over the batch's windows in another order
    assert got_means.keys() == want_means.keys()
    for name in want_means:
        np.testing.assert_allclose(got_means[name], want_means[name], rtol=1e-12,
                                   atol=0, err_msg=name)
    assert got.keys() == want.keys()
    for path in want:
        np.testing.assert_allclose(got[path], want[path], rtol=1e-10, atol=0,
                                   err_msg=path)
    assert any(np.abs(got[p]).max() > 0 for p in store.paths()
               if p.startswith(("point.", "image.", "fuse")))


def _frame_case(frame_sample, draw):
    """``frame_sample`` with drawn keypoint visibility and box center."""
    mf, kp = frame_sample.model_input, frame_sample.kp
    visibility = draw(st.sampled_from(["kept", "random", "none"]))
    if visibility == "random":
        kp = Pose2D(kp.joints, kp.visibility & (np.random.default_rng(
            draw(st.integers(0, 2**16))).random(len(kp.visibility)) < 0.5))
    elif visibility == "none":
        kp = Pose2D(kp.joints, np.zeros_like(kp.visibility))
    if draw(st.booleans()):  # move the crop behind the camera: camera z = -1
        axis = mf.calib.rotation[2]
        depth = axis @ mf.box_center + mf.calib.translation[2]
        mf = dataclasses.replace(mf, box_center=mf.box_center - (depth + 1.0) * axis)
    return dataclasses.replace(frame_sample, model_input=mf, kp=kp)


@settings(max_examples=20, deadline=None)
@given(case=st.data())
def test_segment_step_matches_per_window_tapes(tiny, case):
    cfg, data = tiny
    size = case.draw(st.integers(1, cfg.batch_size), label="B")
    start = case.draw(st.integers(0, len(data.samples) - size), label="start")
    windows = data.samples[start:start + size]
    invisible = case.draw(st.booleans(), label="no usable joints anywhere")
    changed = {}
    for fs in (fs for s in windows for fs in s.frames):
        if id(fs) not in changed:
            changed[id(fs)] = _frame_case(fs, case.draw)
            if invisible:
                kp = changed[id(fs)].kp
                changed[id(fs)].kp = Pose2D(kp.joints, np.zeros_like(kp.visibility))
    batch = [dataclasses.replace(s, frames=[changed[id(fs)] for fs in s.frames])
             for s in windows]
    model, store = build_model(cfg.model_config(), 7)
    args = (model, store, data, batch, LossWeights(), cfg.bone_samples)
    want, want_means = per_window_tapes(*args)
    got, got_means = batch_gradients(*args)
    for name in want_means:
        np.testing.assert_allclose(got_means[name], want_means[name], rtol=1e-12,
                                   atol=0, err_msg=name)
    for path in want:
        # entries that cancel to far below their array's scale are judged at it
        np.testing.assert_allclose(got[path], want[path], rtol=1e-10,
                                   atol=1e-12 * np.abs(want[path]).max(), err_msg=path)
    if invisible:  # frames with no usable joints add exactly 0
        assert got_means["motion"] == got_means["proj"] == 0.0


def test_a_segment_whose_windows_hold_two_calibration_objects_is_refused(tiny):
    cfg, data = tiny
    batch = overlapping_batch(data)
    last = batch[-1]
    fs = last.frames[-1]  # held by the last window only
    other = dataclasses.replace(fs.model_input, calib=dataclasses.replace(fs.model_input.calib))
    batch[-1] = dataclasses.replace(last, frames=[*last.frames[:-1], dataclasses.replace(
        fs, model_input=other)])
    model, store = build_model(cfg.model_config(), 7)
    with pytest.raises(ContractError, match="one calibration"):
        batch_gradients(model, store, data, batch, LossWeights(), cfg.bone_samples)


def test_overfit_repeats_the_first_segment_of_the_first_track(tiny, monkeypatch):
    cfg, data = tiny
    model, store = build_model(cfg.model_config(), 7)
    trainer = Trainer(cfg, data, model, store)
    track = (trainer.train_samples[0].sequence_name, trainer.train_samples[0].track_id)
    run = [s for s in trainer.train_samples if (s.sequence_name, s.track_id) == track]
    rest = [s for s in trainer.train_samples if (s.sequence_name, s.track_id) != track]
    assert len(run) >= cfg.batch_size and rest
    # a run shorter than batch_size gives the whole run and never a window of another track
    trainer.train_samples = run[:cfg.batch_size - 1] + rest
    seen = []
    monkeypatch.setattr(trainer, "_step", lambda batch: seen.append(batch) or {"total": 0.0})
    overfit(trainer, 2)
    assert seen == [run[:cfg.batch_size - 1]] * 2
    trainer.train_samples = run
    seen.clear()
    overfit(trainer, 1)
    assert seen == [run[:cfg.batch_size]]


def test_each_frame_encoded_twice_and_the_batch_run_through_the_temporal_part_once(
        tiny, monkeypatch):
    cfg, data = tiny
    model, store = build_model(cfg.model_config(), 7)
    calls = {"fuse_frame": 0, "forward": 0, "__call__": 0}

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(FusionPoseModel, "fuse_frame")
    counted(FusionPoseModel, "forward")
    counted(TemporalEstimator, "__call__")
    batch = overlapping_batch(data)
    batch_gradients(model, store, data, batch, LossWeights(), cfg.bone_samples)
    distinct = {id(fs) for s in batch for fs in s.frames}
    assert len(distinct) == cfg.window + len(batch) - 1
    assert calls == {"fuse_frame": 2 * len(distinct), "forward": 0, "__call__": 1}


def test_epoch_batches_are_shuffled_track_segments(tiny):
    cfg, data = tiny
    model, store = build_model(cfg.model_config(), 1)
    trainer = Trainer(cfg, data, model, store)
    samples = trainer.train_samples
    position = {id(s): i for i, s in enumerate(samples)}
    borders, in_order = set(), []
    for epoch in range(6):
        batches = trainer.epoch_batches(epoch)
        seen = sorted(position[id(s)] for b in batches for s in b)
        assert seen == list(range(len(samples)))
        for b in batches:
            assert 1 <= len(b) <= cfg.batch_size
            assert len({(s.sequence_name, s.track_id) for s in b}) == 1
            first = position[id(b[0])]
            assert [position[id(s)] for s in b] == list(range(first, first + len(b)))
            assert [s.start_frame for s in b] == sorted(s.start_frame for s in b)
        heads = [position[id(b[0])] for b in batches]
        borders.add(frozenset(heads))
        in_order.append(heads == sorted(heads))
        again = Trainer(cfg, data, *build_model(cfg.model_config(), 2))
        assert ([[id(s) for s in b] for b in again.epoch_batches(epoch)]
                == [[id(s) for s in b] for b in batches])
    assert len(borders) > 1  # the first cut moves between epochs
    assert not all(in_order)  # and the segments are shuffled


def test_epoch_batches_cut_each_run_at_its_drawn_offset(tiny):
    """Each run's first segment holds the epoch's draw for it (``batch_size``
    for a 0), every later segment but the last ``batch_size``, and every
    window is trained once."""
    cfg, data = tiny
    trainer = Trainer(cfg, data, *build_model(cfg.model_config(), 1))
    bs = cfg.batch_size
    samples = trainer.train_samples
    position = {id(s): i for i, s in enumerate(samples)}
    runs = [[position[id(s)] for s in run] for _, run in itertools.groupby(
        samples, key=lambda s: (s.sequence_name, s.track_id))]
    assert max(len(run) for run in runs) > bs
    zero_draws = 0
    for epoch in range(8):
        rng = np.random.Generator(np.random.PCG64(child_seed(cfg.seed, 400, epoch)))
        draws = [int(rng.integers(bs)) for _ in runs]
        zero_draws += draws.count(0)
        segments = sorted([position[id(s)] for s in b] for b in trainer.epoch_batches(epoch))
        assert [i for seg in segments for i in seg] == list(range(len(samples)))
        for run, draw in zip(runs, draws):
            sizes = [len(seg) for seg in segments if seg[0] in run]
            assert sizes[0] == min(draw or bs, len(run))
            assert sizes[1:-1] == [bs] * len(sizes[1:-1])
            assert 1 <= sizes[-1] <= bs
    assert zero_draws > 0


def test_epoch_loss_is_the_window_weighted_mean(tiny, monkeypatch):
    cfg, data = tiny
    model, store = build_model(cfg.model_config(), 5)
    trainer = Trainer(cfg, data, model, store)
    one, three = data.samples[:1], overlapping_batch(data, 3)
    monkeypatch.setattr(trainer, "epoch_batches", lambda epoch: [one, three])
    step, seen = trainer._step, []

    def recording_step(batch, *args):
        seen.append(step(batch, *args))
        return seen[-1]

    monkeypatch.setattr(trainer, "_step", recording_step)
    row = trainer.run_epoch(0)
    assert len(seen) == 2
    for name in (*LOSS_NAMES, "total"):
        assert row[name] == (seen[0][name] * 1 + seen[1][name] * 3) / 4


def test_window_stride_4_trains(tiny):
    _, data = tiny
    cfg = parse_config_text(TINY_CFG + "train.window_stride = 4\n")
    model, store = build_model(cfg.model_config(), 4)
    before = {p: t.data.copy() for p, t in store.items()}
    trainer = Trainer(cfg, data, model, store)
    assert [s.start_frame % 4 for s in trainer.train_samples] == \
        [0] * len(trainer.train_samples)
    rows = trainer.train(checkpoint_dir=None, epochs=2)
    assert len(rows) == 2 and all(np.isfinite(r["total"]) for r in rows)
    assert trainer.state.step == sum(len(trainer.epoch_batches(e)) for e in range(2))
    assert any(np.abs(t.data - before[p]).max() > 0 for p, t in store.items())


def test_a_training_step_leaves_the_stored_inputs_untouched(tiny):
    cfg, data = tiny
    model, store = build_model(cfg.model_config(), seed=cfg.seed)
    batch = overlapping_batch(data)
    inputs = [fs.model_input for s in batch for fs in s.frames]
    before = [(mf.points.tobytes(), mf.raster.tobytes(), mf.box_center.tobytes())
              for mf in inputs]
    batch_gradients(model, store, data, batch, LossWeights(), cfg.bone_samples)
    assert [(mf.points.tobytes(), mf.raster.tobytes(), mf.box_center.tobytes())
            for mf in inputs] == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        inputs[0].points = inputs[0].points + 1.0


def test_segment_batch_gradients_are_deterministic(tiny):
    cfg, data = tiny
    model, store = build_model(cfg.model_config(), 9)
    batch = overlapping_batch(data)
    args = (model, store, data, batch, LossWeights(), cfg.bone_samples)
    first, _ = batch_gradients(*args)
    second, _ = batch_gradients(*args)
    for path in first:
        np.testing.assert_array_equal(first[path], second[path])


def reference_sweep(tape, loss, wrt):
    """Reference: the strict reverse sweep keeping every node's gradient,
    read back for the leaves in ``wrt``."""
    grads = [None] * len(tape._parents)
    grads[loss.node_id] = np.ones_like(loss.data)
    for nid in range(loss.node_id, -1, -1):
        g = grads[nid]
        if g is None:
            continue
        for pid, vjp in tape._parents[nid]:
            contrib = vjp(g)
            grads[pid] = contrib if grads[pid] is None else grads[pid] + contrib
    nodes = {key: tape._leaves[id(t)][0] for key, t in wrt.items()
             if id(t) in tape._leaves}
    return {key: grads[nid] for key, nid in nodes.items() if grads[nid] is not None}


def test_segment_tape_backward_is_bit_identical_to_the_reference_sweep(
        tiny, monkeypatch):
    cfg, data = tiny
    model, store = build_model(cfg.model_config(), 7)
    original, seen = ad.backward, []

    def checked(tape, loss, wrt):
        got = original(tape, loss, wrt)
        if not seen:  # the segment tape; the encoder tapes follow it
            seen.append((got, reference_sweep(tape, loss, wrt), list(wrt)))
        return got
    monkeypatch.setattr(ad, "backward", checked)
    batch_gradients(model, store, data, overlapping_batch(data), LossWeights(),
                    cfg.bone_samples)
    got, want, keys = seen[0]
    assert list(got) == list(want)
    # every pooled leaf (int key) reaches the loss; no encoder parameter does
    assert [k for k in keys if isinstance(k, int)] == [k for k in got if isinstance(k, int)]
    assert all(k.startswith("temporal.") for k in got if isinstance(k, str))
    for key in want:
        assert got[key].shape == want[key].shape
        assert got[key].tobytes() == want[key].tobytes(), key


# -- the frame worker ---------------------------------------------------------


@pytest.fixture
def two_cores(monkeypatch):
    """Train with a forked worker whatever the host's CPU count."""
    monkeypatch.setattr(train, "_second_core", lambda: True)


def assert_byte_equal(got, want):
    """Gradients and loss terms with the same keys and the same bits."""
    (grads, means), (want_grads, want_means) = got, want
    assert list(grads) == list(want_grads)
    for path in want_grads:
        assert grads[path].tobytes() == want_grads[path].tobytes(), path
    assert {k: repr(v) for k, v in means.items()} == {k: repr(v) for k, v in want_means.items()}


@pytest.mark.parametrize("fusion", ["ipa", "point_rgb"])
def test_a_worker_leaves_the_gradients_byte_equal(tiny, fusion):
    """Over two steps with other parameters in between, so the worker reads
    each step's parameters and reuses its slots."""
    cfg, data = tiny
    model, store = build_model(dataclasses.replace(cfg.model_config(), fusion=fusion), 7)
    args = (model, store, data, overlapping_batch(data), LossWeights(), cfg.bone_samples)
    worker = FrameWorker(model, store, data)
    try:
        for _ in range(2):
            want = batch_gradients(*args)
            assert_byte_equal(batch_gradients(*args, worker), want)
            for _, tensor in store.items():
                tensor.data = tensor.data * 0.9 + 0.01
    finally:
        worker.close()
    grads = want[0]
    encoders = [p for p in store.paths() if p.startswith(("point.", "image.", "fuse"))]
    # under point_rgb no frame reaches image.*, so no slot carries it
    unreached = [p for p in encoders if not grads[p].any()]
    assert unreached == ([p for p in encoders if p.startswith("image.")]
                         if fusion == "point_rgb" else [])
    assert not multiprocessing.active_children()


def test_worker_gradients_do_not_depend_on_timing(tiny, monkeypatch):
    """A parent slow to add gradients still adds each worker frame's own:
    the worker writes a slot again only once its last gradients are added."""
    cfg, data = tiny
    model, store = build_model(cfg.model_config(), 7)
    batch = overlapping_batch(data)
    args = (model, store, data, batch, LossWeights(), cfg.bone_samples)
    assert len({id(fs) for s in batch for fs in s.frames}) // 2 >= 3  # a slot is reused
    want = batch_gradients(*args)
    add = train._add
    monkeypatch.setattr(train, "_add",
                        lambda grads, parts: time.sleep(0.05) or add(grads, parts))
    worker = FrameWorker(model, store, data)
    try:
        got = batch_gradients(*args, worker)
    finally:
        worker.close()
    assert_byte_equal(got, want)


def test_a_worker_error_raised_while_the_parent_hands_back_a_slot_is_its_own(
        tiny, monkeypatch):
    """The worker fails on its second frame and ends; the parent, slow to
    hand back the first frame's slot, finds the pipe closed on sending and
    raises the worker's exception, not a report that the worker stopped."""
    cfg, data = tiny
    model, store = build_model(cfg.model_config(), 7)
    args = (model, store, data, overlapping_batch(data), LossWeights(), cfg.bone_samples)
    parent, calls = os.getpid(), []
    frame_gradients, release = train._frame_gradients, FrameWorker.release

    def failing(*args):
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("worker frame 2 failed")
        return frame_gradients(*args)

    monkeypatch.setattr(train, "_frame_gradients", failing)
    monkeypatch.setattr(FrameWorker, "release",
                        lambda self: time.sleep(0.3) or release(self))
    worker = FrameWorker(model, store, data)
    try:
        with pytest.raises(ValueError, match="worker frame 2 failed"):
            batch_gradients(*args, worker)
    finally:
        worker.close()
    assert worker.process.exitcode == 0


def test_objects_at_the_fork_stay_out_of_collections_until_close(tiny, monkeypatch):
    cfg, data = tiny
    model, store = build_model(cfg.model_config(), 7)
    worker = FrameWorker(model, store, data)
    try:
        assert gc.get_freeze_count() > 0
    finally:
        worker.close()
    assert gc.get_freeze_count() == 0

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(OSError):
        FrameWorker(model, store, data)
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("start", ["fork", "failed fork"])
def test_training_with_a_worker_writes_the_same_checkpoint(tiny, tmp_path, monkeypatch,
                                                          caplog, start):
    """With a worker, or in one process when the fork fails."""
    cfg, data = tiny

    def checkpoint(name):
        model, store = build_model(cfg.model_config(), cfg.seed)
        Trainer(cfg, data, model, store).train(tmp_path / name, epochs=1)
        return (tmp_path / name / "epoch_000.fpck").read_bytes()

    monkeypatch.setattr(train, "_second_core", lambda: False)
    serial = checkpoint("serial")
    monkeypatch.setattr(train, "_second_core", lambda: True)
    if start == "failed fork":
        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_fork)
    received, pooled = [], FrameWorker.pooled
    monkeypatch.setattr(FrameWorker, "pooled",
                        lambda self: received.append(1) or pooled(self))
    with caplog.at_level(logging.WARNING, logger="fusionpose.train"):
        assert checkpoint(start) == serial
    assert bool(received) == (start == "fork")
    assert ("cannot fork a worker" in caplog.text) == (start == "failed fork")
    assert not multiprocessing.active_children()


def test_no_worker_outlives_a_training_that_raises_mid_step(tiny, monkeypatch, two_cores):
    cfg, data = tiny
    parent, calls = os.getpid(), []
    frame_gradients = train._frame_gradients

    def failing(*args):
        if os.getpid() == parent:  # the worker runs on
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("phase 3 failed")
        return frame_gradients(*args)

    monkeypatch.setattr(train, "_frame_gradients", failing)
    workers, fork_worker = [], train.fork_worker
    monkeypatch.setattr(train, "fork_worker",
                        lambda *args: workers.append(fork_worker(*args)) or workers[-1])
    trainer = Trainer(cfg, data, *build_model(cfg.model_config(), 2))
    with pytest.raises(RuntimeError, match="phase 3 failed"):
        trainer.train(checkpoint_dir=None, epochs=1)
    assert not multiprocessing.active_children()
    assert workers[0].process.exitcode == 0  # it ended at the closed pipe, unkilled


def test_a_ground_truth_read_in_the_worker_faults_in_the_parent(tiny, monkeypatch,
                                                               two_cores):
    cfg, data = tiny
    parent, encode = os.getpid(), FusionPoseModel.encode

    def peeking(self, frame):
        if os.getpid() != parent:
            data.samples[0].frames[0].gt_pose3d
        return encode(self, frame)

    monkeypatch.setattr(FusionPoseModel, "encode", peeking)
    trainer = Trainer(cfg, data, *build_model(cfg.model_config(), 2))
    with pytest.raises(ContractError, match="ground-truth 3D pose"):
        trainer.train(checkpoint_dir=None, epochs=1)
    assert trainer.state.step == 0
    assert not multiprocessing.active_children()
