"""Corrupted `.fpseq` and `.fpck` files: each either reads or raises a
FusionPoseError, never another exception.

A mutation is one byte XORed with a nonzero mask, a splice (a prefix of
the file joined to a suffix taken at another offset, which drops or
repeats a span), or one u32 count field overwritten with any value.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fusionpose.dataio import InstanceDataset
from fusionpose.errors import FusionPoseError
from fusionpose.geometry import N_JOINTS
from fusionpose.model import ModelConfig, build_model
from fusionpose.params import Adam, ParameterStore
from fusionpose.synthdata.generate import (child_seed, default_calibration,
                                           default_scene, generate_dataset)
from fusionpose.synthdata.seqfile import MAGIC, read_sequence
from fusionpose.train import TrainState, load_checkpoint, save_checkpoint

MODEL_CFG = ModelConfig(n_points=16, width=8, image_hw=8, joint_feat_dim=2,
                        head_hidden=4)

MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**31), st.integers(1, 255)),
    st.tuples(st.just("splice"), st.integers(0, 2**31), st.integers(0, 2**31)),
    st.tuples(st.just("count"), st.integers(0, 2**31),
              st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2**31, 2**32 - 1]))),
)

_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutate(blob: bytes, count_offsets: list[int], mutation) -> bytes:
    """Apply one mutation; offsets wrap around the file (or the count list).

    A flip's offset may also be ``(marker, k)``: the k-th byte after the
    first occurrence of ``marker`` in the file.
    """
    kind, where, value = mutation
    if kind == "flip":
        if isinstance(where, tuple):
            marker, k = where
            pos = blob.index(marker.encode()) + k
        else:
            pos = where % len(blob)
        return blob[:pos] + bytes([blob[pos] ^ value]) + blob[pos + 1:]
    if kind == "splice":
        return blob[:where % (len(blob) + 1)] + blob[value % (len(blob) + 1):]
    pos = count_offsets[where % len(count_offsets)]
    return blob[:pos] + struct.pack("<I", value) + blob[pos + 4:]


# -- .fpseq ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_sequence(tmp_path_factory):
    """A generated train split, with the offsets of its u32 counts: the
    version, the frame count and each frame's point count."""
    out = tmp_path_factory.mktemp("seq")
    scene = default_scene(n_persons=2, frames=10, seed=4, raster_h=24, raster_w=24,
                          calibration=default_calibration(24, 24))
    generate_dataset(scene, out)
    path = out / "train_000.fpseq"
    seq = read_sequence(path)
    assert InstanceDataset({path.name: seq}, MODEL_CFG).samples
    blob = path.read_bytes()
    offsets = [len(MAGIC), len(MAGIC) + 4]
    pos = len(MAGIC) + 15 + 16 * 8  # header, then the calibration
    for frame in seq.frames:
        offsets.append(pos)
        pos += 4 + 24 * len(frame.points) + 4 * frame.raster.size
        for person in frame.persons:
            pos += N_JOINTS * (16 + 1 + 24) + 2
            pos += 32 * (person.det2d is not None) + 56 * (person.det3d is not None)
    assert pos == len(blob)
    return blob, offsets


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@_SETTINGS
@given(mutation=MUTATIONS)
def test_mutated_sequence_reads_or_raises_package_error(tiny_sequence, tmp_path, mutation):
    blob, offsets = tiny_sequence
    path = tmp_path / "train_000.fpseq"
    path.write_bytes(mutate(blob, offsets, mutation))
    try:
        InstanceDataset({path.name: read_sequence(path)}, MODEL_CFG)
    except FusionPoseError:
        pass


# -- .fpck -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A checkpoint after one Adam step at epoch 1, with the offsets of its
    u32 counts: the entry count and every entry's dimensions."""
    _, store = build_model(MODEL_CFG, seed=1)
    Adam(store).step({p: np.ones_like(t.data) for p, t in store.items()})
    path = tmp_path_factory.mktemp("ckpt") / "epoch_000.fpck"
    save_checkpoint(store, path, MODEL_CFG, TrainState(epoch=1, step=1, seed=1))
    blob = path.read_bytes()
    offsets = [8]
    pos = 12
    for name, arr in ParameterStore.read_entries(path).items():
        pos += 2 + len(name.encode()) + 1
        offsets += [pos + 4 * i for i in range(arr.ndim)]
        pos += 4 * arr.ndim + 8 * arr.size
    assert pos == len(blob)
    return blob, offsets


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@_SETTINGS
@given(mutation=MUTATIONS)
# __state__.epoch is 1.0: its top byte 0x3f becomes 0x7f (inf), then 0xbf (-1.0)
@example(mutation=("flip", ("__state__.epoch", 23), 0x40))
@example(mutation=("flip", ("__state__.epoch", 23), 0x80))
# one letter of the first Adam moment's parameter path
@example(mutation=("flip", ("__opt__.m.", 10), 0x01))
def test_mutated_checkpoint_loads_or_raises_package_error(tiny_checkpoint, tmp_path, mutation):
    blob, offsets = tiny_checkpoint
    path = tmp_path / "epoch_000.fpck"
    path.write_bytes(mutate(blob, offsets, mutation))
    _, store = build_model(MODEL_CFG, seed=2)
    try:
        ParameterStore.read_entries(path)
        state = load_checkpoint(store, path, MODEL_CFG)
    except FusionPoseError:
        return
    # what a resumed run does first with a loaded checkpoint
    child_seed(state.seed, 400, state.epoch)
    Adam(store).step({p: np.zeros_like(t.data) for p, t in store.items()})
