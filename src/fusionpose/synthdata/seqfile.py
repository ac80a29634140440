"""Binary sequence file format and manifest handling.

Little-endian layout (extension ``.fpseq``):

    magic "FPSEQ1" | u32 version | u32 frame_count | u16 person_count
    u16 height | u16 width | u8 has_gt
    calibration: fx fy cx cy (f64), rotation row-major (9 f64),
                 translation (3 f64)
    per frame:
        u32 point_count | points xyz (f64)
        raster (f32, height*width*3)
        per person:
            keypoints (21x2 f64) | visibility (21 u8)
            [gt pose 21x3 f64, only when has_gt]
            u8 has_det2d [box (4 f64)]
            u8 has_det3d [center (3 f64) + size (3 f64) + yaw (f64)]

Version 1 files, which also held a person label per point and a score
per 2D detection, are rejected.

A plain-text ``manifest.txt`` in the dataset directory lists sequence
files per split, one ``<split> <filename>`` per line.

Ground-truth poses are only reachable through the access guard; see
:mod:`fusionpose.gtguard`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..association import Detection2D, Detection3D
from ..errors import InvalidInputError
from ..geometry import N_JOINTS, Calibration
from ..gtguard import GT_GUARD

MAGIC = b"FPSEQ1"
VERSION = 2


@dataclass
class PersonFrame:
    """One person's observations in one frame."""

    keypoints_2d: np.ndarray  # (21, 2)
    visibility: np.ndarray  # (21,) bool
    det2d: Detection2D | None = None
    det3d: Detection3D | None = None
    _gt3d: np.ndarray | None = None

    @property
    def gt_pose3d(self) -> np.ndarray | None:
        """Ground-truth 3D joints; every read is counted by the guard."""
        if self._gt3d is not None:
            GT_GUARD.note_access()
        return self._gt3d


@dataclass
class FrameRecord:
    points: np.ndarray  # (m, 3)
    raster: np.ndarray  # (h, w, 3) float32
    persons: list[PersonFrame] = field(default_factory=list)


@dataclass
class SequenceData:
    calibration: Calibration
    frames: list[FrameRecord]
    has_gt: bool

    @property
    def raster_hw(self) -> tuple[int, int]:
        h, w = self.frames[0].raster.shape[:2]
        return h, w

    @property
    def n_persons(self) -> int:
        return len(self.frames[0].persons)


def write_sequence(path: str | Path, data: SequenceData) -> None:
    if not data.frames:
        raise InvalidInputError("cannot write an empty sequence")
    h, w = data.raster_hw
    n_persons = data.n_persons
    calib = data.calibration
    out = bytearray()
    out += MAGIC
    out += struct.pack("<IIHHHB", VERSION, len(data.frames), n_persons, h, w,
                       1 if data.has_gt else 0)
    out += struct.pack("<4d", calib.fx, calib.fy, calib.cx, calib.cy)
    out += calib.rotation.astype("<f8").tobytes()
    out += calib.translation.astype("<f8").tobytes()
    for frame in data.frames:
        pts = np.asarray(frame.points, dtype="<f8")
        out += struct.pack("<I", pts.shape[0])
        out += pts.tobytes()
        raster = np.asarray(frame.raster, dtype="<f4")
        if raster.shape != (h, w, 3):
            raise InvalidInputError(f"raster shape {raster.shape} != {(h, w, 3)}")
        out += raster.tobytes()
        if len(frame.persons) != n_persons:
            raise InvalidInputError("person count varies across frames")
        for person in frame.persons:
            out += np.asarray(person.keypoints_2d, dtype="<f8").tobytes()
            out += np.asarray(person.visibility, dtype="u1").tobytes()
            if data.has_gt:
                if person._gt3d is None:
                    raise InvalidInputError("has_gt sequence with missing GT pose")
                out += np.asarray(person._gt3d, dtype="<f8").tobytes()
            if person.det2d is not None:
                out += struct.pack("<B4d", 1, *person.det2d.box)
            else:
                out += struct.pack("<B", 0)
            if person.det3d is not None:
                out += struct.pack("<B7d", 1, *person.det3d.center,
                                   *person.det3d.size, person.det3d.yaw)
            else:
                out += struct.pack("<B", 0)
    Path(path).write_bytes(bytes(out))


class _Cursor:
    """Sequential reader that raises InvalidInputError past the end."""

    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def _take(self, size: int) -> int:
        if self.pos + size > len(self.blob):
            raise InvalidInputError(
                f"{self.path}: truncated at byte {len(self.blob)} "
                f"(needs {self.pos + size})")
        start = self.pos
        self.pos += size
        return start

    def unpack(self, fmt: str):
        return struct.unpack_from(fmt, self.blob, self._take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int, shape) -> np.ndarray:
        start = self._take(count * np.dtype(dtype).itemsize)
        arr = np.frombuffer(self.blob, dtype=dtype, count=count, offset=start)
        return arr.reshape(shape).copy()


def read_sequence(path: str | Path) -> SequenceData:
    blob = Path(path).read_bytes()
    if blob[: len(MAGIC)] != MAGIC:
        raise InvalidInputError(f"{path}: not a sequence file")
    cur = _Cursor(blob, path)
    cur.pos = len(MAGIC)
    version, n_frames, n_persons, h, w, has_gt = cur.unpack("<IIHHHB")
    if version != VERSION:
        raise InvalidInputError(f"{path}: unsupported version {version} "
                                f"(this program reads version {VERSION}); "
                                "regenerate the dataset with 'fusionpose generate'")
    fx, fy, cx, cy = cur.unpack("<4d")
    rotation = cur.array("<f8", 9, (3, 3))
    translation = cur.array("<f8", 3, (3,))
    calib = Calibration(fx, fy, cx, cy, rotation, translation)
    frames = []
    for _ in range(n_frames):
        (n_pts,) = cur.unpack("<I")
        points = cur.array("<f8", n_pts * 3, (n_pts, 3))
        raster = cur.array("<f4", h * w * 3, (h, w, 3))
        persons = []
        for _ in range(n_persons):
            kp = cur.array("<f8", N_JOINTS * 2, (N_JOINTS, 2))
            vis = cur.array("u1", N_JOINTS, (N_JOINTS,)).astype(bool)
            gt = cur.array("<f8", N_JOINTS * 3, (N_JOINTS, 3)) if has_gt else None
            (flag2d,) = cur.unpack("<B")
            det2d = None
            if flag2d:
                det2d = Detection2D(cur.unpack("<4d"))
            (flag3d,) = cur.unpack("<B")
            det3d = None
            if flag3d:
                vals = cur.unpack("<7d")
                det3d = Detection3D(tuple(vals[:3]), tuple(vals[3:6]), vals[6])
            persons.append(PersonFrame(kp, vis, det2d, det3d, gt))
        frames.append(FrameRecord(points, raster, persons))
    return SequenceData(calib, frames, bool(has_gt))


def write_manifest(dataset_dir: str | Path, files_by_split: dict[str, list[str]]) -> Path:
    lines = []
    for split in sorted(files_by_split):
        for name in files_by_split[split]:
            lines.append(f"{split} {name}")
    path = Path(dataset_dir) / "manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def read_manifest(dataset_dir: str | Path) -> dict[str, list[str]]:
    path = Path(dataset_dir) / "manifest.txt"
    if not path.exists():
        raise InvalidInputError(f"no manifest at {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text") from exc
    out: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split(None, 1)
        if not fields:
            continue
        if len(fields) != 2:
            raise InvalidInputError(f"{path}:{lineno}: expected '<split> <sequence>', "
                                    f"got {raw.strip()!r}")
        split, name = fields
        out.setdefault(split, []).append(name.strip())
    return out
