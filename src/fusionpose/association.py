"""Cross-modal detection pairing and frame-to-frame instance tracking.

2D and 3D detections of the same person are paired by projecting the 3D
box corners into the image and matching rectangles with minimum-cost
assignment (cost 1 - IoU). Tracking then links paired detections across
frames on 3D center distance. Both use the same assignment solver,
`hungarian`: one solve of an in-house port of the rectangular
shortest-augmenting-path algorithm (Crouse, "On implementing 2D
rectangular assignment algorithms", IEEE TAES 2016) that scipy's
``linear_sum_assignment`` runs, so numpy is the only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .geometry import Calibration, Pose2D, project, rot_z


@dataclass(frozen=True)
class Detection2D:
    """Image-space person box (u_min, v_min, u_max, v_max)."""

    box: tuple[float, float, float, float]

    def __post_init__(self):
        u0, v0, u1, v1 = self.box
        if not (u0 < u1 and v0 < v1):
            raise InvalidInputError(f"degenerate 2D box {self.box}")


@dataclass(frozen=True)
class Detection3D:
    """World-space person box: center, size (meters), yaw (radians)."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float = 0.0

    def __post_init__(self):
        if any(s <= 0 for s in self.size):
            raise InvalidInputError(f"3D box size must be positive, got {self.size}")

    def corners(self) -> np.ndarray:
        signs = np.array([[i, j, k] for i in (-1, 1) for j in (-1, 1) for k in (-1, 1)],
                         dtype=np.float64)
        local = signs * np.array(self.size) / 2.0
        return local @ rot_z(self.yaw).T + np.array(self.center)


def _min_cost_columns(cost: list[list[float]]) -> list[int]:
    """The column each row takes in a min-cost assignment, -1 for none.

    A port of scipy's ``linear_sum_assignment`` (Crouse 2016): one
    shortest augmenting path per row over reduced costs, then the dual
    updates, on a matrix with no more rows than columns (a taller one is
    solved transposed). Ties resolve exactly as in scipy because every
    step is kept: the reduced cost is summed in the same order, the pivot
    is the lowest reduced cost with an unassigned column winning a tie,
    and the unvisited columns are scanned from the last one down, a
    visited column being replaced by the last one in the list.
    """
    n_rows = len(cost)
    n_cols = len(cost[0]) if n_rows else 0
    if n_cols == 0:
        return [-1] * n_rows
    if n_cols < n_rows:
        col4row = [-1] * n_rows
        for j, i in enumerate(_min_cost_columns([list(c) for c in zip(*cost)])):
            col4row[i] = j
        return col4row
    u, v = [0.0] * n_rows, [0.0] * n_cols
    path, row4col, col4row = [-1] * n_cols, [-1] * n_cols, [-1] * n_rows
    for cur in range(n_rows):
        shortest = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_rows, seen_cols = [], []
        min_val, i, sink = 0.0, cur, -1
        while sink < 0:
            seen_rows.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    index, lowest = it, shortest[j]
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def hungarian(cost) -> list[tuple[int, int]]:
    """Globally optimal min-cost assignment of rows to columns.

    Returns the min(m, n) assigned (row, col) pairs in row order. Among
    equal-cost optima the result is the one `_min_cost_columns` picks,
    which is scipy's ``linear_sum_assignment`` choice, so degenerate
    cost matrices still give one fixed answer. One solve, O(k^3) in the
    worst case for a k x k matrix.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    if cost.ndim != 2:
        raise InvalidInputError(f"cost matrix must be 2D, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise InvalidInputError("cost matrix contains non-finite entries")
    return [(i, j) for i, j in enumerate(_min_cost_columns(cost.tolist())) if j >= 0]


def _rect_iou(a: tuple[float, float, float, float],
              b: tuple[float, float, float, float]) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def projected_rect(det: Detection3D, calib: Calibration) -> tuple[float, float, float, float] | None:
    """Axis-aligned pixel rectangle of the projected 3D box corners.

    Corners behind the camera are dropped; None when every corner is
    behind (the box cannot participate in image-space matching).
    """
    pixels, valid = project(det.corners(), calib)
    if not valid.any():
        return None
    pix = pixels[valid]
    u0, v0 = pix.min(axis=0)
    u1, v1 = pix.max(axis=0)
    if not (u0 < u1 and v0 < v1):
        return None
    return (float(u0), float(v0), float(u1), float(v1))


def pair_2d_3d(dets2d: list[Detection2D], dets3d: list[Detection3D],
               calib: Calibration, iou_threshold: float = 0.3):
    """Match 2D and 3D detections of the same people.

    Returns (pairs, unmatched2d, unmatched3d) where pairs are
    (index2d, index3d) tuples. Pairs whose projected-rectangle IoU falls
    below the threshold are rejected.
    """
    rects = [projected_rect(d, calib) for d in dets3d]
    usable = [i for i, r in enumerate(rects) if r is not None]
    if not dets2d or not usable:
        return [], list(range(len(dets2d))), list(range(len(dets3d)))

    iou = np.zeros((len(dets2d), len(usable)))
    for i, d2 in enumerate(dets2d):
        for j, k3 in enumerate(usable):
            iou[i, j] = _rect_iou(d2.box, rects[k3])
    assignment = hungarian(1.0 - iou)
    pairs = [(i, usable[j]) for i, j in assignment if iou[i, j] >= iou_threshold]
    matched2d = {i for i, _ in pairs}
    matched3d = {j for _, j in pairs}
    unmatched2d = [i for i in range(len(dets2d)) if i not in matched2d]
    unmatched3d = [j for j in range(len(dets3d)) if j not in matched3d]
    return pairs, unmatched2d, unmatched3d


@dataclass
class PairedObservation:
    """One person seen in both modalities in one frame.

    ``kp2d`` rides with the 2D detection (they come from the same image
    pipeline); ``person_index`` records which stored person produced the
    3D detection, which is what evaluation compares against.
    """

    det2d: Detection2D
    det3d: Detection3D
    person_index: int = -1
    kp2d: Pose2D | None = None


@dataclass
class Track:
    """A tracked person instance across consecutive frames.

    ``history[i]`` holds the observation at frame ``start_frame + i`` or
    None for a miss, so indices stay contiguous.
    """

    track_id: int
    start_frame: int
    history: list[PairedObservation | None] = field(default_factory=list)
    misses: int = 0
    retired: bool = False

    def last_center(self) -> np.ndarray:
        for obs in reversed(self.history):
            if obs is not None:
                return np.asarray(obs.det3d.center, dtype=np.float64)
        raise InvalidInputError("track has no observations")


class InstanceTracker:
    """Greedy-free frame-to-frame tracker over paired detections.

    Cost is Euclidean distance between 3D box centers, solved with
    `hungarian` (Crouse's shortest-augmenting-path solver, which breaks
    ties as scipy does) and gated; unmatched observations spawn
    tracks and tracks unseen for more than ``max_misses`` frames retire.
    ``step`` must be called once per frame in order.
    """

    def __init__(self, gate_distance: float = 1.0, max_misses: int = 3):
        self.gate_distance = gate_distance
        self.max_misses = max_misses
        self.tracks: list[Track] = []
        self._next_id = 0
        self._frame = 0

    def _active(self) -> list[Track]:
        return [t for t in self.tracks if not t.retired]

    def step(self, observations: list[PairedObservation]) -> None:
        active = self._active()
        if active and observations:
            cost = np.zeros((len(active), len(observations)))
            for i, track in enumerate(active):
                tc = track.last_center()
                for j, obs in enumerate(observations):
                    cost[i, j] = float(np.linalg.norm(tc - np.asarray(obs.det3d.center)))
            assignment = hungarian(cost)
            assignment = [(i, j) for i, j in assignment if cost[i, j] <= self.gate_distance]
        else:
            assignment = []

        matched_tracks = {i for i, _ in assignment}
        matched_obs = {j for _, j in assignment}
        for i, j in assignment:
            track = active[i]
            track.history.append(observations[j])
            track.misses = 0
        for i, track in enumerate(active):
            if i in matched_tracks:
                continue
            track.history.append(None)
            track.misses += 1
            if track.misses > self.max_misses:
                track.retired = True
        for j, obs in enumerate(observations):
            if j in matched_obs:
                continue
            self.tracks.append(Track(self._next_id, self._frame, [obs]))
            self._next_id += 1
        self._frame += 1


@dataclass(frozen=True)
class SequenceWindow:
    """T consecutive frames of one track with both modalities present."""

    track_id: int
    start_frame: int
    observations: tuple[PairedObservation, ...]


def build_sequences(tracks: list[Track], window: int = 4) -> list[SequenceWindow]:
    """Stride-1 sliding windows of fully observed frames per track."""
    out: list[SequenceWindow] = []
    for track in tracks:
        hist = track.history
        for i in range(len(hist) - window + 1):
            chunk = hist[i : i + window]
            if all(obs is not None for obs in chunk):
                out.append(SequenceWindow(track.track_id, track.start_frame + i, tuple(chunk)))
    return out
