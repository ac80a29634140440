import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionpose.association import (Detection2D, Detection3D, InstanceTracker,
                                    PairedObservation, Track, _min_cost_columns,
                                    build_sequences, hungarian, pair_2d_3d,
                                    projected_rect)
from fusionpose.errors import InvalidInputError
from fusionpose.synthdata.generate import default_calibration


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Exhaustive optimal assignment total (independent oracle)."""
    m, n = cost.shape
    best = math.inf
    if m <= n:
        for perm in itertools.permutations(range(n), m):
            best = min(best, math.fsum(cost[i, perm[i]] for i in range(m)))
    else:
        for perm in itertools.permutations(range(m), n):
            best = min(best, math.fsum(cost[perm[j], j] for j in range(n)))
    return best


# -- hungarian ------------------------------------------------------------------


def test_hungarian_two_by_two():
    assert hungarian([[1.0, 2.0], [2.0, 1.0]]) == [(0, 0), (1, 1)]


def test_hungarian_single_row():
    assert hungarian(np.array([[5.0, 1.0, 9.0]])) == [(0, 1)]


def test_hungarian_empty_matrix():
    assert hungarian(np.zeros((0, 0))) == []
    assert hungarian(np.zeros((0, 3))) == []


def test_hungarian_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        hungarian(np.array([[1.0, np.inf]]))


def test_hungarian_tie_break_is_lexicographic():
    assert hungarian(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]
    # both diagonals optimal; the solver, like scipy, takes (0, 0) first
    assert hungarian(np.array([[1.0, 1.0], [1.0, 1.0]])) == [(0, 0), (1, 1)]
    # forced anti-diagonal
    assert hungarian(np.array([[2.0, 1.0], [1.0, 2.0]])) == [(0, 1), (1, 0)]


def test_hungarian_rectangular_rows_exceed_cols():
    cost = np.array([[9.0], [1.0], [5.0]])
    assert hungarian(cost) == [(1, 0)]


def test_hungarian_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(0)
    for trial in range(60):
        m, n = rng.integers(1, 7, size=2)
        cost = rng.uniform(0, 10, size=(m, n))
        pairs = hungarian(cost)
        total = math.fsum(float(cost[r, c]) for r, c in pairs)
        assert total == brute_force_min_cost(cost), (m, n, trial)


def test_hungarian_matches_brute_force_on_integer_ties():
    rng = np.random.default_rng(1)
    for _ in range(40):
        cost = rng.integers(0, 3, size=(5, 5)).astype(float)
        pairs = hungarian(cost)
        total = math.fsum(float(cost[r, c]) for r, c in pairs)
        assert total == brute_force_min_cost(cost)


def test_hungarian_assignment_invariant_under_constant_shift():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cost = rng.uniform(0, 5, size=(4, 4))
        assert hungarian(cost) == hungarian(cost + 17.25)


# 0.1-step matrices whose optima sum to totals that differ in the last bit;
# the one solve still places row 0 and returns scipy's pairs.
NEAR_TIES = [
    ([[0.9, 1.9, 1.7, 1.9, 1.0], [1.3, 1.0, 0.9, 0.8, 1.1], [1.2, 0.8, 1.2, 1.3, 1.5],
      [0.3, 0.1, 0.6, 0.4, 1.0], [1.9, 1.7, 0.5, 1.0, 0.3]],
     [(0, 0), (1, 2), (2, 1), (3, 3), (4, 4)]),
    # rows outnumber columns, yet every optimum uses row 0: dropping it
    # leaves a best total of 3.1 against the optimum 2.3
    ([[0.8, 0.9, 0.3, 1.1, 1.5, 0.0], [1.9, 1.6, 1.5, 1.7, 1.0, 0.8],
      [1.8, 1.0, 0.8, 0.0, 1.9, 1.6], [1.2, 1.3, 1.2, 0.3, 1.9, 1.7],
      [1.5, 0.1, 1.8, 0.1, 1.7, 0.3], [1.6, 0.0, 0.1, 1.4, 0.0, 1.5],
      [1.1, 1.9, 1.0, 0.9, 0.9, 1.5]],
     [(0, 5), (2, 3), (3, 0), (4, 1), (5, 4), (6, 2)]),
]


@pytest.mark.parametrize("cost, expected", NEAR_TIES)
def test_hungarian_places_the_row_the_optimum_uses_on_near_ties(cost, expected):
    pairs = hungarian(cost)
    assert pairs == expected
    total = math.fsum(cost[r][c] for r, c in pairs)
    assert abs(total - brute_force_min_cost(np.array(cost))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(tenths=st.integers(4, 7).flatmap(lambda m: st.integers(4, 7).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 20), min_size=n, max_size=n),
                       min_size=m, max_size=m))))
@example(tenths=[[9, 19, 17, 19, 10], [13, 10, 9, 8, 11], [12, 8, 12, 13, 15],
                 [3, 1, 6, 4, 10], [19, 17, 5, 10, 3]])
@example(tenths=[[8, 9, 3, 11, 15, 0], [19, 16, 15, 17, 10, 8], [18, 10, 8, 0, 19, 16],
                 [12, 13, 12, 3, 19, 17], [15, 1, 18, 1, 17, 3], [16, 0, 1, 14, 0, 15],
                 [11, 19, 10, 9, 9, 15]])
def test_hungarian_on_decimal_matrices_is_a_full_optimal_matching(tenths):
    cost = np.array(tenths) / 10.0
    pairs = hungarian(cost)
    k = min(cost.shape)
    assert len(pairs) == k
    assert len({r for r, _ in pairs}) == k and len({c for _, c in pairs}) == k
    total = math.fsum(float(cost[r, c]) for r, c in pairs)
    assert abs(total - brute_force_min_cost(cost)) <= 1e-12


def scipy_cases(rng, trials, low, high):
    """Uniform, integer-tie and 0.1-step matrices of m, n in [low, high]."""
    for trial in range(trials):
        m, n = (int(x) for x in rng.integers(low, high + 1, size=2))
        if trial % 3 == 0:
            yield rng.uniform(0, 10, size=(m, n))
        elif trial % 3 == 1:
            yield rng.integers(0, 3, size=(m, n)).astype(float)
        else:
            yield np.round(rng.uniform(0, 2, size=(m, n)), 1)


def test_min_cost_columns_match_scipy():
    """The solver takes scipy's column for every row, ties included, and
    `hungarian` returns scipy's pairs. Sizes up to 60 make a solve that
    scales worse than O(k^3) slow enough to notice."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(5)
    cases = itertools.chain(scipy_cases(rng, 900, 1, 7), scipy_cases(rng, 60, 8, 60))
    for cost in cases:
        rows, cols = optimize.linear_sum_assignment(cost)
        expected = [-1] * len(cost)
        for r, c in zip(rows, cols):
            expected[r] = int(c)
        assert _min_cost_columns(cost.tolist()) == expected, cost.tolist()
        assert hungarian(cost) == [(int(r), int(c)) for r, c in zip(rows, cols)]


# -- pair_2d_3d -----------------------------------------------------------------


def box3d_at(x, y, z=0.9, size=(0.6, 0.6, 1.8)):
    return Detection3D((x, y, z), size)


def test_pair_exact_projection_matches_with_full_iou():
    calib = default_calibration(96, 96)
    det3 = box3d_at(6.0, 0.0)
    rect = projected_rect(det3, calib)
    pairs, un2, un3 = pair_2d_3d([Detection2D(rect)], [det3], calib)
    assert pairs == [(0, 0)] and not un2 and not un3


def test_pair_disjoint_boxes_do_not_match():
    calib = default_calibration(96, 96)
    det3 = box3d_at(6.0, 0.0)
    far = Detection2D((0.0, 0.0, 4.0, 4.0))
    pairs, un2, un3 = pair_2d_3d([far], [det3], calib)
    assert pairs == [] and un2 == [0] and un3 == [0]


def test_pair_excludes_boxes_behind_camera():
    calib = default_calibration(96, 96)
    behind = box3d_at(-6.0, 0.0)
    visible = box3d_at(6.0, 0.0)
    rect = projected_rect(visible, calib)
    pairs, un2, un3 = pair_2d_3d([Detection2D(rect)], [behind, visible], calib)
    assert pairs == [(0, 1)]
    assert un3 == [0]


def test_pair_recovers_correspondence_under_jitter():
    calib = default_calibration(96, 96)
    rng = np.random.default_rng(3)
    dets3 = [box3d_at(5.5, -1.5), box3d_at(7.0, 0.5), box3d_at(8.5, 1.8)]
    for trial in range(20):
        dets2, order = [], rng.permutation(3)
        for i in order:
            u0, v0, u1, v1 = projected_rect(dets3[i], calib)
            jit = rng.normal(0, 1.0, size=4)
            dets2.append(Detection2D((u0 + jit[0], v0 + jit[1],
                                      u1 + jit[2], v1 + jit[3])))
        pairs, _, _ = pair_2d_3d(dets2, dets3, calib)
        assert len(pairs) == 3
        for i2, i3 in pairs:
            assert order[i2] == i3


def test_pair_outputs_are_a_matching():
    calib = default_calibration(96, 96)
    dets3 = [box3d_at(6, -1), box3d_at(6, 1)]
    dets2 = [Detection2D(projected_rect(d, calib)) for d in dets3]
    pairs, _, _ = pair_2d_3d(dets2, dets3, calib)
    assert len({i for i, _ in pairs}) == len(pairs)
    assert len({j for _, j in pairs}) == len(pairs)


# -- tracking -------------------------------------------------------------------


def obs_at(x, y, z=0.9, pidx=0):
    return PairedObservation(Detection2D((0, 0, 10, 10)),
                             Detection3D((x, y, z), (0.6, 0.6, 1.8)),
                             person_index=pidx)


def test_single_stationary_detection_keeps_one_track():
    tracker = InstanceTracker()
    for _ in range(5):
        tracker.step([obs_at(5.0, 0.0)])
    assert len(tracker.tracks) == 1
    track = tracker.tracks[0]
    assert track.track_id == 0
    assert len(track.history) == 5 and track.misses == 0


def test_two_far_apart_persons_never_swap():
    tracker = InstanceTracker(gate_distance=1.0)
    for step in range(30):
        a = obs_at(5.0 + 0.1 * step, 0.0, pidx=0)
        b = obs_at(5.0 + 0.1 * step, 5.0, pidx=1)
        tracker.step([b, a] if step % 2 else [a, b])  # input order shuffles
    assert len(tracker.tracks) == 2
    for track in tracker.tracks:
        owners = {o.person_index for o in track.history if o is not None}
        assert len(owners) == 1


def test_crossing_trajectories_match_brute_force_assignment():
    def brute(costs):
        m, n = costs.shape
        best, arg = math.inf, None
        for perm in itertools.permutations(range(n), min(m, n)):
            total = math.fsum(costs[i, perm[i]] for i in range(min(m, n)))
            if total < best:
                best, arg = total, perm
        return best

    tracker = InstanceTracker(gate_distance=2.0)
    tracker.step([obs_at(5.0, -1.0, pidx=0), obs_at(5.0, 1.0, pidx=1)])
    for step in range(1, 11):
        ya = -1.0 + 0.2 * step
        yb = 1.0 - 0.2 * step
        obs = [obs_at(5.0, ya, pidx=0), obs_at(5.0, yb, pidx=1)]
        active = [t for t in tracker.tracks if not t.retired]
        costs = np.array([[np.linalg.norm(t.last_center() - np.asarray(o.det3d.center))
                           for o in obs] for t in active])
        expected = brute(costs)
        tracker.step(obs)
        matched = [(i, j) for i, t in enumerate(active)
                   for j, o in enumerate(obs) if t.history[-1] is o]
        got = math.fsum(costs[i, j] for i, j in matched)
        assert got == pytest.approx(expected, abs=1e-12)


def test_track_ids_are_never_reused():
    tracker = InstanceTracker(max_misses=0)
    seen = set()
    for step in range(6):
        tracker.step([obs_at(5.0 + 10 * step, 0.0)] if step % 2 == 0 else [])
        for t in tracker.tracks:
            seen.add(t.track_id)
    ids = [t.track_id for t in tracker.tracks]
    assert len(ids) == len(set(ids)) == 3


def test_tracks_retire_after_max_misses():
    tracker = InstanceTracker(max_misses=3)
    tracker.step([obs_at(5, 0)])
    for _ in range(3):
        tracker.step([])
    assert not tracker.tracks[0].retired
    seen = obs_at(5, 0)
    tracker.step([seen])
    assert len(tracker.tracks) == 1 and tracker.tracks[0].history[-1] is seen
    for _ in range(4):
        tracker.step([])
    assert tracker.tracks[0].retired


# -- windows --------------------------------------------------------------------


def track_with_history(history, start=0):
    return Track(track_id=0, start_frame=start, history=list(history))


def test_track_present_four_frames_gives_one_window():
    o = obs_at(5, 0)
    windows = build_sequences([track_with_history([o, o, o, o])], window=4)
    assert len(windows) == 1
    assert windows[0].start_frame == 0


def test_track_present_six_frames_gives_three_windows():
    o = obs_at(5, 0)
    windows = build_sequences([track_with_history([o] * 6)], window=4)
    assert [w.start_frame for w in windows] == [0, 1, 2]


def test_gap_in_history_skips_crossing_windows():
    o = obs_at(5, 0)
    history = [o, o, o, None, o, o]
    windows = build_sequences([track_with_history(history, start=10)], window=4)
    assert windows == []
    history = [o, o, o, o, None, o, o, o, o]
    windows = build_sequences([track_with_history(history, start=10)], window=4)
    assert [w.start_frame for w in windows] == [10, 15]
