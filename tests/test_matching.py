from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calibrefine import matching
from calibrefine.geometry import PixelPoint
from calibrefine.matching import MatchGate, greedy_match

from conftest import naive_greedy, point_array


def points(*uv):
    return [PixelPoint(float(u), float(v)) for u, v in uv]


class TestGreedyMatchExamples:
    def test_single_admissible_pair(self):
        out = greedy_match(point_array(points((10, 10))), point_array(points((12, 10))), MatchGate(40.0))
        assert out.matches == ((0, 0, 2.0),)

    def test_two_clean_matches(self):
        out = greedy_match(
            point_array(points((0, 0), (10, 0))), point_array(points((1, 0), (9, 0))), MatchGate(40.0)
        )
        assert {(i, j) for i, j, _ in out.matches} == {(0, 0), (1, 1)}

    def test_tie_goes_to_lower_lidar_index(self):
        # both lidar points are 5 px from camera 0; camera 1 is out of gate
        out = greedy_match(
            point_array(points((0, 0), (10, 0))),
            point_array(points((5, 0), (100, 100))),
            MatchGate(40.0),
        )
        assert out.matches == ((0, 0, 5.0),)

    def test_gate_excludes_everything(self):
        out = greedy_match(point_array(points((0, 0))), point_array(points((100, 100))), MatchGate(40.0))
        assert out.matches == ()

    def test_empty_inputs(self):
        out = greedy_match(point_array([]), point_array(points((1, 1))), MatchGate(40.0))
        assert out.matches == ()
        out = greedy_match(point_array(points((1, 1))), point_array([]), MatchGate(40.0))
        assert out.matches == ()

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            MatchGate(0.0)


class TestGreedyMatchProperties:
    @pytest.mark.parametrize("seed", range(50))
    def test_equals_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_l, n_c = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        proj = points(*(rng.uniform(0, 100, size=2) for _ in range(n_l)))
        dets = points(*(rng.uniform(0, 100, size=2) for _ in range(n_c)))
        gate = MatchGate(float(rng.uniform(5, 80)))
        out = greedy_match(point_array(proj), point_array(dets), gate)

        if n_l and n_c:
            costs = np.array([[np.hypot(p.u - d.u, p.v - d.v) for d in dets] for p in proj])
            expected = naive_greedy(costs, gate.max_distance)
            assert [(i, j) for i, j, _ in out.matches] == [(i, j) for i, j, _ in expected]
            assert np.allclose([c for *_, c in out.matches], [c for *_, c in expected])
        else:
            assert out.matches == ()

    @pytest.mark.parametrize("seed", range(20))
    def test_partial_injection_and_gate_soundness(self, seed):
        rng = np.random.default_rng(100 + seed)
        proj = points(*(rng.uniform(0, 200, size=2) for _ in range(12)))
        dets = points(*(rng.uniform(0, 200, size=2) for _ in range(9)))
        gate = MatchGate(50.0)
        out = greedy_match(point_array(proj), point_array(dets), gate)

        lidar_seen = [i for i, _, _ in out.matches]
        camera_seen = [j for _, j, _ in out.matches]
        assert len(set(lidar_seen)) == len(lidar_seen)
        assert len(set(camera_seen)) == len(camera_seen)
        assert all(c <= gate.max_distance for *_, c in out.matches)
        assert all(0 <= i < 12 for i in lidar_seen)
        assert all(0 <= j < 9 for j in camera_seen)

    def test_greedy_step_optimality_by_replay(self):
        rng = np.random.default_rng(321)
        proj = points(*(rng.uniform(0, 300, size=2) for _ in range(10)))
        dets = points(*(rng.uniform(0, 300, size=2) for _ in range(10)))
        gate = MatchGate(120.0)
        out = greedy_match(point_array(proj), point_array(dets), gate)

        costs = np.array([[np.hypot(p.u - d.u, p.v - d.v) for d in dets] for p in proj])
        free_l, free_c = set(range(10)), set(range(10))
        for i, j, c in out.matches:
            admissible = [
                costs[a, b] for a in free_l for b in free_c if costs[a, b] <= gate.max_distance
            ]
            assert c <= min(admissible) + 1e-12
            free_l.remove(i)
            free_c.remove(j)

    def test_permutation_covariance(self):
        rng = np.random.default_rng(55)
        proj = points(*(rng.uniform(0, 100, size=2) for _ in range(6)))
        dets = points(*(rng.uniform(0, 100, size=2) for _ in range(6)))
        gate = MatchGate(200.0)
        base = greedy_match(point_array(proj), point_array(dets), gate)

        perm_l = list(rng.permutation(6))
        perm_c = list(rng.permutation(6))
        out = greedy_match(
            point_array([proj[i] for i in perm_l]), point_array([dets[j] for j in perm_c]), gate
        )
        remapped = {(perm_l.index(i), perm_c.index(j)) for i, j, _ in base.matches}
        assert {(i, j) for i, j, _ in out.matches} == remapped


class TestGateBoundary:
    """The squared-distance prefilter must never decide the gate itself."""

    def test_pair_exactly_at_gate_matches(self):
        out = greedy_match(np.array([[0.0, 0.0]]), np.array([[24.0, 32.0]]), MatchGate(40.0))
        assert out.matches == ((0, 0, 40.0),)

    def test_pair_one_ulp_past_gate_is_rejected(self):
        dv = np.nextafter(32.0, np.inf)
        assert np.hypot(24.0, dv) > 40.0
        out = greedy_match(np.array([[0.0, 0.0]]), np.array([[24.0, dv]]), MatchGate(40.0))
        assert out.matches == ()

    def test_squared_distance_rounding_above_gate_still_matches(self):
        du, dv = 36.46164379296402, 16.448359550879495
        assert du * du + dv * dv > 40.0 * 40.0 and np.hypot(du, dv) == 40.0
        out = greedy_match(np.array([[0.0, 0.0]]), np.array([[du, dv]]), MatchGate(40.0))
        assert out.matches == ((0, 0, 40.0),)


# Coordinates on a coarse integer grid give many exactly tied costs.
_coords = st.one_of(
    st.integers(0, 6).map(float),
    st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
)
_point_arrays = st.lists(st.tuples(_coords, _coords), max_size=8).map(
    lambda pts: np.array(pts, dtype=float).reshape(-1, 2)
)
_gates = st.one_of(st.integers(1, 8).map(float), st.floats(0.01, 150.0))


class TestGreedyMatchHypothesis:
    @settings(max_examples=300)
    @given(proj=_point_arrays, dets=_point_arrays, gate=_gates)
    def test_equals_naive_greedy(self, proj, dets, gate):
        out = greedy_match(proj, dets, MatchGate(gate))

        costs = np.hypot(proj[:, None, 0] - dets[None, :, 0], proj[:, None, 1] - dets[None, :, 1])
        expected = naive_greedy(costs, gate)
        assert list(out.matches) == expected


# Frames of 0-10 points per sensor on a coarse lattice, so costs tie within
# and across frames; empty frames and empty streams included.
_lattice_points = st.lists(
    st.tuples(st.integers(0, 6).map(float), st.integers(0, 6).map(float)), max_size=10
).map(lambda pts: np.array(pts, dtype=float).reshape(-1, 2))
_streams = st.lists(st.tuples(_lattice_points, _lattice_points), max_size=8)


def match_stream(frames, gate):
    """greedy_match with frame counts, on frames given as (projected,
    detections) pairs."""
    proj = np.concatenate([p for p, _ in frames] or [np.empty((0, 2))])
    dets = np.concatenate([d for _, d in frames] or [np.empty((0, 2))])
    out = greedy_match(
        proj, dets, MatchGate(gate), [len(p) for p, _ in frames], [len(d) for _, d in frames]
    )
    return out.lidar.tolist(), out.camera.tolist(), out.cost.tolist()


def naive_stream(frames, gate):
    """naive_greedy frame by frame, with each frame's row offsets added."""
    lidar, camera, cost = [], [], []
    lidar_offset = camera_offset = 0
    for proj, dets in frames:
        costs = np.hypot(proj[:, None, 0] - dets[None, :, 0], proj[:, None, 1] - dets[None, :, 1])
        for i, j, c in naive_greedy(costs.reshape(len(proj), len(dets)), gate):
            lidar.append(lidar_offset + i)
            camera.append(camera_offset + j)
            cost.append(c)
        lidar_offset += len(proj)
        camera_offset += len(dets)
    return lidar, camera, cost


class TestGreedyMatchFrames:
    def test_pairs_never_cross_frames(self):
        # frame 0 has only LiDAR, frame 1 only the matching detections
        proj = np.array([[0.0, 0.0], [5.0, 0.0]])
        dets = np.array([[0.0, 0.0], [5.0, 0.0]])
        out = greedy_match(proj, dets, MatchGate(40.0), [2, 0], [0, 2])
        assert out.lidar.tolist() == [] and out.camera.tolist() == []

    def test_indices_are_global_and_frame_ordered(self):
        proj = np.array([[0.0, 0.0], [10.0, 0.0], [50.0, 50.0]])
        dets = np.array([[10.5, 0.0], [0.2, 0.0], [50.0, 51.0]])
        out = greedy_match(proj, dets, MatchGate(40.0), [2, 1], [2, 1])
        assert out.lidar.tolist() == [0, 1, 2]
        assert out.camera.tolist() == [1, 0, 2]

    def test_counts_must_partition_the_arrays(self):
        with pytest.raises(ValueError):
            greedy_match(np.zeros((3, 2)), np.zeros((2, 2)), MatchGate(40.0), [1, 1], [1, 1])
        with pytest.raises(ValueError):
            greedy_match(np.zeros((2, 2)), np.zeros((2, 2)), MatchGate(40.0), [1, 1], [2])


class TestGreedyMatchFramesHypothesis:
    @settings(max_examples=300)
    @given(frames=_streams, gate=_gates)
    def test_equals_per_frame_naive_greedy(self, frames, gate):
        assert match_stream(frames, gate) == naive_stream(frames, gate)

    @settings(max_examples=200)
    @given(frames=_streams, gate=_gates)
    def test_batch_size_does_not_change_the_result(self, frames, gate):
        expected = match_stream(frames, gate)
        for cells in (1, 7):
            with mock.patch.object(matching, "_BATCH_CELLS", cells):
                assert match_stream(frames, gate) == expected
