import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calibrefine import matching
from calibrefine.matching import (
    MatchGate,
    candidate_edges,
    greedy_match,
    match_edges,
)

from conftest import naive_greedy, point_array


def points(*uv):
    """(N, 2) array of the given (u, v) pixels."""
    return point_array(uv)


class TestGreedyMatchExamples:
    def test_single_admissible_pair(self):
        out = greedy_match(points((10, 10)), points((12, 10)), MatchGate(40.0))
        assert out.matches == ((0, 0, 2.0),)

    def test_two_clean_matches(self):
        out = greedy_match(points((0, 0), (10, 0)), points((1, 0), (9, 0)), MatchGate(40.0))
        assert {(i, j) for i, j, _ in out.matches} == {(0, 0), (1, 1)}

    def test_tie_goes_to_lower_lidar_index(self):
        # both lidar points are 5 px from camera 0; camera 1 is out of gate
        out = greedy_match(
            points((0, 0), (10, 0)),
            points((5, 0), (100, 100)),
            MatchGate(40.0),
        )
        assert out.matches == ((0, 0, 5.0),)

    def test_gate_excludes_everything(self):
        out = greedy_match(points((0, 0)), points((100, 100)), MatchGate(40.0))
        assert out.matches == ()

    def test_empty_inputs(self):
        out = greedy_match(points(), points((1, 1)), MatchGate(40.0))
        assert out.matches == ()
        out = greedy_match(points((1, 1)), points(), MatchGate(40.0))
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
        out = greedy_match(proj, dets, gate)

        if n_l and n_c:
            costs = np.array(
                [[np.hypot(pu - du, pv - dv) for du, dv in dets.tolist()] for pu, pv in proj.tolist()]
            )
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
        out = greedy_match(proj, dets, gate)

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
        out = greedy_match(proj, dets, gate)

        costs = np.array(
            [[np.hypot(pu - du, pv - dv) for du, dv in dets.tolist()] for pu, pv in proj.tolist()]
        )
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
        base = greedy_match(proj, dets, gate)

        perm_l = list(rng.permutation(6))
        perm_c = list(rng.permutation(6))
        out = greedy_match(
            proj[perm_l], dets[perm_c], gate
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


# One frame on either side of the size rule: each sensor has a few rows, or
# just enough that a frame where both have that many takes the band search
# (matching._GRID_CELLS). Rows lie on a lattice (many exact ties) or are
# spread over 400 px, and a few coordinates are non-finite or far outside.
_BAND_SIDE = math.isqrt(matching._GRID_CELLS) + 1
_ODD_VALUES = [np.nan, np.inf, -np.inf, 1e9, -1e9]


@st.composite
def _frame_rows(draw):
    n = draw(st.one_of(st.integers(0, 24), st.integers(_BAND_SIDE, _BAND_SIDE + 14)))
    step = draw(st.sampled_from([0.0, 1.0, 2.5, 7.0]))  # 0.0: spread
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, 12, (n, 2)) * step if step else rng.uniform(0.0, 400.0, (n, 2))
    if n:
        odd = st.tuples(st.integers(0, n - 1), st.integers(0, 1), st.sampled_from(_ODD_VALUES))
        for i, axis, value in draw(st.lists(odd, max_size=4)):
            rows[i, axis] = value
    return rows


class TestOneFrameSizeRuleHypothesis:
    @settings(max_examples=100)
    @given(
        proj=_frame_rows(),
        dets=_frame_rows(),
        gate=st.one_of(_gates, st.sampled_from([0.5, 7.0, 40.0, 1e7, 1e154, 1e300])),
    )
    def test_grid_and_band_equal_naive_greedy(self, proj, dets, gate):
        with np.errstate(invalid="ignore", over="ignore"):
            costs = np.hypot(proj[:, None, 0] - dets[None, :, 0], proj[:, None, 1] - dets[None, :, 1])
            expected = naive_greedy(costs.reshape(len(proj), len(dets)), gate)
            # the size rule as it stands, then every frame by the band and
            # every frame by the grid
            for cells in (matching._GRID_CELLS, 0, 2**62):
                with mock.patch.object(matching, "_GRID_CELLS", cells):
                    out = greedy_match(proj, dets, MatchGate(gate))
                assert list(out.matches) == expected
                assert out.lidar.dtype == out.camera.dtype == np.intp and out.cost.dtype == float


class TestOneFrameNonFiniteRows:
    """A row that is not finite has no edge, on both sides of the size rule.
    No ``np.errstate`` here: a RuntimeWarning fails the test."""

    @pytest.mark.parametrize("side", [2, 12, _BAND_SIDE])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_dropped_without_a_warning(self, side, value):
        rng = np.random.default_rng(side)
        proj = rng.uniform(0.0, 60.0, (side, 2))
        dets = np.concatenate([proj, [[30.0, 30.0]]]) + rng.normal(0.0, 2.0, (side + 1, 2))
        proj[0, 0] = value
        dets[0] = value, -value
        dets[-1, 1] = value
        assert (len(proj) * len(dets) > matching._GRID_CELLS) == (side == _BAND_SIDE)
        out = greedy_match(proj, dets, MatchGate(40.0))
        lidar, camera = (np.isfinite(a).all(axis=1).nonzero()[0] for a in (proj, dets))
        want = greedy_match(proj[lidar], dets[camera], MatchGate(40.0))
        assert out.lidar.tolist() == lidar[want.lidar].tolist()
        assert out.camera.tolist() == camera[want.camera].tolist()
        assert out.cost.tolist() == want.cost.tolist()
        assert len(out.lidar) == side - 1


# Frames of 0-10 points per sensor on a coarse lattice, so costs tie within
# and across frames; empty frames and empty streams included.
_lattice_points = st.lists(
    st.tuples(st.integers(0, 6).map(float), st.integers(0, 6).map(float)), max_size=10
).map(lambda pts: np.array(pts, dtype=float).reshape(-1, 2))
_streams = st.lists(st.tuples(_lattice_points, _lattice_points), max_size=8)


def stream_arrays_of(frames):
    """The (projected, detections) frames as concatenated arrays and counts."""
    proj = np.concatenate([p for p, _ in frames] or [np.empty((0, 2))])
    dets = np.concatenate([d for _, d in frames] or [np.empty((0, 2))])
    return proj, dets, [len(p) for p, _ in frames], [len(d) for _, d in frames]


def frame_map(counts):
    """Each row's frame index, for rows concatenated frame by frame."""
    return np.repeat(np.arange(len(counts)), counts)


def match_stream(frames, gate):
    """greedy_match with frame maps, on frames given as (projected,
    detections) pairs."""
    proj, dets, lidar_counts, camera_counts = stream_arrays_of(frames)
    out = greedy_match(proj, dets, MatchGate(gate), frame_map(lidar_counts), frame_map(camera_counts))
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
        out = greedy_match(proj, dets, MatchGate(40.0), frame_map([2, 0]), frame_map([0, 2]))
        assert out.lidar.tolist() == [] and out.camera.tolist() == []

    def test_indices_are_global_and_frame_ordered(self):
        proj = np.array([[0.0, 0.0], [10.0, 0.0], [50.0, 50.0]])
        dets = np.array([[10.5, 0.0], [0.2, 0.0], [50.0, 51.0]])
        out = greedy_match(proj, dets, MatchGate(40.0), frame_map([2, 1]), frame_map([2, 1]))
        assert out.lidar.tolist() == [0, 1, 2]
        assert out.camera.tolist() == [1, 0, 2]

    def test_frames_may_be_gapped(self):
        # The online loop matches only the live frames of a window, under
        # their window indices: frame 1 has no row at all.
        proj = np.array([[0.0, 0.0], [10.0, 0.0], [50.0, 50.0]])
        dets = np.array([[10.5, 0.0], [0.2, 0.0], [50.0, 51.0]])
        out = greedy_match(proj, dets, MatchGate(40.0), np.array([0, 0, 2]), np.array([0, 0, 2]))
        assert (out.lidar.tolist(), out.camera.tolist()) == ([0, 1, 2], [1, 0, 2])

    @pytest.mark.parametrize("which", ["lidar", "camera"])
    def test_frame_maps_come_in_pairs(self, which):
        maps = {f"{which}_frame": np.array([0, 1])}
        with pytest.raises(ValueError, match="give both frame maps or neither"):
            greedy_match(np.zeros((2, 2)), np.zeros((2, 2)), MatchGate(40.0), **maps)

    def test_maps_may_be_lists(self):
        proj = dets = np.array([[0.0, 0.0], [5.0, 0.0]])
        out = greedy_match(proj, dets, MatchGate(40.0), [0, 1], [1, 0])
        assert (out.lidar.tolist(), out.camera.tolist()) == ([0, 1], [1, 0])

    @pytest.mark.parametrize(
        "lidar_frame, camera_frame, message",
        [
            ([0], [0, 1], "one frame index >= 0"),
            ([0, 1, 1], [0, 1], "one frame index >= 0"),
            ([0, 1], [0], "one frame index >= 0"),
            ([0, 1], [0, 1, 2], "one frame index >= 0"),
            ([[0, 1]], [0, 1], "one frame index >= 0"),
            ([0, -1], [0, 1], "one frame index >= 0"),
            ([0, 1], [-2, 1], "one frame index >= 0"),
            ([0, 0.5], [0, 1], "frame maps must be integers"),
            ([0, 1], [np.nan, 1], "frame maps must be integers"),
        ],
    )
    def test_refuses_maps_that_do_not_give_each_row_a_frame(self, lidar_frame, camera_frame, message):
        proj = dets = np.array([[0.0, 0.0], [5.0, 0.0]])
        with pytest.raises(ValueError, match=message):
            greedy_match(proj, dets, MatchGate(40.0), lidar_frame, camera_frame)


class TestGreedyMatchFramesHypothesis:
    @settings(max_examples=300)
    @given(frames=_streams, gate=_gates)
    def test_equals_per_frame_naive_greedy(self, frames, gate):
        assert match_stream(frames, gate) == naive_stream(frames, gate)

    @settings(max_examples=200)
    @given(frames=_streams, gate=_gates)
    def test_batch_size_does_not_change_the_result(self, frames, gate):
        # The band search's chunks of LiDAR rows, whose boundaries fall
        # inside frames, the sweep's chunks of edges, the one-frame size
        # rule (every frame by the band search, then every frame by its
        # grid) and the rounds' stop rule (rounds until no edge is alive,
        # then the sweep right after the first round).
        proj, dets, _, _ = stream_arrays_of(frames)
        expected = match_stream(frames, gate), greedy_match(proj, dets, MatchGate(gate)).matches
        sizes = (
            ("_BAND_CHUNK", 1),
            ("_BAND_CHUNK", 7),
            ("_SWEEP_CHUNK", 1),
            ("_SWEEP_CHUNK", 3),
            ("_GRID_CELLS", 0),
            ("_GRID_CELLS", 2**62),
            ("_ROUND_SHARE", 0.0),
            ("_ROUND_SHARE", 1.0),
        )
        for name, size in sizes:
            with mock.patch.object(matching, name, size):
                assert (
                    match_stream(frames, gate),
                    greedy_match(proj, dets, MatchGate(gate)).matches,
                ) == expected


def naive_edges(frames, radius):
    """Every within-frame (LiDAR row, camera row) pair whose hypot is at
    most ``radius``, pair by pair, in (LiDAR row, camera row) order."""
    expected = []
    lidar_offset = camera_offset = 0
    for p, d in frames:
        for i in range(len(p)):
            for j in range(len(d)):
                with np.errstate(invalid="ignore"):
                    cost = np.hypot(p[i, 0] - d[j, 0], p[i, 1] - d[j, 1])
                if cost <= radius:
                    expected.append((lidar_offset + i, camera_offset + j))
        lidar_offset += len(p)
        camera_offset += len(d)
    return expected


def band_edges(frames, radius):
    proj, dets, lidar_counts, camera_counts = stream_arrays_of(frames)
    lidar, camera, _ = candidate_edges(
        proj, dets, radius, frame_map(lidar_counts), frame_map(camera_counts)
    )
    return list(zip(lidar.tolist(), camera.tolist()))


def frame(*uv):
    return np.array(uv, dtype=float).reshape(-1, 2)


_ULP_PAST_14 = np.nextafter(14.0, np.inf)
_ULP_PAST_6 = np.nextafter(6.0, -np.inf)


class TestBandSearch:
    """The band search against a pair-by-pair search, on its edge cases."""

    @pytest.mark.parametrize(
        "frames, radius, n_edges",
        [
            pytest.param(
                [(frame((10, 0)), frame((14, 0), (6, 0), (_ULP_PAST_14, 0), (_ULP_PAST_6, 0)))],
                4.0,
                2,
                id="u-exactly-at-radius",
            ),
            pytest.param(
                [(frame((10, 0), (10, 3)), frame((13, 0), (7, 0), (13, 1), (7, 9)))],
                3.0,
                2,
                id="u-at-radius-v-apart",
            ),
            pytest.param(
                [
                    (frame((3, 0), (3, 1), (3, 1)), frame((3, 0), (3, 2), (3, 0), (4, 9))),
                    (frame((3, 0)), frame((3, 0), (3, 0))),
                    (frame((3, 5)), frame((3, 5), (3, 4))),
                ],
                1.0,
                12,
                id="repeated-u-within-and-across-frames",
            ),
            pytest.param(
                [
                    (
                        frame((np.nan, 0), (0, np.nan), (np.inf, 0), (-np.inf, 0), (0, np.inf), (1, 1)),
                        frame((1, 1), (np.inf, 1), (-np.inf, -np.inf), (np.nan, np.nan), (0, 0)),
                    ),
                    (frame((np.inf, np.inf)), frame((np.inf, np.inf))),
                    (frame((0, 0)), frame((np.nan, 0))),
                ],
                5.0,
                2,
                id="nan-and-inf-rows",
            ),
            pytest.param(
                [
                    (frame(), frame()),
                    (frame((1, 1)), frame()),
                    (frame(), frame((1, 1))),
                    (frame((2, 2)), frame((2, 3))),
                    (frame(), frame()),
                ],
                5.0,
                1,
                id="empty-and-one-sided-frames",
            ),
            pytest.param(
                [
                    (frame((1e12, 5), (-1e12, 5), (1900, 5)), frame((0, 5), (1919, 5))),
                    (frame((-1e12, 0)), frame((0, 0))),
                ],
                40.0,
                1,
                id="u-far-outside-the-image",
            ),
            pytest.param(
                [(frame((1e12, 0), (-5e11, 0)), frame((1e12 - 30, 0), (1919, 5), (-5e11 + 1, 1)))],
                2e12,
                6,
                id="u-far-outside-within-a-huge-radius",
            ),
            pytest.param(
                [(frame((0, 0)), frame((0, 40), (1e9, 0)))],
                40.0,
                1,
                id="detection-far-outside-the-image",
            ),
            pytest.param(
                [
                    (frame((0, 0), (1919, 1079)), frame((5, 5), (1900, 1000))),
                    (frame((1000, 500)), frame((0, 0), (1919, 1079), (5, 5))),
                    (frame(), frame((3, 3))),
                    (frame((7, 7), (8, 8)), frame((1919, 0))),
                ],
                1e7,
                9,
                id="huge-radius-over-several-frames",
            ),
            pytest.param(
                [
                    (frame((0, 0), (-50, 2000)), frame((5, 5), (1900, 1000), (1e6, 0))),
                    (frame((1000, 500)), frame((0, 0))),
                    (frame((1919, 1079)), frame()),
                ],
                1e300,
                7,
                id="largest-gates-over-several-frames",
            ),
        ],
    )
    def test_equals_pair_by_pair_search(self, frames, radius, n_edges):
        edges = band_edges(frames, radius)
        assert edges == naive_edges(frames, radius)
        assert len(edges) == n_edges

    @pytest.mark.parametrize("seed", range(5))
    def test_edges_at_the_radius_survive_the_keys_rounding(self, seed):
        # One LiDAR row per frame with a detection at exactly u +- r: the
        # frame term makes the keys round, and without the 1 px pad some of
        # these edges fall just outside the band.
        rng = np.random.default_rng(seed)
        u, radius = rng.uniform(0, 1920, 40), float(rng.uniform(0.1, 50))
        side = rng.choice([-1.0, 1.0], 40)
        frames = [(frame((a, 0)), frame((a + s * radius, 0))) for a, s in zip(u, side)]
        frames.append((frame(), frame((0, 0))))
        assert band_edges(frames, radius) == naive_edges(frames, radius)

    @pytest.mark.parametrize("seed", range(10))
    def test_one_frame_edges_at_the_radius_survive_the_keys_rounding(self, seed):
        # One frame has no frame term, but its keys still subtract the lowest
        # detection u (here the last detection's), which rounds.
        rng = np.random.default_rng(seed)
        u, radius = rng.uniform(0, 1920, 80), float(rng.uniform(0.1, 50))
        side = rng.choice([-1.0, 1.0], 80)
        proj = np.column_stack([u, np.zeros(80)])
        dets = np.vstack([np.column_stack([u + side * radius, np.zeros(80)]), [[-rng.uniform(0, 5), 900.0]]])
        lidar, camera, _ = candidate_edges(proj, dets, radius)
        assert list(zip(lidar.tolist(), camera.tolist())) == naive_edges([(proj, dets)], radius)
        by_grid = greedy_match(proj, dets, MatchGate(radius)).matches
        with mock.patch.object(matching, "_GRID_CELLS", 0):
            assert greedy_match(proj, dets, MatchGate(radius)).matches == by_grid

    @settings(max_examples=200)
    @given(
        frames=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.sampled_from([0.0, 3.0, -4.0, 1e9, np.nan, np.inf, -np.inf]), _coords
                    ),
                    max_size=6,
                ).map(frame),
                _lattice_points,
            ),
            max_size=6,
        ),
        radius=st.sampled_from([0.5, 3.0, 4.0, 7.0, 1e7]),
    )
    def test_equals_pair_by_pair_search_with_odd_projections(self, frames, radius):
        assert band_edges(frames, radius) == naive_edges(frames, radius)


class TestEdgeListHypothesis:
    @settings(max_examples=300)
    @given(frames=_streams, radius=_gates)
    def test_candidate_edges_are_every_edge_within_the_radius(self, frames, radius):
        assert band_edges(frames, radius) == naive_edges(frames, radius)

    @settings(max_examples=300)
    @given(frames=_streams, radius=_gates, seed=st.integers(0, 2**32 - 1))
    def test_candidate_edges_on_gapped_and_shuffled_frame_maps(self, frames, radius, seed):
        # A stream's correction passes the frames of its projectable LiDAR
        # rows only, so some frames have no LiDAR row; the maps may also
        # come in any order. Rows are dropped and both sides shuffled.
        proj, dets, lidar_counts, camera_counts = stream_arrays_of(frames)
        rng = np.random.default_rng(seed)
        kept = rng.permutation(np.flatnonzero(rng.random(len(proj)) < 0.7))
        cam = rng.permutation(len(dets))
        lidar_frame, camera_frame = frame_map(lidar_counts)[kept], frame_map(camera_counts)[cam]
        lidar, camera, _ = candidate_edges(proj[kept], dets[cam], radius, lidar_frame, camera_frame)
        row_of = {i: k for k, i in enumerate(kept.tolist())}
        cam_of = np.argsort(cam).tolist()
        expected = sorted(
            (row_of[i], cam_of[j]) for i, j in naive_edges(frames, radius) if i in row_of
        )
        assert list(zip(lidar.tolist(), camera.tolist())) == expected

    @settings(max_examples=300)
    @given(
        frames=_streams,
        gate=_gates,
        widen=st.sampled_from([0.0, 0.5, 4.0, 50.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_edges_equals_per_frame_naive_greedy(self, frames, gate, widen, seed):
        # Candidates from a wider radius, in any order: the lattice makes
        # many exact ties, which must still break on (lidar row, camera row).
        proj, dets, lidar_counts, camera_counts = stream_arrays_of(frames)
        lidar, camera, _ = candidate_edges(
            proj, dets, gate + widen, frame_map(lidar_counts), frame_map(camera_counts)
        )
        shuffled = np.random.default_rng(seed).permutation(len(lidar))
        frame_of = np.repeat(np.arange(len(frames)), lidar_counts)
        out = match_edges(proj, dets, lidar[shuffled], camera[shuffled], frame_of, MatchGate(gate))
        assert (out.lidar.tolist(), out.camera.tolist(), out.cost.tolist()) == naive_stream(frames, gate)


    @settings(max_examples=200)
    @given(
        shape=st.sampled_from([(1, 60), (3, 40), (40, 4), (300, 2)]),
        gate=_gates,
        widen=st.sampled_from([0.0, 4.0, 50.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_frame_grouping_equals_a_stable_sort_by_frame(self, shape, gate, widen, seed):
        # Few frames of many rows (heavy frame ties) or many frames of few,
        # on a coarse lattice: the unique-key sort must keep each frame's
        # pairs in the order taken, as the stable sort did.
        n_frames, max_rows = shape
        rng = np.random.default_rng(seed)
        lidar_counts, camera_counts = rng.integers(0, max_rows + 1, (2, n_frames))
        proj = rng.integers(0, 7, (lidar_counts.sum(), 2)).astype(float)
        dets = rng.integers(0, 7, (camera_counts.sum(), 2)).astype(float)
        lidar, camera, _ = candidate_edges(
            proj, dets, gate + widen, frame_map(lidar_counts), frame_map(camera_counts)
        )
        shuffled = rng.permutation(len(lidar))
        frame_of = np.repeat(np.arange(n_frames), lidar_counts)
        args = proj, dets, lidar[shuffled], camera[shuffled], frame_of, MatchGate(gate)
        out, want = match_edges(*args), stable_match_edges(*args)
        for got, expected in zip((out.lidar, out.camera, out.cost), (want.lidar, want.camera, want.cost)):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def stable_match_edges(projected, detections, lidar, camera, frame_of, gate):
    """``match_edges`` as it was when it grouped the taken pairs by a stable
    sort by frame."""
    proj = np.asarray(projected, dtype=float).reshape(-1, 2)
    dets = np.asarray(detections, dtype=float).reshape(-1, 2)
    lidar = np.asarray(lidar, dtype=np.intp)
    camera = np.asarray(camera, dtype=np.intp)
    with np.errstate(invalid="ignore"):
        cost = np.hypot(proj[lidar, 0] - dets[camera, 0], proj[lidar, 1] - dets[camera, 1])
    admitted = np.flatnonzero(cost <= gate.max_distance)
    cost, lidar, camera = cost[admitted], lidar[admitted], camera[admitted]
    order = matching._cost_order(cost, lidar, camera)
    taken = order[matching._take_by_rounds(lidar[order], camera[order], len(proj), len(dets))]
    taken = taken[np.argsort(np.asarray(frame_of)[lidar[taken]], kind="stable")]
    return matching.MatchSet(lidar=lidar[taken], camera=camera[taken], cost=cost[taken])


def chain(n_edges):
    """Edges of a chain in position order: edge k joins LiDAR row
    ceil(k/2) and camera row floor(k/2). In this order each round takes
    only the first alive edge and drops the next one."""
    k = np.arange(n_edges)
    return (k + 1) // 2, k // 2, n_edges // 2 + 1, (n_edges + 1) // 2


@st.composite
def _edge_lists(draw):
    """Distinct (LiDAR row, camera row) edges with costs: components that
    are chains, stars, single edges or random edges, on rows of their own
    and relabelled at random; the costs rise or fall with the position in
    the list, are all equal, or lie on a few values. The empty list too."""
    lidar, camera = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    n_lidar = n_camera = 0
    for kind in draw(st.lists(st.sampled_from(["chain", "star", "single", "random"]), max_size=4)):
        if kind == "chain":
            li, ci, _, _ = chain(draw(st.integers(1, 30)))
        elif kind == "star":
            n = draw(st.integers(1, 12))
            li, ci = np.zeros(n, dtype=np.intp), np.arange(n)
            if draw(st.booleans()):
                li, ci = ci, li
        elif kind == "single":
            li, ci = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
        else:
            rows = st.tuples(st.integers(0, 5), st.integers(0, 5))
            pairs = draw(st.sets(rows, min_size=1, max_size=20))
            li, ci = np.array(sorted(pairs), dtype=np.intp).T
        lidar.append(li + n_lidar)
        camera.append(ci + n_camera)
        n_lidar += int(li.max()) + 1
        n_camera += int(ci.max()) + 1
    lidar, camera = np.concatenate(lidar), np.concatenate(camera)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lidar, camera = rng.permutation(n_lidar)[lidar], rng.permutation(n_camera)[camera]
    costs = draw(st.sampled_from(["rising", "falling", "equal", "few"]))
    position = np.arange(len(lidar), dtype=float)
    cost = {
        "rising": position,
        "falling": position[::-1].copy(),
        "equal": np.ones(len(lidar)),
        "few": rng.integers(0, 3, len(lidar)).astype(float),
    }[costs]
    return lidar, camera, cost, n_lidar, n_camera


class TestLocallyDominantRounds:
    @settings(max_examples=400)
    @given(edges=_edge_lists(), share=st.sampled_from([matching._ROUND_SHARE, 0.0, 1.0]))
    def test_equal_the_sweep_and_naive_greedy(self, edges, share):
        lidar, camera, cost, n_lidar, n_camera = edges
        order = matching._cost_order(cost, lidar, camera)
        lidar, camera, cost = lidar[order], camera[order], cost[order]
        with mock.patch.object(matching, "_ROUND_SHARE", share):
            taken = matching._take_by_rounds(lidar, camera, n_lidar, n_camera)
        assert taken.tolist() == matching._take(lidar, camera, n_lidar, n_camera)
        costs = np.full((n_lidar, n_camera), np.nan)  # NaN: no edge
        costs[lidar, camera] = cost
        got = list(zip(lidar[taken].tolist(), camera[taken].tolist(), cost[taken].tolist()))
        assert got == naive_greedy(costs, math.inf)

    def test_a_long_chain_goes_to_the_sweep_after_one_round(self):
        # The first round removes 2 of the 10,000 edges; without the stop
        # rule the rounds would go on for 5,000 rounds.
        lidar, camera, n_lidar, n_camera = chain(10_000)
        with mock.patch.object(matching, "_first_alive", wraps=matching._first_alive) as first:
            taken = matching._take_by_rounds(lidar, camera, n_lidar, n_camera)
        assert first.call_count == 2  # one round: once per side
        assert taken.tolist() == matching._take(lidar, camera, n_lidar, n_camera)

    def test_without_a_share_the_rounds_run_until_no_edge_is_alive(self):
        lidar, camera, n_lidar, n_camera = chain(20)
        with (
            mock.patch.object(matching, "_ROUND_SHARE", 0.0),
            mock.patch.object(matching, "_first_alive", wraps=matching._first_alive) as first,
            mock.patch.object(matching, "_take", wraps=matching._take) as sweep,
        ):
            taken = matching._take_by_rounds(lidar, camera, n_lidar, n_camera)
        assert first.call_count == 2 * 10
        assert taken.tolist() == list(range(0, 20, 2))
        assert [len(call.args[0]) for call in sweep.call_args_list] == [0]
