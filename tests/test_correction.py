import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calibrefine import simulator
from calibrefine.correction import (
    CarriedEdges,
    CorrectionConfig,
    fit_correction_stream,
    implicit_pairs,
    reprojection_loss,
    reprojection_loss_gradient,
)
from calibrefine.errors import DegenerateProjection, InsufficientPairs
from calibrefine.geometry import (
    Frame,
    FrameStream,
    Homography,
    compose,
    correspondence_arrays,
    project_points,
    projection_mask,
    refine_homography,
    transform_points,
)
from calibrefine.matching import MatchGate

from conftest import (
    exact_pairs,
    grid_fit,
    grid_pairs,
    naive_greedy,
    pair_set,
    point_array,
    project_one,
    translation_homography,
    well_conditioned_homography,
)


def dense_scene(rng, h, n=200):
    """Plane points plus their exact detections under h."""
    pairs = exact_pairs(h, rng, n)
    return pairs.xy, pairs.uv


def scene_homography():
    return Homography([[12.0, 0.5, 300.0], [-0.5, 12.0, 250.0], [0.0, 0.0, 1.0]])


def one_frame(lidar, camera, gate=MatchGate(40.0)) -> CarriedEdges:
    """The stream of one frame holding the given points."""
    return CarriedEdges(FrameStream.of([Frame(0, point_array(lidar), point_array(camera))]), gate)


class TestImplicitPairs:
    def test_exact_overlay_pairs_everything(self):
        rng = np.random.default_rng(0)
        h = scene_homography()
        lidar, camera = dense_scene(rng, h, 30)
        xy, uv = implicit_pairs(h, one_frame(lidar, camera))
        assert len(xy) == 30

    def test_gate_excludes_all(self):
        h = scene_homography()
        lidar = [(0.0, 0.0)]
        u, v = project_one(h, 0.0, 0.0)
        camera = [(u + 100.0, v)]
        xy, uv = implicit_pairs(h, one_frame(lidar, camera))
        assert xy.shape == (0, 2) and uv.shape == (0, 2)

    def test_injection_two_projections_one_detection(self):
        h = Homography.identity()
        lidar = [(0.0, 0.0), (1.0, 0.0)]
        camera = [(0.4, 0.0)]
        xy, uv = implicit_pairs(h, one_frame(lidar, camera))
        assert len(xy) == 1
        assert tuple(xy[0]) == lidar[0]  # the nearer projection wins

    def test_degenerate_projection_in_a_middle_frame(self):
        # frame 1 holds a LiDAR point on the horizon (w = 0) between two good
        # ones; the frames after it must still pair with their own detections
        rng = np.random.default_rng(11)
        h = Homography([[12.0, 0.5, 300.0], [-0.5, 12.0, 250.0], [0.001, 0.0, 1.0]])
        frames = [exact_pairs(h, rng, n) for n in (3, 2, 4)]
        lidar = [f.xy.tolist() for f in frames]
        camera = [f.uv.tolist() for f in frames]
        lidar[1].insert(1, [-1000.0, 0.5])
        stream = CarriedEdges(
            FrameStream.of(
                Frame(fid, point_array(xy), point_array(uv))
                for fid, (xy, uv) in enumerate(zip(lidar, camera))
            ),
            MatchGate(40.0),
        )
        xy, uv = implicit_pairs(h, stream)

        expected_xy, expected_uv = [], []
        for frame_lidar, frame_camera in zip(lidar, camera):
            projected, kept = [], []
            for p in frame_lidar:
                try:
                    projected.append(project_one(h, *p))
                    kept.append(p)
                except DegenerateProjection:
                    pass
            costs = np.array(
                [[np.hypot(pu - du, pv - dv) for du, dv in frame_camera] for pu, pv in projected]
            )
            for i, j, _ in naive_greedy(costs, 40.0):
                expected_xy.append(kept[i])
                expected_uv.append(frame_camera[j])
        assert len(expected_xy) == 9
        assert xy.tolist() == expected_xy
        assert uv.tolist() == expected_uv


class TestLossAndGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 25)
        pairs = pair_set(pairs.xy, pairs.uv + rng.normal(0, 2, size=pairs.uv.shape))
        d = np.eye(3) + rng.uniform(-0.01, 0.01, (3, 3))
        grad = reprojection_loss_gradient(h, d, *correspondence_arrays(pairs))

        step = 1e-6
        fd = np.zeros(9)
        flat = d.ravel().copy()
        for k in range(9):
            plus, minus = flat.copy(), flat.copy()
            plus[k] += step
            minus[k] -= step
            fd[k] = (
                reprojection_loss(h, plus.reshape(3, 3), *correspondence_arrays(pairs))
                - reprojection_loss(h, minus.reshape(3, 3), *correspondence_arrays(pairs))
            ) / (2 * step)
        assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1.0)


class TestFitCorrection:
    def test_already_optimal_returns_identity(self):
        rng = np.random.default_rng(1)
        h = scene_homography()
        lidar, camera = dense_scene(rng, h, 60)
        result = fit_correction_stream(
            h, [Frame(0, point_array(lidar), point_array(camera))], CorrectionConfig()
        )
        assert np.max(np.abs(result.h_delta.m - Homography.identity().m)) < 1e-8
        assert len(result.loss_trace) == 1
        assert result.loss_trace[0] == pytest.approx(0.0, abs=1e-12)

    def test_recovers_known_pixel_translation(self):
        rng = np.random.default_rng(2)
        h_true = scene_homography()
        lidar, camera = dense_scene(rng, h_true, 200)
        h_perturbed = compose(translation_homography(2.0, 0.0), h_true)
        result = fit_correction_stream(
            h_perturbed, [Frame(0, point_array(lidar), point_array(camera))], CorrectionConfig()
        )
        assert np.max(np.abs(result.h_star.m - h_true.m)) < 1e-6
        assert result.loss_trace[-1] < 1e-10

    def test_noisy_scene_loss_never_increases(self):
        rng = np.random.default_rng(3)
        h_true = scene_homography()
        lidar, camera = dense_scene(rng, h_true, 150)
        camera = camera + rng.normal(0, 1.0, size=camera.shape)
        h0 = compose(translation_homography(3.0, -2.0), h_true)
        result = fit_correction_stream(
            h0, [Frame(0, point_array(lidar), point_array(camera))], CorrectionConfig()
        )
        trace = result.loss_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert trace[-1] <= trace[0]

    def test_insufficient_pairs_strict_and_lenient(self):
        h = scene_homography()
        lidar = [(0.0, 0.0)]
        camera = [project_one(h, 0.0, 0.0)]
        cfg = CorrectionConfig(min_pairs=12)
        with pytest.raises(InsufficientPairs):
            fit_correction_stream(h, [Frame(0, point_array(lidar), point_array(camera))], cfg)
        result = fit_correction_stream(
            h, [Frame(0, point_array(lidar), point_array(camera))], cfg, lenient=True
        )
        assert result.h_delta == Homography.identity()
        assert np.allclose(result.h_star.m, h.m, atol=1e-15)
        assert result.loss_trace == ()

    def test_gauge_and_composition_invariants(self):
        rng = np.random.default_rng(4)
        h_true = scene_homography()
        lidar, camera = dense_scene(rng, h_true, 100)
        h0 = compose(translation_homography(1.5, 1.0), h_true)
        result = fit_correction_stream(
            h0, [Frame(0, point_array(lidar), point_array(camera))], CorrectionConfig()
        )
        assert np.linalg.norm(result.h_delta.m) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(result.h_star.m) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(compose(h0, result.h_delta).m - result.h_star.m)) < 1e-12

    def test_unambiguous_pairing_equals_one_refit(self):
        # 120 px between neighbouring projections against a 40 px gate and a
        # few px of error: every round pairs each point with its own
        # detection, so the outer loop is the refit on fixed pairs.
        rng = np.random.default_rng(8)
        h_true = scene_homography()
        grid = np.arange(-25.0, 26.0, 10.0)
        lidar = point_array((x, y) for x in grid for y in grid)
        camera = project_points(h_true, lidar)
        camera = camera + rng.normal(0, 1.0, size=camera.shape)
        h0 = compose(translation_homography(2.0, -1.5), h_true)
        result = fit_correction_stream(
            h0, [Frame(0, point_array(lidar), point_array(camera))], CorrectionConfig()
        )
        assert result.pairs_used == len(lidar)
        refit = refine_homography(point_array(lidar), point_array(camera), h0)
        assert np.max(np.abs(result.h_star.m - refit.m)) < 1e-9


_PERTURBED_SCENE = dense_scene(np.random.default_rng(9), scene_homography(), 80)
_NOISY_CAMERA = _PERTURBED_SCENE[1] + np.random.default_rng(10).normal(0, 0.5, (80, 2))


class TestFitCorrectionHypothesis:
    @settings(max_examples=40)
    @given(
        affine=st.lists(st.floats(-0.005, 0.005), min_size=4, max_size=4),
        shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    )
    def test_loss_trace_monotone_and_composition_exact(self, affine, shift):
        a, b, c, d = affine
        pixel_warp = Homography([[1.0 + a, b, shift[0]], [c, 1.0 + d, shift[1]], [0.0, 0.0, 1.0]])
        h0 = compose(pixel_warp, scene_homography())
        cfg = CorrectionConfig()
        result = fit_correction_stream(
            h0, [Frame(0, point_array(_PERTURBED_SCENE[0]), point_array(_NOISY_CAMERA))], cfg
        )
        trace = result.loss_trace
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))
        assert np.max(np.abs(compose(h0, result.h_delta).m - result.h_star.m)) <= 1e-12
        # the last trace entry is the loss of h_star on its own pairing
        xy, uv = implicit_pairs(result.h_star, one_frame(_PERTURBED_SCENE[0], _NOISY_CAMERA, cfg.gate))
        assert len(xy) == result.pairs_used
        assert reprojection_loss(result.h_star, np.eye(3), xy, uv) == pytest.approx(trace[-1], rel=1e-9)


class TestFitCorrectionStream:
    def test_framewise_pairing_recovers_perturbation(self):
        rng = np.random.default_rng(6)
        h_true = scene_homography()
        frames = []
        for fid in range(40):
            pairs = exact_pairs(h_true, rng, 6)
            frames.append(Frame(fid, *correspondence_arrays(pairs)))
        h0 = compose(translation_homography(-2.0, 1.0), h_true)
        result = fit_correction_stream(h0, frames, CorrectionConfig())
        assert np.max(np.abs(result.h_star.m - h_true.m)) < 1e-6
        assert result.pairs_used == 240

    def test_empty_and_degenerate_frames_pair_within_frames(self):
        rng = np.random.default_rng(7)
        h = Homography([[12.0, 0.5, 300.0], [-0.5, 12.0, 250.0], [0.001, 0.0, 1.0]])
        points = []
        for fid in range(10):
            pairs = exact_pairs(h, rng, 6)
            points.append((pairs.xy.tolist(), pairs.uv.tolist()))
        orphans = exact_pairs(h, rng, 6)
        # LiDAR without detections, then the matching detections one frame
        # later: a pairing that crossed frames would pair all six.
        points.append((orphans.xy.tolist(), []))
        points.append(([], orphans.uv.tolist()))
        # every LiDAR point on the horizon line (w = 0) projects degenerately
        horizon = [(-1000.0, float(y)) for y in rng.uniform(-5, 5, 4)]
        points.append((horizon, exact_pairs(h, rng, 4).uv.tolist()))
        points.append(([], []))
        frames = [
            Frame(fid, point_array(lidar), point_array(camera))
            for fid, (lidar, camera) in enumerate(points)
        ]

        expected = degenerate = 0
        for lidar, camera in points:
            projected = []
            for p in lidar:
                try:
                    projected.append(project_one(h, *p))
                except DegenerateProjection:
                    degenerate += 1
            costs = np.array(
                [[np.hypot(pu - du, pv - dv) for du, dv in camera] for pu, pv in projected]
            ).reshape(len(projected), len(camera))
            expected += len(naive_greedy(costs, 40.0))

        result = fit_correction_stream(h, frames, CorrectionConfig())
        assert (expected, degenerate) == (60, 4)
        assert result.pairs_used == expected

    def test_empty_stream_strict_and_lenient(self):
        h = scene_homography()
        with pytest.raises(InsufficientPairs):
            fit_correction_stream(h, [], CorrectionConfig())
        result = fit_correction_stream(h, [], CorrectionConfig(), lenient=True)
        assert result.h_delta == Homography.identity()
        assert result.h_star == h
        assert result.loss_trace == ()
        assert result.pairs_used == 0


# w = 0 on the ground line x = -1000: points there project degenerately.
_HORIZON = Homography([[12.0, 0.5, 300.0], [-0.5, 12.0, 250.0], [0.001, 0.0, 1.0]])
_GATE = MatchGate(40.0)


def same_arrays(got, want) -> bool:
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def pair_in_turn(matrices, frames) -> tuple[CarriedEdges, list[int]]:
    """Pair one stream of ``(lidar, camera)`` frames under each matrix in
    turn, all pairings through the stream's one CarriedEdges, and check each
    against the from-scratch grid reference; returns the CarriedEdges and
    pair counts."""
    frames = [Frame(fid, lidar, camera) for fid, (lidar, camera) in enumerate(frames)]
    carried = CarriedEdges(FrameStream.of(frames), _GATE)
    counts = []
    for h in matrices:
        got = implicit_pairs(h, carried)
        assert same_arrays(got, grid_pairs(h, frames, _GATE))
        counts.append(len(got[0]))
    return carried, counts


def projected(h: Homography, xy) -> np.ndarray:
    return transform_points(h.m, np.asarray(xy, dtype=float).reshape(-1, 2))[0]


@st.composite
def pixel_warps(draw):
    """A near-identity warp of the image: a move of one of a few sizes
    (below, at and past the 4 px margin, and far past it) plus optional
    affine and projective terms, which move rows by different amounts."""
    move = draw(st.sampled_from([0.0, 1e-6, 0.5, 3.9, 4.0, 4.1, 12.0, 400.0]))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    affine = draw(st.sampled_from([0.0, 1e-4, 1e-2]))
    projective = draw(st.sampled_from([0.0, 1e-7, 1e-4]))
    a, b, c, d = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    return Homography(
        [
            [1.0 + affine * a, affine * b, move * math.cos(angle)],
            [affine * c, 1.0 + affine * d, move * math.sin(angle)],
            [projective * a, projective * c, 1.0],
        ]
    )


def random_frames(seed: int, matrices) -> list:
    """1-5 frames of 0-8 LiDAR points, some on or next to the horizon of
    ``_HORIZON`` and some repeated, with detections at, 40 px from or near
    the projection of a point under one of ``matrices``, repeated ones and
    clutter."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(rng.integers(1, 6)):
        n = int(rng.integers(0, 9))
        xy = rng.uniform(-5.0, 5.0, (n, 2))
        kind = rng.integers(0, 6, n)
        xy[kind == 0, 0] = -1000.0
        xy[kind == 1, 0] = -1000.0 + rng.uniform(-1e-3, 1e-3, int((kind == 1).sum()))
        if n > 1 and rng.random() < 0.3:
            xy[1] = xy[0]
        dets = []
        for row in rng.permutation(n)[: rng.integers(0, n + 1)]:
            uv = projected(matrices[rng.integers(len(matrices))], xy[row])[0]
            offset = [(0.0, 0.0), (24.0, 32.0), rng.normal(0.0, 3.0, 2), rng.normal(0.0, 30.0, 2)]
            if np.isfinite(uv).all():
                dets.append(uv + offset[rng.integers(4)])
        dets.extend(rng.uniform((0.0, 0.0), (1920.0, 1080.0), (rng.integers(0, 3), 2)))
        if dets and rng.random() < 0.3:
            dets.append(dets[0])
        frames.append((xy, np.array(dets, dtype=float).reshape(-1, 2)))
    return frames


class TestCarriedEdgesHypothesis:
    @settings(max_examples=300)
    @given(warps=st.lists(pixel_warps(), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_pairings_equal_the_grid_reference(self, warps, seed):
        matrices = [_HORIZON]
        for warp in warps:
            matrices.append(compose(warp, matrices[-1]))
        pair_in_turn(matrices, random_frames(seed, matrices))


class TestCarriedEdgesExamples:
    def test_row_moved_to_the_margin_within_rounding_is_not_stable(self):
        # Found by search: the row moves 4 px less a rounding error, the
        # detection is at 40 px from its new pixel, yet 44 px plus one ulp
        # from its anchor pixel, so it is not among the carried edges. Only
        # the slack of the stability test sends the row to its whole frame.
        xy = np.array([[-216.126, 16.264]])
        detection = np.array([[-218.37581797220616, 60.20644325355542]])
        anchor = Homography.identity()
        g = Homography([[1.0, 0.0, -0.20452890656421752], [0.0, 1.0, 3.9947675685050372], [0.0, 0.0, 1.0]])
        a, p = projected(anchor, xy)[0], projected(g, xy)[0]
        assert 4.0 * (1.0 - 1e-9) < np.hypot(*(p - a)) <= 4.0
        assert np.hypot(*(detection[0] - p)) <= 40.0
        assert np.hypot(*(detection[0] - a)) > 44.0
        _, counts = pair_in_turn([anchor, g], [(xy, detection)])
        assert counts == [0, 1]

    @pytest.mark.parametrize(
        "du, dv",
        [(4.0, 0.0), (0.0, -4.0), (np.nextafter(4.0, 5.0), 0.0), (0.0, np.nextafter(4.0, 5.0)), (3.999, 0.0)],
    )
    def test_moves_at_the_margin_and_one_float_past(self, du, dv):
        matrices = [_HORIZON, compose(translation_homography(du, dv), _HORIZON)]
        for seed in range(20):
            pair_in_turn(matrices + [_HORIZON], random_frames(seed, matrices))

    def test_horizon_crossings_both_ways(self):
        # x = -1000 is on the horizon of _HORIZON only, x = -2000 on that of g.
        g = Homography([[12.0, 0.5, 300.0], [-0.5, 12.0, 250.0], [0.0005, 0.0, 1.0]])
        xy = np.array([[-1000.0, 0.5], [-2000.0, 1.0], [1.0, 1.0], [2.0, -1.0]])
        assert projection_mask(_HORIZON.m, xy)[1].tolist() == [False, True, True, True]
        assert projection_mask(g.m, xy)[1].tolist() == [True, False, True, True]
        detections = np.concatenate(
            [projected(g, xy[0]) + 3.0, projected(_HORIZON, xy[1]) - 2.0, projected(_HORIZON, xy[2:]) + 1.0]
        )
        _, counts = pair_in_turn([_HORIZON, g, _HORIZON, g], [(xy, detections)])
        assert counts == [3, 3, 3, 3]

    def test_row_that_becomes_projectable_near_its_anchor_pixel(self):
        # Under the anchor, ground point (0, 0) has |w| < W_EPSILON yet a
        # finite pixel; under g it is projectable at about the same pixel.
        # It has no carried edge, so it must take its whole frame.
        anchor = Homography([[0.7, 0.0, 5e-12], [0.0, 0.7, 0.0], [-0.7, 0.0, 0.9e-12]])
        g = Homography([[0.7, 0.0, 5e-12 * 1.3 / 0.9], [0.0, 0.7, 0.0], [-0.7, 0.0, 1.3e-12]])
        xy = np.array([[0.0, 0.0], [1.0, -100.0]])
        uv_anchor, ok_anchor = projection_mask(anchor.m, xy)
        uv_g, ok_g = projection_mask(g.m, xy)
        assert ok_anchor.tolist() == [False, True] and ok_g.tolist() == [True, True]
        assert np.isfinite(uv_anchor).all() and np.hypot(*(uv_g[0] - uv_anchor[0])) < 1e-6
        frames = [(xy[:1], uv_g[:1] + [3.0, 0.0]), (xy[1:], uv_g[1:] + [0.0, 1.0])]
        _, counts = pair_in_turn([anchor, g], frames)
        assert counts == [1, 2]

    def test_empty_frames(self):
        rng = np.random.default_rng(3)
        xy = rng.uniform(-5.0, 5.0, (6, 2))
        frames = [
            (np.empty((0, 2)), np.empty((0, 2))),
            (xy[:3], np.empty((0, 2))),
            (np.empty((0, 2)), projected(_HORIZON, xy[:3])),
            (xy[3:], projected(_HORIZON, xy[3:]) + 5.0),
            (np.empty((0, 2)), np.empty((0, 2))),
        ]
        moves = [(0.5, 0.0), (3.0, 3.0), (100.0, 0.0), (0.0, 0.0)]
        matrices = [_HORIZON] + [compose(translation_homography(*m), _HORIZON) for m in moves]
        _, counts = pair_in_turn(matrices, frames)
        assert counts == [3, 3, 3, 0, 3]

    def test_costs_exactly_at_the_gate(self):
        g = compose(translation_homography(1.5, -0.5), _HORIZON)
        xy = np.array([[1.0, 2.0], [-2.0, 3.0]])
        p = projected(g, xy)
        at_gate = p[0] + [24.0, 32.0]
        past_gate = p[1] + [24.0, 32.0]
        past_gate[1] = np.nextafter(past_gate[1], np.inf)
        assert np.hypot(*(at_gate - p[0])) == 40.0 and np.hypot(*(past_gate - p[1])) > 40.0
        _, counts = pair_in_turn([_HORIZON, g], [(xy[:1], at_gate[None]), (xy[1:], past_gate[None])])
        assert counts[1] == 1

    def test_tied_costs(self):
        # Repeated points and detections tie exactly, within a row and
        # between rows; the lower row must win each tie.
        xy = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
        p = projected(_HORIZON, xy)
        detections = np.array([p[0] + 3.0, p[0] + 3.0, p[2] - 3.0, p[0] - 3.0])
        moves = [(0.1, 0.0), (5.0, 0.0), (0.0, 0.0)]
        matrices = [_HORIZON] + [compose(translation_homography(*m), _HORIZON) for m in moves]
        pair_in_turn(matrices, [(xy, detections), (xy[::-1], detections[::-1])])

    def test_a_large_move_anchors_anew(self):
        rng = np.random.default_rng(4)
        xy = rng.uniform(-5.0, 5.0, (8, 2))
        frames = [(xy, projected(_HORIZON, xy) + rng.normal(0.0, 2.0, (8, 2)))]
        small = compose(translation_homography(1.0, 0.5), _HORIZON)
        large = compose(translation_homography(100.0, 0.0), _HORIZON)
        carried, _ = pair_in_turn([_HORIZON, small], frames)
        assert np.array_equal(carried.uv, projected(_HORIZON, xy))
        carried, _ = pair_in_turn([_HORIZON, small, large], frames)
        assert np.array_equal(carried.uv, projected(large, xy))


def _simulated(seed: int):
    frames, gt = simulator.generate(simulator.SceneConfig(seed=seed, n_frames=12, n_objects=80))
    return [f.frame for f in frames], gt.h_true


_SIMULATED = [_simulated(seed) for seed in (0, 1)]


def same_result(a, b) -> bool:
    return (
        a.h_star.m.tobytes() == b.h_star.m.tobytes()
        and a.h_delta.m.tobytes() == b.h_delta.m.tobytes()
        and a.loss_trace == b.loss_trace
        and a.pairs_used == b.pairs_used
    )


class TestFitEqualsGridReference:
    @settings(max_examples=40)
    @given(scene=st.sampled_from([0, 1]), warp=pixel_warps())
    def test_fit_equals_rounds_of_grid_pairings(self, scene, warp):
        frames, h_true = _SIMULATED[scene]
        h0 = compose(warp, h_true)
        cfg = CorrectionConfig()
        assert same_result(fit_correction_stream(h0, frames, cfg), grid_fit(h0, frames, cfg))

    def test_lenient_branch_equals_the_reference(self):
        frames, h_true = _SIMULATED[0]
        h0 = compose(translation_homography(2.0, 1.0), h_true)
        cfg = CorrectionConfig(min_pairs=10**6)
        with pytest.raises(InsufficientPairs):
            fit_correction_stream(h0, frames, cfg)
        with pytest.raises(InsufficientPairs):
            grid_fit(h0, frames, cfg)
        result = fit_correction_stream(h0, frames, cfg, lenient=True)
        assert same_result(result, grid_fit(h0, frames, cfg, lenient=True))
        assert result.loss_trace == () and result.pairs_used > 0

    def test_frames_may_be_a_generator(self):
        frames, h_true = _SIMULATED[1]
        h0 = compose(translation_homography(-1.0, 2.0), h_true)
        cfg = CorrectionConfig()
        from_list = fit_correction_stream(h0, frames, cfg)
        assert from_list.pairs_used > 0
        assert same_result(fit_correction_stream(h0, iter(frames), cfg), from_list)
