import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calibrefine.correction import (
    CorrectionConfig,
    fit_correction_stream,
    implicit_pairs,
    reprojection_loss,
    reprojection_loss_gradient,
)
from calibrefine.errors import DegenerateProjection, InsufficientPairs
from calibrefine.geometry import (
    Frame,
    Homography,
    PixelPoint,
    PlanePoint,
    compose,
    correspondence_arrays,
    project,
    refine_homography,
)
from calibrefine.matching import MatchGate

from conftest import (
    exact_pairs,
    naive_greedy,
    point_array,
    translation_homography,
    well_conditioned_homography,
)


def dense_scene(rng, h, n=200):
    """Plane points plus their exact detections under h."""
    pairs = exact_pairs(h, rng, n)
    lidar = [c.lidar for c in pairs]
    camera = [c.pixel for c in pairs]
    return lidar, camera


def scene_homography():
    return Homography([[12.0, 0.5, 300.0], [-0.5, 12.0, 250.0], [0.0, 0.0, 1.0]])


class TestImplicitPairs:
    def test_exact_overlay_pairs_everything(self):
        rng = np.random.default_rng(0)
        h = scene_homography()
        lidar, camera = dense_scene(rng, h, 30)
        xy, uv = implicit_pairs(
            h, point_array(lidar), point_array(camera), [len(lidar)], [len(camera)], MatchGate(40.0)
        )
        assert len(xy) == 30

    def test_gate_excludes_all(self):
        h = scene_homography()
        lidar = [PlanePoint(0.0, 0.0)]
        camera = [PixelPoint(project(h, lidar[0]).u + 100.0, project(h, lidar[0]).v)]
        xy, uv = implicit_pairs(
            h, point_array(lidar), point_array(camera), [len(lidar)], [len(camera)], MatchGate(40.0)
        )
        assert xy.shape == (0, 2) and uv.shape == (0, 2)

    def test_injection_two_projections_one_detection(self):
        h = Homography.identity()
        lidar = [PlanePoint(0.0, 0.0), PlanePoint(1.0, 0.0)]
        camera = [PixelPoint(0.4, 0.0)]
        xy, uv = implicit_pairs(
            h, point_array(lidar), point_array(camera), [len(lidar)], [len(camera)], MatchGate(40.0)
        )
        assert len(xy) == 1
        assert tuple(xy[0]) == (lidar[0].x, lidar[0].y)  # the nearer projection wins

    def test_degenerate_projection_in_a_middle_frame(self):
        # frame 1 holds a LiDAR point on the horizon (w = 0) between two good
        # ones; the frames after it must still pair with their own detections
        rng = np.random.default_rng(11)
        h = Homography([[12.0, 0.5, 300.0], [-0.5, 12.0, 250.0], [0.001, 0.0, 1.0]])
        frames = [exact_pairs(h, rng, n) for n in (3, 2, 4)]
        lidar = [[c.lidar for c in f] for f in frames]
        camera = [[c.pixel for c in f] for f in frames]
        lidar[1].insert(1, PlanePoint(-1000.0, 0.5))
        xy, uv = implicit_pairs(
            h,
            point_array([p for f in lidar for p in f]),
            point_array([p for f in camera for p in f]),
            [len(f) for f in lidar],
            [len(f) for f in camera],
            MatchGate(40.0),
        )

        expected_xy, expected_uv = [], []
        for frame_lidar, frame_camera in zip(lidar, camera):
            projected, kept = [], []
            for p in frame_lidar:
                try:
                    projected.append(project(h, p))
                    kept.append(p)
                except DegenerateProjection:
                    pass
            costs = np.array(
                [[np.hypot(p.u - d.u, p.v - d.v) for d in frame_camera] for p in projected]
            )
            for i, j, _ in naive_greedy(costs, 40.0):
                expected_xy.append((kept[i].x, kept[i].y))
                expected_uv.append((frame_camera[j].u, frame_camera[j].v))
        assert len(expected_xy) == 9
        assert xy.tolist() == [list(p) for p in expected_xy]
        assert uv.tolist() == [list(p) for p in expected_uv]


class TestLossAndGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 25)
        pairs = [
            type(c)(c.lidar, PixelPoint(c.pixel.u + rng.normal(0, 2), c.pixel.v + rng.normal(0, 2)))
            for c in pairs
        ]
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
        camera = [PixelPoint(p.u + rng.normal(0, 1.0), p.v + rng.normal(0, 1.0)) for p in camera]
        h0 = compose(translation_homography(3.0, -2.0), h_true)
        result = fit_correction_stream(
            h0, [Frame(0, point_array(lidar), point_array(camera))], CorrectionConfig()
        )
        trace = result.loss_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert trace[-1] <= trace[0]

    def test_insufficient_pairs_strict_and_lenient(self):
        h = scene_homography()
        lidar = [PlanePoint(0.0, 0.0)]
        camera = [project(h, lidar[0])]
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
        lidar = [PlanePoint(float(x), float(y)) for x in grid for y in grid]
        camera = [project(h_true, p) for p in lidar]
        camera = [PixelPoint(p.u + rng.normal(0, 1.0), p.v + rng.normal(0, 1.0)) for p in camera]
        h0 = compose(translation_homography(2.0, -1.5), h_true)
        result = fit_correction_stream(
            h0, [Frame(0, point_array(lidar), point_array(camera))], CorrectionConfig()
        )
        assert result.pairs_used == len(lidar)
        refit = refine_homography(point_array(lidar), point_array(camera), h0)
        assert np.max(np.abs(result.h_star.m - refit.m)) < 1e-9


_PERTURBED_SCENE = dense_scene(np.random.default_rng(9), scene_homography(), 80)
_NOISY_CAMERA = [
    PixelPoint(p.u + du, p.v + dv)
    for p, (du, dv) in zip(_PERTURBED_SCENE[1], np.random.default_rng(10).normal(0, 0.5, (80, 2)))
]


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
        xy, uv = implicit_pairs(
            result.h_star,
            point_array(_PERTURBED_SCENE[0]),
            point_array(_NOISY_CAMERA),
            [len(_PERTURBED_SCENE[0])],
            [len(_NOISY_CAMERA)],
            cfg.gate,
        )
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
            points.append(([c.lidar for c in pairs], [c.pixel for c in pairs]))
        orphans = exact_pairs(h, rng, 6)
        # LiDAR without detections, then the matching detections one frame
        # later: a pairing that crossed frames would pair all six.
        points.append(([c.lidar for c in orphans], []))
        points.append(([], [c.pixel for c in orphans]))
        # every LiDAR point on the horizon line (w = 0) projects degenerately
        horizon = [PlanePoint(-1000.0, float(y)) for y in rng.uniform(-5, 5, 4)]
        points.append((horizon, [c.pixel for c in exact_pairs(h, rng, 4)]))
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
                    projected.append(project(h, p))
                except DegenerateProjection:
                    degenerate += 1
            costs = np.array(
                [[np.hypot(p.u - d.u, p.v - d.v) for d in camera] for p in projected]
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
