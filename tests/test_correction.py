import numpy as np
import pytest

from calibrefine.correction import (
    CorrectionConfig,
    fit_correction,
    fit_correction_stream,
    implicit_pairs,
    reprojection_loss,
    reprojection_loss_gradient,
)
from calibrefine.errors import DegenerateProjection, InsufficientPairs
from calibrefine.geometry import (
    Homography,
    PixelPoint,
    PlanePoint,
    compose,
    correspondence_arrays,
    project,
)
from calibrefine.matching import MatchGate
from calibrefine.refine import Frame

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
        xy, uv = implicit_pairs(h, point_array(lidar), point_array(camera), MatchGate(40.0))
        assert len(xy) == 30

    def test_gate_excludes_all(self):
        h = scene_homography()
        lidar = [PlanePoint(0.0, 0.0)]
        camera = [PixelPoint(project(h, lidar[0]).u + 100.0, project(h, lidar[0]).v)]
        xy, uv = implicit_pairs(h, point_array(lidar), point_array(camera), MatchGate(40.0))
        assert xy.shape == (0, 2) and uv.shape == (0, 2)

    def test_injection_two_projections_one_detection(self):
        h = Homography.identity()
        lidar = [PlanePoint(0.0, 0.0), PlanePoint(1.0, 0.0)]
        camera = [PixelPoint(0.4, 0.0)]
        xy, uv = implicit_pairs(h, point_array(lidar), point_array(camera), MatchGate(40.0))
        assert len(xy) == 1
        assert tuple(xy[0]) == (lidar[0].x, lidar[0].y)  # the nearer projection wins


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
        result = fit_correction(h, lidar, camera, CorrectionConfig())
        assert np.max(np.abs(result.h_delta.m - Homography.identity().m)) < 1e-8
        assert len(result.loss_trace) == 1
        assert result.loss_trace[0] == pytest.approx(0.0, abs=1e-12)

    def test_recovers_known_pixel_translation(self):
        rng = np.random.default_rng(2)
        h_true = scene_homography()
        lidar, camera = dense_scene(rng, h_true, 200)
        h_perturbed = compose(translation_homography(2.0, 0.0), h_true)
        result = fit_correction(h_perturbed, lidar, camera, CorrectionConfig())
        assert np.max(np.abs(result.h_star.m - h_true.m)) < 1e-6
        assert result.loss_trace[-1] < 1e-10

    def test_noisy_scene_loss_never_increases(self):
        rng = np.random.default_rng(3)
        h_true = scene_homography()
        lidar, camera = dense_scene(rng, h_true, 150)
        camera = [PixelPoint(p.u + rng.normal(0, 1.0), p.v + rng.normal(0, 1.0)) for p in camera]
        h0 = compose(translation_homography(3.0, -2.0), h_true)
        result = fit_correction(h0, lidar, camera, CorrectionConfig())
        trace = result.loss_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert trace[-1] <= trace[0]

    def test_insufficient_pairs_strict_and_lenient(self):
        h = scene_homography()
        lidar = [PlanePoint(0.0, 0.0)]
        camera = [project(h, lidar[0])]
        cfg = CorrectionConfig(min_pairs=12)
        with pytest.raises(InsufficientPairs):
            fit_correction(h, lidar, camera, cfg)
        result = fit_correction(h, lidar, camera, cfg, lenient=True)
        assert result.h_delta == Homography.identity()
        assert np.allclose(result.h_star.m, h.m, atol=1e-15)
        assert result.loss_trace == ()

    def test_gauge_and_composition_invariants(self):
        rng = np.random.default_rng(4)
        h_true = scene_homography()
        lidar, camera = dense_scene(rng, h_true, 100)
        h0 = compose(translation_homography(1.5, 1.0), h_true)
        result = fit_correction(h0, lidar, camera, CorrectionConfig())
        assert np.linalg.norm(result.h_delta.m) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(result.h_star.m) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(compose(h0, result.h_delta).m - result.h_star.m)) < 1e-12

    def test_identity_fixed_point_first_step(self):
        from calibrefine.correction import _FREE, _residuals_and_jacobian
        from calibrefine.geometry import correspondence_arrays
        from calibrefine.lsq import damped_least_squares

        rng = np.random.default_rng(5)
        h = scene_homography()
        pairs = exact_pairs(h, rng, 50)
        xy, uv = correspondence_arrays(pairs)
        full = np.eye(3).ravel()

        def fun(free):
            full[_FREE] = free
            r, jac = _residuals_and_jacobian(h.m, full, xy, uv)
            return r, jac[:, _FREE]

        solved = damped_least_squares(fun, np.eye(3).ravel()[_FREE], max_iterations=5)
        assert solved.first_step_norm < 1e-8


class TestFitCorrectionStream:
    def test_framewise_pairing_recovers_perturbation(self):
        rng = np.random.default_rng(6)
        h_true = scene_homography()
        frames = []
        for fid in range(40):
            pairs = exact_pairs(h_true, rng, 6)
            frames.append(
                Frame(
                    frame_id=fid,
                    lidar_centers=tuple(c.lidar for c in pairs),
                    camera_centers=tuple(c.pixel for c in pairs),
                )
            )
        h0 = compose(translation_homography(-2.0, 1.0), h_true)
        result = fit_correction_stream(h0, frames, CorrectionConfig())
        assert np.max(np.abs(result.h_star.m - h_true.m)) < 1e-6
        assert result.pairs_used == 240

    def test_empty_and_degenerate_frames_pair_within_frames(self):
        rng = np.random.default_rng(7)
        h = Homography([[12.0, 0.5, 300.0], [-0.5, 12.0, 250.0], [0.001, 0.0, 1.0]])
        frames = []
        for fid in range(10):
            pairs = exact_pairs(h, rng, 6)
            frames.append(Frame(fid, tuple(c.lidar for c in pairs), tuple(c.pixel for c in pairs)))
        orphans = exact_pairs(h, rng, 6)
        # LiDAR without detections, then the matching detections one frame
        # later: a pairing that crossed frames would pair all six.
        frames.append(Frame(10, tuple(c.lidar for c in orphans), ()))
        frames.append(Frame(11, (), tuple(c.pixel for c in orphans)))
        # every LiDAR point on the horizon line (w = 0) projects degenerately
        horizon = tuple(PlanePoint(-1000.0, float(y)) for y in rng.uniform(-5, 5, 4))
        frames.append(Frame(12, horizon, tuple(c.pixel for c in exact_pairs(h, rng, 4))))
        frames.append(Frame(13, (), ()))

        expected = degenerate = 0
        for frame in frames:
            projected = []
            for p in frame.lidar_centers:
                try:
                    projected.append(project(h, p))
                except DegenerateProjection:
                    degenerate += 1
            costs = np.array(
                [[np.hypot(p.u - d.u, p.v - d.v) for d in frame.camera_centers] for p in projected]
            ).reshape(len(projected), len(frame.camera_centers))
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
