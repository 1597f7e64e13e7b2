import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from calibrefine.errors import (
    DegenerateConfiguration,
    DegenerateProjection,
    EmptySet,
    InsufficientPairs,
    NonConvergenceWarning,
    SingularMatrixError,
)
from calibrefine.geometry import (
    Correspondence,
    Homography,
    PixelPoint,
    PlanePoint,
    ResidualReport,
    compose,
    correspondence_arrays,
    estimate_homography,
    project,
    refine_homography,
    reprojection_metrics,
)

from conftest import exact_pairs, naive_metrics, translation_homography, well_conditioned_homography


class TestProject:
    def test_identity(self):
        p = project(Homography.identity(), PlanePoint(3.0, 4.0))
        assert p.u == pytest.approx(3.0, abs=1e-12)
        assert p.v == pytest.approx(4.0, abs=1e-12)

    def test_pure_scaling(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        p = project(h, PlanePoint(3.0, 4.0))
        assert p.u == pytest.approx(6.0, abs=1e-12)
        assert p.v == pytest.approx(8.0, abs=1e-12)

    def test_perspective_division(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [0.1, 0, 1]])
        p = project(h, PlanePoint(1.0, 0.0))
        assert p.u == pytest.approx(1.0 / 1.1, abs=1e-12)
        assert p.v == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_projection_raises(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [0.1, 0, 1]])  # w = 0 at x = -10
        with pytest.raises(DegenerateProjection):
            project(h, PlanePoint(-10.0, 5.0))

    @pytest.mark.parametrize("lam", [-2.0, 0.5])
    def test_scale_invariance_power_of_two_is_exact(self, lam):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = well_conditioned_homography(rng)
            scaled = Homography(lam * h.m)
            assert np.array_equal(scaled.m, h.m)

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            h = well_conditioned_homography(rng)
            scaled = Homography(10.0 * h.m)
            for pair in exact_pairs(h, rng, 5):
                a = project(h, pair.lidar)
                b = project(scaled, pair.lidar)
                assert abs(a.u - b.u) < 1e-9 and abs(a.v - b.v) < 1e-9


class TestHomographyType:
    def test_canonical_form(self):
        h = Homography([[2.0, 0, 0], [0, 2.0, 0], [0, 0, 1.0]])
        assert np.linalg.norm(h.m) == pytest.approx(1.0, abs=1e-12)
        assert h.m[2, 2] >= 0

    def test_canonicalization_idempotent_bitwise(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            h = well_conditioned_homography(rng)
            again = Homography(h.m)
            assert np.array_equal(again.m, h.m)

    @settings(max_examples=500)
    @given(
        entries=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
            min_size=9,
            max_size=9,
        ),
        scale=st.floats(1e-100, 1e100),
    )
    def test_canonicalization_idempotent_bitwise_hypothesis(self, entries, scale):
        try:
            h = Homography(np.array(entries).reshape(3, 3) * scale)
        except SingularMatrixError:
            assume(False)
        assert np.array_equal(Homography(h.m).m, h.m)

    def test_sign_convention_negative_h33(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [0, 0, -1.0]])
        assert h.m[2, 2] > 0

    def test_sign_convention_zero_h33(self):
        h = Homography([[0, 0, -1], [0, -1, 0], [-1, 0, 0]])
        flat = h.m.ravel()
        assert h.m[2, 2] == 0
        assert flat[np.flatnonzero(flat)[0]] > 0

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            Homography(np.ones((3, 3)))

    def test_singular_with_subnormal_entry_rejected_without_runtime_warning(self):
        m = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.1125369292536007e-308, 1.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularMatrixError):
                Homography(m)

    def test_non_finite_rejected(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            Homography(m)

    def test_point_invariants(self):
        with pytest.raises(ValueError):
            PlanePoint(math.inf, 0.0)
        with pytest.raises(ValueError):
            PixelPoint(0.0, math.nan)
        with pytest.raises(ValueError):
            Correspondence(PlanePoint(0, 0), PixelPoint(0, 0), frame_id=-1)


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(10)
        h = well_conditioned_homography(rng)
        assert np.allclose(compose(h, Homography.identity()).m, h.m, atol=1e-15)

    def test_inverse_pair_gives_identity(self):
        a = Homography(np.diag([2.0, 2.0, 1.0]))
        b = Homography(np.diag([0.5, 0.5, 1.0]))
        assert np.allclose(compose(a, b).m, Homography.identity().m, atol=1e-15)

    def test_translations_add(self):
        h = compose(translation_homography(3.0, 0.0), translation_homography(0.0, 4.0))
        p = project(h, PlanePoint(0.0, 0.0))
        assert p.u == pytest.approx(3.0, abs=1e-12)
        assert p.v == pytest.approx(4.0, abs=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (well_conditioned_homography(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert np.allclose(left.m, right.m, atol=1e-12)

    def test_matches_projection_chain(self):
        rng = np.random.default_rng(12)
        outer = well_conditioned_homography(rng)
        inner = translation_homography(1.0, -2.0)
        combined = compose(outer, inner)
        for pair in exact_pairs(combined, rng, 10):
            via_inner = project(inner, pair.lidar)
            direct = project(combined, pair.lidar)
            chained = project(outer, PlanePoint(via_inner.u, via_inner.v))
            assert math.hypot(direct.u - chained.u, direct.v - chained.v) < 1e-8


class TestReprojectionMetrics:
    def test_exact_pairs_zero(self):
        rng = np.random.default_rng(13)
        h = well_conditioned_homography(rng)
        report = reprojection_metrics(h, *correspondence_arrays(exact_pairs(h, rng, 20)))
        assert report.aed == pytest.approx(0.0, abs=1e-9)
        assert report.rmse == pytest.approx(0.0, abs=1e-9)

    def test_three_four_five_single_pair(self):
        h = Homography.identity()
        pairs = [Correspondence(PlanePoint(0, 0), PixelPoint(3.0, 4.0))]
        report = reprojection_metrics(h, *correspondence_arrays(pairs))
        assert report.aed == pytest.approx(5.0, abs=1e-12)
        assert report.rmse == pytest.approx(5.0, abs=1e-12)
        assert report.n == 1

    def test_mixed_residuals(self):
        h = Homography.identity()
        pairs = [
            Correspondence(PlanePoint(1, 1), PixelPoint(1.0, 1.0)),
            Correspondence(PlanePoint(2, 2), PixelPoint(8.0, 10.0)),  # residual 10
        ]
        report = reprojection_metrics(h, *correspondence_arrays(pairs))
        assert report.aed == pytest.approx(5.0, abs=1e-12)
        assert report.rmse == pytest.approx(math.sqrt(50.0), abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            reprojection_metrics(Homography.identity(), np.empty((0, 2)), np.empty((0, 2)))

    def test_matches_naive_loop_and_power_mean(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            h = well_conditioned_homography(rng)
            pairs = exact_pairs(h, rng, int(rng.integers(1, 30)))
            pairs = [
                Correspondence(
                    c.lidar,
                    PixelPoint(c.pixel.u + rng.normal(0, 3), c.pixel.v + rng.normal(0, 3)),
                )
                for c in pairs
            ]
            report = reprojection_metrics(h, *correspondence_arrays(pairs))
            res, aed, rmse = naive_metrics(h, pairs)
            assert report.aed == pytest.approx(aed, abs=1e-12)
            assert report.rmse == pytest.approx(rmse, abs=1e-12)
            assert np.allclose(report.per_pair, res, atol=1e-12)
            assert report.rmse >= report.aed - 1e-12

    def test_equal_residuals_make_aed_equal_rmse(self):
        h = Homography.identity()
        pairs = [
            Correspondence(PlanePoint(0, 0), PixelPoint(3.0, 4.0)),
            Correspondence(PlanePoint(10, 10), PixelPoint(14.0, 13.0)),
        ]
        report = reprojection_metrics(h, *correspondence_arrays(pairs))
        assert report.rmse == pytest.approx(report.aed, abs=1e-9)

    def test_rmse_of_huge_residual_is_finite_without_warning(self):
        # 1e300 squared overflows; the RMSE itself, 1e300 / sqrt(2), does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ResidualReport.from_residuals([1e300, 1.0])
        assert report.rmse == pytest.approx(1e300 / math.sqrt(2.0), rel=1e-15)


class TestEstimateHomography:
    def test_fixed_points_give_identity(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        pairs = [Correspondence(PlanePoint(x, y), PixelPoint(x, y)) for x, y in pts]
        h = estimate_homography(*correspondence_arrays(pairs))
        assert np.allclose(h.m, Homography.identity().m, atol=1e-10)

    def test_translation_recovered(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        pairs = [Correspondence(PlanePoint(x, y), PixelPoint(x + 10.0, y + 5.0)) for x, y in pts]
        h = estimate_homography(*correspondence_arrays(pairs))
        expected = translation_homography(10.0, 5.0)
        assert np.allclose(h.m, expected.m, atol=1e-10)

    def test_round_trip_twenty_pairs(self):
        rng = np.random.default_rng(15)
        h = well_conditioned_homography(rng)
        recovered = estimate_homography(*correspondence_arrays(exact_pairs(h, rng, 20)))
        assert np.max(np.abs(recovered.m - h.m)) < 1e-8

    def test_minimal_sample_reproduces_pairs(self):
        rng = np.random.default_rng(16)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 4)
        fitted = estimate_homography(*correspondence_arrays(pairs))
        report = reprojection_metrics(fitted, *correspondence_arrays(pairs))
        assert np.all(report.per_pair <= 1e-8)

    def test_insufficient_pairs(self):
        rng = np.random.default_rng(17)
        h = well_conditioned_homography(rng)
        with pytest.raises(InsufficientPairs):
            estimate_homography(*correspondence_arrays(exact_pairs(h, rng, 3)))

    def test_collinear_points_degenerate(self):
        pairs = [
            Correspondence(PlanePoint(float(i), float(i)), PixelPoint(float(i), float(i)))
            for i in range(6)
        ]
        with pytest.raises(DegenerateConfiguration):
            estimate_homography(*correspondence_arrays(pairs))

    def test_coincident_points_degenerate(self):
        pairs = [Correspondence(PlanePoint(1.0, 2.0), PixelPoint(3.0, 4.0))] * 5
        with pytest.raises(DegenerateConfiguration):
            estimate_homography(*correspondence_arrays(pairs))


class TestRefineHomography:
    def test_optimal_start_is_fixed_point(self):
        rng = np.random.default_rng(18)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergenceWarning)
            refined = refine_homography(*correspondence_arrays(pairs), h)
        assert reprojection_metrics(refined, *correspondence_arrays(pairs)).aed < 1e-9

    def test_recovers_from_pixel_shift(self):
        rng = np.random.default_rng(19)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 50)
        h0 = compose(translation_homography(0.5, 0.0), h)
        refined = refine_homography(*correspondence_arrays(pairs), h0)
        assert np.max(np.abs(refined.m - h.m)) < 1e-6

    def test_noisy_pairs_never_worse_than_start(self):
        rng = np.random.default_rng(20)
        h = well_conditioned_homography(rng)
        pairs = [
            Correspondence(
                c.lidar, PixelPoint(c.pixel.u + rng.normal(0, 1.0), c.pixel.v + rng.normal(0, 1.0))
            )
            for c in exact_pairs(h, rng, 60)
        ]
        h0 = compose(translation_homography(2.0, -1.0), h)
        refined = refine_homography(*correspondence_arrays(pairs), h0)
        assert (
            reprojection_metrics(refined, *correspondence_arrays(pairs)).aed
            <= reprojection_metrics(h0, *correspondence_arrays(pairs)).aed
        )

    def test_insufficient_pairs(self):
        with pytest.raises(InsufficientPairs):
            refine_homography(np.empty((0, 2)), np.empty((0, 2)), Homography.identity())

    def test_iteration_cap_warns_and_returns_best_iterate(self):
        rng = np.random.default_rng(21)
        h = well_conditioned_homography(rng)
        pairs = [
            Correspondence(
                c.lidar, PixelPoint(c.pixel.u + rng.normal(0, 2.0), c.pixel.v + rng.normal(0, 2.0))
            )
            for c in exact_pairs(h, rng, 40)
        ]
        h0 = compose(translation_homography(25.0, -30.0), h)
        with pytest.warns(NonConvergenceWarning):
            refined = refine_homography(*correspondence_arrays(pairs), h0, max_iterations=1)
        assert (
            reprojection_metrics(refined, *correspondence_arrays(pairs)).aed
            <= reprojection_metrics(h0, *correspondence_arrays(pairs)).aed
        )
