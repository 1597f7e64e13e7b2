import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from calibrefine.errors import (
    DegenerateConfiguration,
    DegenerateProjection,
    EmptySet,
    InsufficientPairs,
    NonConvergenceWarning,
    SingularMatrixError,
)
from calibrefine.geometry import (
    Frame,
    Homography,
    PairSet,
    ResidualReport,
    Source,
    compose,
    correspondence_arrays,
    estimate_homography,
    refine_homography,
    reprojection_metrics,
)

from conftest import (
    assert_same_pairs,
    exact_pairs,
    naive_metrics,
    pair_set,
    project_one,
    translation_homography,
    well_conditioned_homography,
)


class TestProject:
    def test_identity(self):
        u, v = project_one(Homography.identity(), 3.0, 4.0)
        assert u == pytest.approx(3.0, abs=1e-12)
        assert v == pytest.approx(4.0, abs=1e-12)

    def test_pure_scaling(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        u, v = project_one(h, 3.0, 4.0)
        assert u == pytest.approx(6.0, abs=1e-12)
        assert v == pytest.approx(8.0, abs=1e-12)

    def test_perspective_division(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [0.1, 0, 1]])
        u, v = project_one(h, 1.0, 0.0)
        assert u == pytest.approx(1.0 / 1.1, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_projection_raises(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [0.1, 0, 1]])  # w = 0 at x = -10
        with pytest.raises(DegenerateProjection):
            project_one(h, -10.0, 5.0)

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
            for x, y in exact_pairs(h, rng, 5).xy.tolist():
                a = project_one(h, x, y)
                b = project_one(scaled, x, y)
                assert abs(a[0] - b[0]) < 1e-9 and abs(a[1] - b[1]) < 1e-9


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

    @pytest.mark.parametrize(
        "matrix",
        [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], [[True, 0, 0], [0, 1, 0], [0, 0, 1]],
         np.eye(3, dtype=bool), np.eye(3).astype(str)],
        ids=["strings", "bool", "bool-array", "string-array"],
    )
    def test_rejects_strings_and_booleans_as_entries(self, matrix):
        with pytest.raises(ValueError, match="homography entries must hold integers or floats"):
            Homography(matrix)
        assert Homography([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == Homography(np.eye(3, dtype=np.int32))

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
            pair_set([[math.inf, 0.0]], [[0.0, 0.0]])
        with pytest.raises(ValueError):
            pair_set([[0.0, 0.0]], [[0.0, math.nan]])
        with pytest.raises(ValueError):
            pair_set([[0.0, 0.0]], [[0.0, 0.0]], frame_id=-1)


class TestFrame:
    @pytest.mark.parametrize(
        "points",
        [
            [[1.0, math.nan]],
            [[math.inf, 2.0]],
            [[1.0, 2.0], [-math.inf, 0.0]],
            [[1.0, 2.0, 3.0]],
            [1.0, 2.0],
            [[[1.0, 2.0]]],
            np.empty((0, 3)),
        ],
        ids=["nan", "inf", "-inf", "three-columns", "flat", "three-dims", "empty-three-columns"],
    )
    def test_rejects_non_finite_and_misshaped_points(self, points):
        with pytest.raises(ValueError):
            Frame(0, points, [])
        with pytest.raises(ValueError):
            Frame(0, [], points)

    @pytest.mark.parametrize(
        "points",
        [[["7", "8"]], [[True, 3.0]], [(1.0, 2.0), (np.bool_(True), 3.0)], np.array([["7", "8"]]),
         np.array([[True, False]]), np.array([[1.0, 2.0]], dtype=object)],
        ids=["string", "bool", "numpy-bool", "string-array", "bool-array", "object-array"],
    )
    def test_rejects_strings_and_booleans_as_numbers(self, points):
        for lidar, camera in ((points, []), ([], points)):
            with pytest.raises(ValueError, match="must hold integers or floats"):
                Frame(0, lidar, camera)

    def test_integer_and_float_coordinates_of_any_width_pass(self):
        frame = Frame(0, [(np.int64(1), np.float32(2.0)), (3, 4.5)], np.array([[5, 6]], dtype=np.uint8))
        assert frame.lidar_centers.tolist() == [[1.0, 2.0], [3.0, 4.5]]
        assert frame.camera_centers.tolist() == [[5.0, 6.0]]

    def test_holds_read_only_float_copies(self):
        lidar = np.array([[1.0, 2.0], [3.0, 4.0]])
        frame = Frame(3, lidar, [[5, 6]])
        lidar[0, 0] = -1.0
        assert frame.lidar_centers.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert frame.camera_centers.dtype == np.float64
        assert Frame(4, [], ()).lidar_centers.shape == (0, 2)
        for points in (frame.lidar_centers, frame.camera_centers):
            with pytest.raises(ValueError):
                points[0, 0] = 0.0


    def test_rejects_negative_frame_id(self):
        with pytest.raises(ValueError, match="frame_id must be non-negative"):
            Frame(-1, [[1.0, 2.0]], [])


_coordinates = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324]), st.floats(allow_nan=False, allow_infinity=False)
)
_frame_ids = st.one_of(st.just(2**63 - 1), st.integers(0, 2**63 - 1))


def two_pairs(**columns) -> PairSet:
    return PairSet(**{
        "xy": [[0.5, -1.0], [2.0, 3.0]],
        "uv": [[10.0, 20.0], [-0.0, 5e-324]],
        "frame_ids": [4, 9],
        "source": [Source.ORACLE, Source.MANUAL],
        **columns,
    })


class TestPairSet:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(*[_coordinates] * 4, _frame_ids, st.sampled_from(Source)), max_size=6))
    @example([])
    @example([
        (0.5, -1.0, 10.0, 20.0, 4, Source.ORACLE),
        (2.0, 3.0, -0.0, 5e-324, 2**63 - 1, Source.MANUAL),
    ])
    def test_iteration_yields_rows_and_an_integer_index_is_refused(self, rows):
        pairs = PairSet(
            np.reshape([r[:2] for r in rows], (-1, 2)),
            np.reshape([r[2:4] for r in rows], (-1, 2)),
            np.array([r[4] for r in rows], dtype=np.int64),
            [r[5] for r in rows],
        )
        listed = list(pairs)
        assert repr(listed) == repr(rows)  # repr tells -0.0 from 0.0
        for row in listed:
            assert [type(c) for c in row] == [float] * 4 + [int, Source] and type(row) is tuple
        assert_same_pairs(PairSet.of(listed), pairs)
        assert PairSet.of(pairs) is pairs
        for k in (0, -1, np.int64(0)):
            with pytest.raises(TypeError, match="an index array, a mask or a slice"):
                pairs[k]
        for k in range(len(pairs)):
            assert list(pairs[[k]]) == [listed[k]]
            for column, bad in ((0, math.nan), (1, True), (2, "1.5"), (3, -math.inf), (4, -1), (5, "oracle")):
                broken = list(listed[k])
                broken[column] = bad
                with pytest.raises(ValueError):
                    PairSet.of(listed[:k] + [tuple(broken)] + listed[k + 1 :])

    def test_index_array_and_slice_yield_pair_sets(self):
        pairs = two_pairs()
        for index in (np.array([1, 0, 1]), [1], slice(1, None), np.array([False, True]), []):
            picked = pairs[index]
            assert isinstance(picked, PairSet)
            rows = np.arange(2)[index]
            assert list(picked) == [list(pairs)[i] for i in rows]

    def test_one_source_stands_for_every_row(self):
        pairs = two_pairs(source=Source.GREEDY_MATCHED)
        assert pairs.source.tolist() == [Source.GREEDY_MATCHED] * 2

    def test_holds_read_only_copies(self):
        xy = np.array([[0.5, -1.0], [2.0, 3.0]])
        frame_ids = np.array([4, 9])
        pairs = two_pairs(xy=xy, frame_ids=frame_ids)
        xy[0, 0] = frame_ids[0] = 7
        assert pairs.xy[0, 0] == 0.5 and pairs.frame_ids[0] == 4
        assert pairs.frame_ids.dtype == np.int64
        for column in (pairs.xy, pairs.uv, pairs.frame_ids, pairs.source):
            assert not column.flags.writeable

    def test_empty(self):
        pairs = PairSet([], [], [], [])
        assert len(pairs) == 0 and not pairs and list(pairs) == []
        assert pairs.xy.shape == pairs.uv.shape == (0, 2)
        assert len(PairSet.concat([])) == 0

    def test_concat_keeps_row_order(self):
        a, b = two_pairs(), two_pairs(frame_ids=[11, 12], source=Source.ORACLE)
        joined = PairSet.concat([a, PairSet([], [], [], []), b])
        assert list(joined) == list(a) + list(b)

    @pytest.mark.parametrize(
        "columns",
        [
            {"xy": [[0.5, math.nan], [2.0, 3.0]]},
            {"uv": [[10.0, 20.0], [math.inf, 0.0]]},
            {"xy": [[0.5, -1.0, 0.0], [2.0, 3.0, 0.0]]},
            {"uv": [[10.0, 20.0]]},
            {"frame_ids": [4]},
            {"frame_ids": [4, -1]},
            {"frame_ids": [4.0, 9.0]},
            {"frame_ids": [True, False]},
            {"frame_ids": [4, 2**63]},
            {"source": [Source.ORACLE]},
            {"source": ["oracle", "manual"]},
            {"xy": [["0.5", -1.0], [2.0, 3.0]]},
            {"uv": [[True, 20.0], [-0.0, 5e-324]]},
            {"xy": np.array([[0.5, -1.0], [2.0, 3.0]]).astype(str)},
            {"uv": np.array([[True, False], [False, True]])},
            {"xy": np.array([[0.5, -1.0], [2.0, 3.0]], dtype=object)},
        ],
        ids=["nan", "inf", "three-columns", "short-uv", "short-ids", "negative-id",
             "float-ids", "bool-ids", "uint64-ids", "short-source", "source-strings",
             "string-coordinate", "bool-coordinate", "string-array", "bool-array", "object-array"],
    )
    def test_rejects_invalid_columns(self, columns):
        with pytest.raises(ValueError):
            two_pairs(**columns)

    def test_correspondence_arrays_returns_the_columns(self):
        pairs = two_pairs()
        xy, uv = correspondence_arrays(pairs)
        assert xy is pairs.xy and uv is pairs.uv


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
        u, v = project_one(h, 0.0, 0.0)
        assert u == pytest.approx(3.0, abs=1e-12)
        assert v == pytest.approx(4.0, abs=1e-12)

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
        for x, y in exact_pairs(combined, rng, 10).xy.tolist():
            direct = project_one(combined, x, y)
            chained = project_one(outer, *project_one(inner, x, y))
            assert math.hypot(direct[0] - chained[0], direct[1] - chained[1]) < 1e-8


class TestReprojectionMetrics:
    def test_exact_pairs_zero(self):
        rng = np.random.default_rng(13)
        h = well_conditioned_homography(rng)
        report = reprojection_metrics(h, *correspondence_arrays(exact_pairs(h, rng, 20)))
        assert report.aed == pytest.approx(0.0, abs=1e-9)
        assert report.rmse == pytest.approx(0.0, abs=1e-9)

    def test_three_four_five_single_pair(self):
        h = Homography.identity()
        pairs = pair_set([[0, 0]], [[3.0, 4.0]])
        report = reprojection_metrics(h, *correspondence_arrays(pairs))
        assert report.aed == pytest.approx(5.0, abs=1e-12)
        assert report.rmse == pytest.approx(5.0, abs=1e-12)
        assert report.n == 1

    def test_mixed_residuals(self):
        h = Homography.identity()
        pairs = pair_set([[1, 1], [2, 2]], [[1.0, 1.0], [8.0, 10.0]])  # residuals 0 and 10
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
            pairs = pair_set(pairs.xy, pairs.uv + rng.normal(0, 3, size=pairs.uv.shape))
            report = reprojection_metrics(h, *correspondence_arrays(pairs))
            res, aed, rmse = naive_metrics(h, pairs)
            assert report.aed == pytest.approx(aed, abs=1e-12)
            assert report.rmse == pytest.approx(rmse, abs=1e-12)
            assert np.allclose(report.per_pair, res, atol=1e-12)
            assert report.rmse >= report.aed - 1e-12

    def test_equal_residuals_make_aed_equal_rmse(self):
        h = Homography.identity()
        pairs = pair_set([[0, 0], [10, 10]], [[3.0, 4.0], [14.0, 13.0]])
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
        pairs = pair_set(pts, pts)
        h = estimate_homography(*correspondence_arrays(pairs))
        assert np.allclose(h.m, Homography.identity().m, atol=1e-10)

    def test_translation_recovered(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        pairs = pair_set(pts, [(x + 10.0, y + 5.0) for x, y in pts])
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
        pairs = pair_set([(i, i) for i in range(6)], [(i, i) for i in range(6)])
        with pytest.raises(DegenerateConfiguration):
            estimate_homography(*correspondence_arrays(pairs))

    def test_coincident_points_degenerate(self):
        pairs = pair_set([(1.0, 2.0)] * 5, [(3.0, 4.0)] * 5)
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
        pairs = exact_pairs(h, rng, 60)
        pairs = pair_set(pairs.xy, pairs.uv + rng.normal(0, 1.0, size=pairs.uv.shape))
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
        pairs = exact_pairs(h, rng, 40)
        pairs = pair_set(pairs.xy, pairs.uv + rng.normal(0, 2.0, size=pairs.uv.shape))
        h0 = compose(translation_homography(25.0, -30.0), h)
        with pytest.warns(NonConvergenceWarning):
            refined = refine_homography(*correspondence_arrays(pairs), h0, max_iterations=1)
        assert (
            reprojection_metrics(refined, *correspondence_arrays(pairs)).aed
            <= reprojection_metrics(h0, *correspondence_arrays(pairs)).aed
        )
