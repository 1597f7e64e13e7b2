import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibrefine.errors import (
    CalibrationError,
    ConsensusFailure,
    DegenerateConfiguration,
    InsufficientPairs,
    NonConvergenceWarning,
)
from calibrefine.geometry import (
    correspondence_arrays,
    estimate_homography,
    refine_homography,
    refit_inliers,
    reprojection_metrics,
    transform_points,
)
from calibrefine.ransac import (
    MINIMAL_SAMPLE,
    RansacConfig,
    minimal_sample_stream,
    ransac_homography,
)

from conftest import exact_pairs, pair_set, well_conditioned_homography


def contaminated_set(rng, h, n_inliers, n_outliers, noise=0.5):
    inliers = exact_pairs(h, rng, n_inliers)
    xy = inliers.xy.tolist()
    uv = (inliers.uv + rng.normal(0, noise, size=inliers.uv.shape)).tolist()
    for _ in range(n_outliers):
        xy.append(rng.uniform(-5, 5, size=2))
        uv.append(rng.uniform(-500, 500, size=2))
    order = rng.permutation(len(xy))
    labels = np.array([i < n_inliers for i in order])
    return pair_set(xy, uv)[order], labels


class TestRansacExamples:
    def test_all_inliers_exact(self):
        rng = np.random.default_rng(0)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 50)
        result = ransac_homography(*correspondence_arrays(pairs), RansacConfig(seed=1))
        assert np.array_equal(result.inlier_indices, np.arange(50))
        assert result.inlier_indices.dtype == np.intp and not result.inlier_indices.flags.writeable
        assert np.max(np.abs(result.h.m - h.m)) < 1e-8

    def test_below_minimal_sample(self):
        rng = np.random.default_rng(1)
        h = well_conditioned_homography(rng)
        with pytest.raises(InsufficientPairs):
            ransac_homography(*correspondence_arrays(exact_pairs(h, rng, 3)), RansacConfig())

    def test_consensus_failure_on_heavy_contamination(self):
        rng = np.random.default_rng(2)
        h = well_conditioned_homography(rng)
        pairs, _ = contaminated_set(rng, h, 10, 90)
        with pytest.raises(ConsensusFailure):
            ransac_homography(
                *correspondence_arrays(pairs), RansacConfig(seed=3, min_inlier_ratio=0.5)
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(max_iterations=0)
        with pytest.raises(ValueError):
            RansacConfig(min_inlier_ratio=0.0)
        with pytest.raises(ValueError):
            RansacConfig(confidence=1.0)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.inf, math.nan])
    def test_inlier_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError, match="inlier_threshold must be finite and > 0"):
            RansacConfig(inlier_threshold=threshold)


class TestRansacProperties:
    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(3)
        h = well_conditioned_homography(rng)
        pairs, _ = contaminated_set(rng, h, 60, 40)
        cfg = RansacConfig(seed=7)
        a = ransac_homography(*correspondence_arrays(pairs), cfg)
        b = ransac_homography(*correspondence_arrays(pairs), cfg)
        assert np.array_equal(a.h.m, b.h.m)
        assert np.array_equal(a.inlier_indices, b.inlier_indices)
        assert a.iterations_run == b.iterations_run
        assert np.array_equal(a.inlier_report.per_pair, b.inlier_report.per_pair)

    @pytest.mark.parametrize("seed", range(10))
    def test_inlier_soundness(self, seed):
        rng = np.random.default_rng(40 + seed)
        h = well_conditioned_homography(rng)
        pairs, _ = contaminated_set(rng, h, 50, 30)
        cfg = RansacConfig(seed=seed)
        result = ransac_homography(*correspondence_arrays(pairs), cfg)
        assert len(result.inlier_indices) >= 4
        assert np.all(np.diff(result.inlier_indices) > 0)
        report = reprojection_metrics(result.h, *correspondence_arrays(pairs[result.inlier_indices]))
        assert np.all(report.per_pair <= cfg.inlier_threshold)
        assert np.array_equal(result.inlier_report.per_pair, report.per_pair)

    def test_shuffled_input_same_inlier_set_via_index_stable_sampling(self):
        rng = np.random.default_rng(5)
        h = well_conditioned_homography(rng)
        pairs, _ = contaminated_set(rng, h, 40, 20)
        cfg = RansacConfig(seed=11)

        base = ransac_homography(*correspondence_arrays(pairs), cfg)
        base_inliers = set(base.inlier_indices.tolist())

        perm = rng.permutation(len(pairs)).tolist()
        shuffled = pairs[perm]
        # remap the default draw sequence so the same element sets are sampled
        inverse = {orig: new for new, orig in enumerate(perm)}
        draws = []
        stream = minimal_sample_stream(len(pairs), cfg.seed)
        for _ in range(10 * cfg.max_iterations):
            draws.append(next(stream))
        remapped = [tuple(inverse[i] for i in s) for s in draws]

        shuffled_result = ransac_homography(
            *correspondence_arrays(shuffled), cfg, sample_stream=remapped
        )
        shuffled_inliers = {perm[i] for i in shuffled_result.inlier_indices}
        assert shuffled_inliers == base_inliers

    def test_final_model_not_worse_than_minimal_sample_model(self):
        rng = np.random.default_rng(6)
        h = well_conditioned_homography(rng)
        pairs, _ = contaminated_set(rng, h, 60, 40)
        cfg = RansacConfig(seed=13)
        result = ransac_homography(*correspondence_arrays(pairs), cfg)

        # replay all hypotheses the run could have seen and find the best one
        best = None
        stream = minimal_sample_stream(len(pairs), cfg.seed)
        from calibrefine.errors import DegenerateConfiguration
        from calibrefine.geometry import estimate_homography

        for _ in range(result.iterations_run):
            while True:
                idx = next(stream)
                try:
                    cand = estimate_homography(*correspondence_arrays(pairs[list(idx)]))
                    break
                except DegenerateConfiguration:
                    continue
            report = reprojection_metrics(cand, *correspondence_arrays(pairs))
            mask = report.per_pair <= cfg.inlier_threshold
            count = int(mask.sum())
            if count >= 4:
                key = (-count, float(report.per_pair[mask].mean()))
                if best is None or key < best:
                    best, best_h = key, cand
        final_report = reprojection_metrics(result.h, *correspondence_arrays(pairs))
        final_mask = final_report.per_pair <= cfg.inlier_threshold
        final_key = (-int(final_mask.sum()), float(final_report.per_pair[final_mask].mean()))
        assert final_key <= best
        # the final model is refit_inliers of the best (earliest on ties) hypothesis
        h, mask, _ = refit_inliers(best_h, *correspondence_arrays(pairs), cfg.inlier_threshold)
        assert np.array_equal(result.h.m, h.m)
        assert np.array_equal(result.inlier_indices, np.flatnonzero(mask))


# -- the inlier refit -------------------------------------------------------------
#
# The reference below is RANSAC's scoring and final refit as they stood inline
# in ``ransac_homography`` before ``geometry.refit_inliers`` took them over,
# copied verbatim; ``best_key`` and its mask and residuals are the winning
# hypothesis's score, which the loop kept beside it.


def _score(matrix: np.ndarray, xy: np.ndarray, uv: np.ndarray, threshold: float):
    uv_hat, _ = transform_points(matrix, xy)
    with np.errstate(invalid="ignore"):
        residuals = np.hypot(uv_hat[:, 0] - uv[:, 0], uv_hat[:, 1] - uv[:, 1])
    mask = residuals <= threshold  # NaN residuals compare False
    count = int(mask.sum())
    aed = float(residuals[mask].mean()) if count else math.inf
    return mask, count, aed, residuals


def inline_refit(best_h, xy, uv, threshold):
    best_mask, count, aed, best_residuals = _score(best_h.m, xy, uv, threshold)
    best_key = (-count, aed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        refined = refine_homography(xy[best_mask], uv[best_mask], best_h)
    mask_r, count_r, aed_r, residuals_r = _score(refined.m, xy, uv, threshold)
    if (-count_r, aed_r) <= (best_key[0], best_key[1]) and count_r >= MINIMAL_SAMPLE:
        final_h, final_mask, final_residuals = refined, mask_r, residuals_r
    else:
        final_h, final_mask, final_residuals = best_h, best_mask, best_residuals
    return final_h, final_mask, final_residuals


def _outcome(fit, *args):
    """``fit``'s matrix, mask and residuals as bytes, or its refusal."""
    try:
        h, mask, residuals = fit(*args)
    except CalibrationError as exc:
        return type(exc), str(exc)
    return h.m.tobytes(), mask.tobytes(), residuals.tobytes()


class TestRefitInliers:
    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_inliers=st.integers(4, 25),
        outlier_share=st.floats(0.0, 0.6),
        noise=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
        n_horizon=st.integers(0, 3),
        n_nan=st.integers(0, 2),
        threshold_rank=st.one_of(st.none(), st.integers(3, 40)),
    )
    @example(seed=0, n_inliers=4, outlier_share=0.0, noise=0.5, n_horizon=0, n_nan=0, threshold_rank=None)
    @example(seed=1, n_inliers=12, outlier_share=0.6, noise=1.0, n_horizon=2, n_nan=2, threshold_rank=3)
    def test_equals_ransacs_inline_refit_bitwise(
        self, seed, n_inliers, outlier_share, noise, n_horizon, n_nan, threshold_rank
    ):
        rng = np.random.default_rng(seed)
        truth = well_conditioned_homography(rng)
        inliers = exact_pairs(truth, rng, n_inliers)
        n_outliers = int(outlier_share / (1.0 - outlier_share) * n_inliers)
        xy = np.concatenate([inliers.xy, rng.uniform(-5, 5, size=(n_outliers, 2))])
        uv = np.concatenate([
            inliers.uv + rng.normal(0.0, noise, size=inliers.uv.shape),
            rng.uniform(-500, 500, size=(n_outliers, 2)),
        ])
        try:  # a hypothesis as RANSAC draws one: the DLT of 4 inlier pairs
            h = estimate_homography(xy[:4], uv[:4])
        except DegenerateConfiguration:
            return
        # ground points on the horizon of h project to (or near) infinity,
        # for inf or huge residuals; NaN pixels give NaN residuals
        m = h.m
        horizon_x = rng.uniform(-5, 5, size=n_horizon)
        horizon = np.column_stack([horizon_x, -(m[2, 0] * horizon_x + m[2, 2]) / m[2, 1]])
        xy = np.concatenate([xy, horizon, rng.uniform(-5, 5, size=(n_nan, 2))])
        uv = np.concatenate([uv, rng.uniform(0, 1000, size=(n_horizon, 2)), np.full((n_nan, 2), np.nan)])
        order = rng.permutation(len(xy))
        xy, uv = xy[order], uv[order]

        threshold = 3.0
        if threshold_rank is not None:
            # a threshold equal to a residual: that pair sits exactly on it,
            # and rank 3 leaves h with exactly 4 inliers (its own sample)
            _, _, _, residuals = _score(m, xy, uv, threshold)
            finite = np.sort(residuals[residuals < 100.0])
            threshold = float(finite[min(threshold_rank, len(finite) - 1)])
            if threshold <= 0.0:
                return

        assert _outcome(refit_inliers, h, xy, uv, threshold) == _outcome(inline_refit, h, xy, uv, threshold)

    def test_fewer_than_four_inliers_are_refused(self):
        rng = np.random.default_rng(9)
        h = well_conditioned_homography(rng)
        xy, uv = correspondence_arrays(exact_pairs(h, rng, 6))
        with pytest.raises(InsufficientPairs):
            refit_inliers(h, xy, uv + np.array([[0.0, 0.0]] * 3 + [[50.0, 0.0]] * 3), 3.0)
