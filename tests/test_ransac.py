import math

import numpy as np
import pytest

from calibrefine.errors import ConsensusFailure, InsufficientPairs
from calibrefine.geometry import correspondence_arrays, reprojection_metrics
from calibrefine.ransac import RansacConfig, minimal_sample_stream, ransac_homography

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
                    best = key
        final_report = reprojection_metrics(result.h, *correspondence_arrays(pairs))
        final_mask = final_report.per_pair <= cfg.inlier_threshold
        final_key = (-int(final_mask.sum()), float(final_report.per_pair[final_mask].mean()))
        assert final_key <= best
