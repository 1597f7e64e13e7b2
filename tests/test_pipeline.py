import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibrefine.blocks import BlockGrid, block_of
from calibrefine.errors import EmptySet, InsufficientPairs
from calibrefine.geometry import (
    Correspondence,
    Homography,
    PixelPoint,
    PlanePoint,
    ResidualReport,
    project,
)
from calibrefine.pipeline import (
    HISTOGRAM_EDGE,
    PipelineConfig,
    StageFailure,
    coarse_fit,
    error_histogram,
    evaluate,
    run_full,
    split_eval_pairs,
)
from calibrefine.ransac import RansacConfig
from calibrefine.simulator import SceneConfig, generate, oracle_pairs

from conftest import exact_pairs


def sim_setup(**overrides):
    scene = SceneConfig(**{"seed": 0, "n_frames": 300, **overrides})
    sim_frames, gt = generate(scene)
    by_id = {sf.frame.frame_id: sf for sf in sim_frames}

    def oracle(frame):
        return oracle_pairs(by_id[frame.frame_id], gt, scene.oracle_error_rate, scene.seed)

    return scene, sim_frames, gt, oracle


class TestCoarseCalibrate:
    def test_exact_oracle_recovers_truth(self):
        scene, sim_frames, gt, oracle = sim_setup(
            pixel_noise_sigma=0.0,
            lidar_noise_sigma=0.0,
            oracle_error_rate=0.0,
            clutter_per_frame=0.0,
        )
        pairs = [p for sf in sim_frames for p in oracle(sf.frame)]
        grid = BlockGrid(scene.image_width, scene.image_height)
        covered = {b for b in (block_of(grid, p.pixel) for p in pairs) if b is not None}
        assert len(covered) >= 8
        h = coarse_fit(pairs, grid, RansacConfig(seed=4))[0].h
        assert np.max(np.abs(h.m - gt.h_true.m)) < 1e-6

    def test_clustered_pairs_insufficient_after_sampling(self):
        h = Homography([[10.0, 0, 100.0], [0, 10.0, 100.0], [0, 0, 1.0]])
        rng = np.random.default_rng(1)
        pairs = []
        for _ in range(40):
            x, y = rng.uniform(0.0, 2.0, size=2)  # all in one block
            p = PlanePoint(float(x), float(y))
            pairs.append(Correspondence(p, project(h, p)))
        with pytest.raises(InsufficientPairs):
            coarse_fit(pairs, BlockGrid(1000, 1000, 5, 5), RansacConfig(seed=4))

    @pytest.mark.parametrize("seed", range(10))
    def test_corrupted_oracle_pairs_excluded(self, seed):
        scene, sim_frames, gt, _ = sim_setup(seed=seed, n_frames=150)
        from calibrefine.blocks import block_sample

        by_id = {sf.frame.frame_id: sf for sf in sim_frames}
        clean, noisy = [], []
        for sf in sim_frames:
            clean.extend(oracle_pairs(sf, gt, 0.0, seed=seed))
            noisy.extend(oracle_pairs(sf, gt, 0.02, seed=seed))
        corrupted_ids = {
            id(n) for c, n in zip(clean, noisy) if c.pixel != n.pixel
        }
        grid = BlockGrid(scene.image_width, scene.image_height)
        result, inliers = coarse_fit(noisy, grid, RansacConfig(seed=seed))
        admitted = sum(1 for p in inliers if id(p) in corrupted_ids)
        sampled = block_sample(noisy, grid)
        sampled_corrupted = sum(1 for p in sampled if id(p) in corrupted_ids)
        excluded = sampled_corrupted - admitted
        assert admitted <= max(0.05 * sampled_corrupted, 1)
        assert excluded >= 0


class TestEvaluate:
    def test_truth_on_noise_free_pairs(self):
        scene, sim_frames, gt, _ = sim_setup(n_frames=50)
        report = evaluate(gt.h_true, gt.correspondences())
        assert report.aed == pytest.approx(0.0, abs=1e-9)
        assert report.rmse == pytest.approx(0.0, abs=1e-9)

    def test_translated_scene_closed_form(self):
        h = Homography.identity()
        pairs = [
            Correspondence(PlanePoint(float(i), 0.0), PixelPoint(float(i) + 3.0, 4.0))
            for i in range(10)
        ]
        report = evaluate(h, pairs)
        assert report.aed == pytest.approx(5.0, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            evaluate(Homography.identity(), [])

    def test_histogram_conservation_and_overflow(self):
        h = Homography.identity()
        pairs = [
            Correspondence(PlanePoint(0.0, 0.0), PixelPoint(0.5, 0.0)),
            Correspondence(PlanePoint(0.0, 0.0), PixelPoint(7.2, 0.0)),
            Correspondence(PlanePoint(0.0, 0.0), PixelPoint(500.0, 0.0)),
        ]
        counts = error_histogram(evaluate(h, pairs))
        assert counts.sum() == 3
        assert counts[0] == 1 and counts[7] == 1 and counts[-1] == 1


_BUCKET_EDGES = [0.0, float(np.nextafter(200.0, 0.0)), 200.0, 1e300]
_residuals = st.lists(
    st.one_of(
        st.sampled_from(_BUCKET_EDGES),
        st.floats(0.0, 250.0),
        st.floats(0.0, 1e300),
    ),
    min_size=1,
    max_size=40,
)


class TestErrorHistogramHypothesis:
    @settings(max_examples=300)
    @given(residuals=_residuals)
    @example(residuals=_BUCKET_EDGES)
    def test_counts_sum_to_n_and_each_residual_lands_in_its_bucket(self, residuals):
        report = ResidualReport.from_residuals(np.array(residuals, dtype=float))
        counts = error_histogram(report)
        expected = [0] * (HISTOGRAM_EDGE + 1)
        for r in residuals:
            expected[min(math.floor(r), HISTOGRAM_EDGE)] += 1
        assert counts.sum() == report.n == len(residuals)
        assert counts.tolist() == expected


class TestRunFull:
    def test_perfect_oracle_noise_free_all_stages_near_truth(self):
        scene, sim_frames, gt, oracle = sim_setup(
            pixel_noise_sigma=0.0,
            lidar_noise_sigma=0.0,
            oracle_error_rate=0.0,
            clutter_per_frame=0.0,
            camera_dropout=0.0,
            lidar_dropout=0.0,
            n_frames=200,
        )
        cfg = PipelineConfig(grid=BlockGrid(scene.image_width, scene.image_height))
        report = run_full([sf.frame for sf in sim_frames], oracle, cfg, gt.correspondences())
        for h in (report.h_coarse, report.h_iterative, report.h_star):
            assert np.max(np.abs(h.m - gt.h_true.m)) < 1e-6
        for r in report.stage_metrics.values():
            assert r.aed < 1e-5

    def test_held_out_pairs_disjoint_from_consumed(self):
        scene, sim_frames, gt, oracle = sim_setup(n_frames=200)
        cfg = PipelineConfig(grid=BlockGrid(scene.image_width, scene.image_height))
        gt_pairs = gt.correspondences()
        consumed = {id(p) for sf in sim_frames for p in oracle(sf.frame)}
        eval_ids = {
            id(p) for p in split_eval_pairs(gt_pairs, cfg.eval_fraction, cfg.split_seed)
        }
        assert consumed.isdisjoint(eval_ids)
        report = run_full([sf.frame for sf in sim_frames], oracle, cfg, gt_pairs)
        assert report.eval_pair_count == max(1, round(cfg.eval_fraction * len(gt_pairs)))

    def test_stage_ordering_medians(self):
        medians = {"coarse": [], "iterative": [], "correction": []}
        for seed in range(5):
            scene, sim_frames, gt, oracle = sim_setup(seed=seed, n_frames=300)
            cfg = PipelineConfig(grid=BlockGrid(scene.image_width, scene.image_height))
            report = run_full([sf.frame for sf in sim_frames], oracle, cfg, gt.correspondences())
            for k in medians:
                medians[k].append(report.stage_metrics[k].aed)
        med = {k: float(np.median(v)) for k, v in medians.items()}
        assert med["coarse"] >= med["iterative"] >= med["correction"] - 1e-9

    def test_stage_failure_attribution(self):
        scene, sim_frames, gt, _ = sim_setup(n_frames=30)

        def hopeless_oracle(frame):
            return []

        cfg = PipelineConfig(grid=BlockGrid(scene.image_width, scene.image_height))
        with pytest.raises(StageFailure) as err:
            run_full([sf.frame for sf in sim_frames], hopeless_oracle, cfg, gt.correspondences())
        assert err.value.stage == "coarse"

    def test_checkpoint_log_carried_into_report(self):
        scene, sim_frames, gt, oracle = sim_setup(n_frames=250)
        cfg = PipelineConfig(grid=BlockGrid(scene.image_width, scene.image_height))
        report = run_full([sf.frame for sf in sim_frames], oracle, cfg, gt.correspondences())
        assert len(report.checkpoints) == 3  # 100, 200, flush at 250
        assert set(report.histograms) == {"coarse", "iterative", "correction"}
        for counts in report.histograms.values():
            assert counts.sum() == report.eval_pair_count


class TestSplitEvalPairs:
    def test_deterministic_and_sized(self):
        rng = np.random.default_rng(8)
        h = Homography.identity()
        pairs = exact_pairs(h, rng, 200)
        a = split_eval_pairs(pairs, 0.1, 3)
        b = split_eval_pairs(pairs, 0.1, 3)
        assert a == b
        assert len(a) == 20

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            split_eval_pairs([], 0.1, 0)
