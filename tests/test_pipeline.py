import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibrefine.blocks import BlockGrid, Parity
from calibrefine.errors import EmptySet, InsufficientPairs
from calibrefine.correction import CorrectionResult
from calibrefine.geometry import Frame, Homography, PairSet, ResidualReport, project_points
from calibrefine.lsq import LeastSquaresResult
from calibrefine.pipeline import (
    HISTOGRAM_EDGE,
    PipelineConfig,
    PipelineReport,
    StageFailure,
    coarse_fit,
    error_histogram,
    evaluate,
    run_full,
    split_eval_pairs,
)
from calibrefine.ransac import RansacConfig, RansacResult
from calibrefine.refine import RefineConfig
from calibrefine.simulator import SceneConfig, generate, oracle_pairs

from conftest import (
    assert_same_pairs,
    exact_pairs,
    naive_block,
    naive_block_sample,
    pair_set,
    point_array,
)


def sim_setup(**overrides):
    scene = SceneConfig(**{"seed": 0, "n_frames": 300, **overrides})
    sim_frames, gt = generate(scene)
    by_id = {sf.frame.frame_id: sf for sf in sim_frames}

    def oracle(frame):
        return oracle_pairs(by_id[frame.frame_id], gt, scene.oracle_error_rate, scene.seed)

    return scene, sim_frames, gt, oracle


class TestPipelineConfig:
    @pytest.mark.parametrize("bx, by, kept", [(2, 2, 2), (1, 4, 2), (3, 2, 3)])
    def test_grid_keeping_fewer_than_4_blocks_is_rejected(self, bx, by, kept):
        grid = BlockGrid(1920, 1080, bx, by)
        with pytest.raises(ValueError, match=f"grid {bx}x{by} keeps {kept} blocks"):
            PipelineConfig(grid=grid)
        PipelineConfig(grid=grid, skip_parity=False)  # every block is kept

    def test_split_seed_must_be_non_negative(self):
        # numpy's seed refusal inside run_full named no field
        with pytest.raises(ValueError, match="split_seed must be non-negative, got -1"):
            PipelineConfig(split_seed=-1)
        PipelineConfig(split_seed=0)

    def test_refine_runs_the_stage_settings_of_the_config(self):
        grid, other = BlockGrid(1920, 1080, 6, 4, Parity.ODD), BlockGrid(1920, 1080)
        ransac = RansacConfig(seed=7, inlier_threshold=2.0)
        cfg = PipelineConfig(
            grid=grid, ransac=ransac, skip_parity=False,
            refine=RefineConfig(recalib_interval=25, grid=other, ransac=RansacConfig(), skip_parity=True),
        )
        assert (cfg.refine.grid, cfg.refine.ransac, cfg.refine.skip_parity) == (grid, ransac, False)
        assert cfg.refine.recalib_interval == 25
        # replace re-hands the settings, so refine never keeps stale copies
        assert replace(cfg, grid=other).refine.grid == other


class TestCoarseCalibrate:
    def test_exact_oracle_recovers_truth(self):
        scene, sim_frames, gt, oracle = sim_setup(
            pixel_noise_sigma=0.0,
            lidar_noise_sigma=0.0,
            oracle_error_rate=0.0,
            clutter_per_frame=0.0,
        )
        pairs = PairSet.concat(oracle(sf.frame) for sf in sim_frames)
        grid = BlockGrid(scene.image_width, scene.image_height)
        covered = {b for b in (naive_block(grid, u, v) for u, v in pairs.uv.tolist()) if b is not None}
        assert len(covered) >= 8
        h = coarse_fit(pairs, grid, RansacConfig(seed=4))[0].h
        assert np.max(np.abs(h.m - gt.h_true.m)) < 1e-6

    def test_clustered_pairs_insufficient_after_sampling(self):
        h = Homography([[10.0, 0, 100.0], [0, 10.0, 100.0], [0, 0, 1.0]])
        rng = np.random.default_rng(1)
        xy = point_array(rng.uniform(0.0, 2.0, size=2) for _ in range(40))  # all in one block
        pairs = pair_set(xy, project_points(h, xy))
        with pytest.raises(InsufficientPairs):
            coarse_fit(pairs, BlockGrid(1000, 1000, 5, 5), RansacConfig(seed=4))

    @pytest.mark.parametrize("seed", range(10))
    def test_corrupted_oracle_pairs_excluded(self, seed):
        scene, sim_frames, gt, _ = sim_setup(seed=seed, n_frames=150)
        clean = PairSet.concat(oracle_pairs(sf, gt, 0.0, seed=seed) for sf in sim_frames)
        noisy = PairSet.concat(oracle_pairs(sf, gt, 0.02, seed=seed) for sf in sim_frames)
        # the (x, y, u, v, frame_id, source) rows whose pixel (u, v) the oracle corrupted
        corrupted = {n for c, n in zip(clean, noisy) if c[2:4] != n[2:4]}
        grid = BlockGrid(scene.image_width, scene.image_height)
        result, inliers = coarse_fit(noisy, grid, RansacConfig(seed=seed))
        admitted = sum(1 for p in inliers if p in corrupted)
        sampled = naive_block_sample(noisy, grid)
        sampled_corrupted = sum(1 for p in sampled if p in corrupted)
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
        pairs = pair_set([(i, 0.0) for i in range(10)], [(i + 3.0, 4.0) for i in range(10)])
        report = evaluate(h, pairs)
        assert report.aed == pytest.approx(5.0, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            evaluate(Homography.identity(), pair_set([], []))

    def test_histogram_conservation_and_overflow(self):
        h = Homography.identity()
        pairs = pair_set([(0.0, 0.0)] * 3, [(0.5, 0.0), (7.2, 0.0), (500.0, 0.0)])
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
        held_out = split_eval_pairs(gt_pairs, cfg.eval_fraction, cfg.split_seed)
        # the stages see only the frames' detections (the oracle pairs are
        # drawn from them), never a held-out ground-truth point or pixel
        for column, name in ((held_out.xy, "lidar_centers"), (held_out.uv, "camera_centers")):
            seen = {tuple(p) for sf in sim_frames for p in getattr(sf.frame, name).tolist()}
            assert seen.isdisjoint(map(tuple, column.tolist()))
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
            return PairSet([], [], [], [])

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


def _shifted(pairs: PairSet, offset: int) -> PairSet:
    return PairSet(pairs.xy, pairs.uv, pairs.frame_ids + offset, pairs.source)


def _run_with_frame_ids_shifted(seed: int, offset: int):
    """``run_full`` on the 120 x 12 scene ``seed``, every frame id (of the
    frames, the oracle's pairs and the ground-truth pairs) shifted by
    ``offset``, the oracle keyed by the shifted ids."""
    scene = SceneConfig(seed=seed, n_frames=120, n_objects=12)
    sim_frames, gt = generate(scene)
    by_id = {sf.frame.frame_id + offset: sf for sf in sim_frames}

    def oracle(frame):
        pairs = oracle_pairs(by_id[frame.frame_id], gt, scene.oracle_error_rate, seed)
        return _shifted(pairs, offset)

    frames = [
        Frame(sf.frame.frame_id + offset, sf.frame.lidar_centers, sf.frame.camera_centers)
        for sf in sim_frames
    ]
    cfg = PipelineConfig(
        grid=BlockGrid(scene.image_width, scene.image_height), ransac=RansacConfig(seed=seed)
    )
    return run_full(frames, oracle, cfg, _shifted(gt.correspondences(), offset))


class TestFrameIdOffset:
    """Frame ids only name frames: shifted by a constant, with the oracle
    keyed by the new ids, they change no result (a metamorphic test)."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("offset", [1, 977, 2**40])
    def test_results_are_bit_identical(self, seed, offset):
        base = _run_with_frame_ids_shifted(seed, 0)
        moved = _run_with_frame_ids_shifted(seed, offset)

        def bits(report, shift):
            return (
                [h.m.tobytes() for h in (report.h_coarse, report.h_iterative, report.h_star)],
                np.array(report.correction.loss_trace).tobytes(),
                report.correction.pairs_used,
                [
                    (r.frame_id - shift, np.array([r.err_new, r.err_best]).tobytes(), r.updated, r.skipped)
                    for r in report.checkpoints
                ],
            )

        assert bits(moved, offset) == bits(base, 0)
        assert [r.frame_id for r in base.checkpoints] == [99, 119]


def _ground_similarity(log2_scale: float, angle: float, tx: float, ty: float) -> np.ndarray:
    """The 3x3 matrix of the ground-plane map ``x -> s R x + t``."""
    c, s = 2.0**log2_scale * math.cos(angle), 2.0**log2_scale * math.sin(angle)
    return np.array([[c, -s, tx], [s, c, ty], [0.0, 0.0, 1.0]])


def _run_with_ground_moved(seed: int, move: np.ndarray):
    """``run_full`` on the 120 x 12 scene ``seed`` with every ground point
    (of the frames, the oracle's pairs and the ground-truth pairs) mapped by
    the affine 3x3 ``move``."""
    scene = SceneConfig(seed=seed, n_frames=120, n_objects=12)
    sim_frames, gt = generate(scene)
    by_id = {sf.frame.frame_id: sf for sf in sim_frames}

    def moved(xy):
        return xy @ move[:2, :2].T + move[:2, 2]

    def moved_pairs(pairs):
        return PairSet(moved(pairs.xy), pairs.uv, pairs.frame_ids, pairs.source)

    def oracle(frame):
        return moved_pairs(oracle_pairs(by_id[frame.frame_id], gt, scene.oracle_error_rate, seed))

    frames = [
        Frame(sf.frame.frame_id, moved(sf.frame.lidar_centers), sf.frame.camera_centers)
        for sf in sim_frames
    ]
    cfg = PipelineConfig(
        grid=BlockGrid(scene.image_width, scene.image_height), ransac=RansacConfig(seed=seed)
    )
    return run_full(frames, oracle, cfg, moved_pairs(gt.correspondences()))


@functools.cache
def _run_unmoved(seed: int):
    return _run_with_ground_moved(seed, np.eye(3))


_SIMILARITIES = dict(
    seed=st.sampled_from([0, 1]),
    log2_scale=st.floats(-2.0, 2.0),
    angle=st.floats(-math.pi, math.pi),
    tx=st.floats(-200.0, 200.0),
    ty=st.floats(-200.0, 200.0),
)


class TestGroundSimilarity:
    """A similarity of the ground plane only renames ground coordinates: the
    pipeline should make the same decisions, and each matrix should be
    today's composed with the inverse map, with today's AEDs (a metamorphic
    test). The solvers work in raw coordinates, so the matrices agree to
    rounding only. On 312 runs (72 random draws of this range and a grid of
    240 with its end points, on scenes 0-2) the canonical matrices of the
    stages that agreed differed by at most 1.2e-9 per entry and the stage
    AEDs by a relative 2.6e-7; the bounds below are about 17 and 19 times
    that."""

    @staticmethod
    def compare(seed, log2_scale, angle, tx, ty, stages):
        """Both runs, after checking each ``(matrix field, stage)`` of
        ``stages`` against the bounds."""
        move = _ground_similarity(log2_scale, angle, tx, ty)
        base, moved = _run_unmoved(seed), _run_with_ground_moved(seed, move)
        for field, stage in stages:
            back = Homography(getattr(moved, field).m @ move)
            assert np.max(np.abs(back.m - getattr(base, field).m)) <= 2e-8, field
            aed = base.stage_metrics[stage].aed
            assert moved.stage_metrics[stage].aed == pytest.approx(aed, rel=5e-6, abs=0.0), stage
        return base, moved

    @settings(max_examples=25)
    @given(**_SIMILARITIES)
    def test_same_decisions_and_later_stages(self, seed, log2_scale, angle, tx, ty):
        base, moved = self.compare(
            seed, log2_scale, angle, tx, ty, (("h_iterative", "iterative"), ("h_star", "correction"))
        )

        def decisions(report):
            return report.correction.pairs_used, [
                (r.frame_id, r.updated, r.skipped) for r in report.checkpoints
            ]

        assert decisions(moved) == decisions(base)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="estimate_homography refuses a minimal-sample fit whose canonical matrix has "
        "|det| <= 1e-12, a test that depends on the ground scale (see CHANGES.md, FOUND)",
    )
    @settings(max_examples=25)
    @example(seed=1, log2_scale=2.0, angle=0.0, tx=0.0, ty=-10.0)
    @given(**_SIMILARITIES)
    def test_coarse_stage(self, seed, log2_scale, angle, tx, ty):
        self.compare(seed, log2_scale, angle, tx, ty, (("h_coarse", "coarse"),))


class TestSplitEvalPairs:
    def test_deterministic_and_sized(self):
        rng = np.random.default_rng(8)
        h = Homography.identity()
        pairs = exact_pairs(h, rng, 200)
        a = split_eval_pairs(pairs, 0.1, 3)
        b = split_eval_pairs(pairs, 0.1, 3)
        assert_same_pairs(a, b)
        assert len(a) == 20

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            split_eval_pairs(pair_set([], []), 0.1, 0)


def _result_twins():
    """Two results of each type built from the same array-holding fields."""
    h = Homography.identity()
    report = ResidualReport.from_residuals(np.array([1.0, 2.0]))
    correction = CorrectionResult(h, h, (1.0,), 4)
    fields = {
        LeastSquaresResult: lambda: (np.zeros(3), 0.0, 1, True),
        ResidualReport: lambda: (np.array([1.0, 2.0]), 1.5, 1.58, 2),
        RansacResult: lambda: (h, np.arange(4), 1, report),
        PipelineReport: lambda: (
            h, h, h, {"coarse": report}, (), {"coarse": np.zeros(3)}, correction, 2
        ),
    }
    return [pytest.param(cls, make, id=cls.__name__) for cls, make in fields.items()]


@pytest.mark.parametrize("cls, make", _result_twins())
def test_results_compare_by_identity_and_hash(cls, make):
    # field-wise == would compare the arrays and raise on their truth value
    a, b = cls(*make()), cls(*make())
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
