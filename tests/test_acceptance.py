"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with ``pytest tests/test_acceptance.py -v -s``)."""
import json
import math
import time

import numpy as np
import pytest

from calibrefine.blocks import BlockGrid, Parity, block_of, block_sample
from calibrefine.cli import main
from calibrefine.geometry import (
    Correspondence,
    Frame,
    PixelPoint,
    correspondence_arrays,
    estimate_homography,
    project,
    reprojection_metrics,
)
from calibrefine.matching import MatchGate, greedy_match
from calibrefine.pipeline import PipelineConfig, coarse_fit, run_full
from calibrefine.ransac import RansacConfig, ransac_homography
from calibrefine.refine import (
    CalibrationState,
    RefineConfig,
    checkpoint_recalibrate,
    ingest_frame,
)
from calibrefine.serialize import read_checkpoints_csv, write_checkpoints_csv
from calibrefine.simulator import SceneConfig, generate, oracle_pairs, random_homography
from calibrefine.correction import (
    CorrectionConfig,
    fit_correction_stream,
    reprojection_loss,
    reprojection_loss_gradient,
)
from calibrefine.geometry import Homography, compose

from conftest import (
    backprojected_points,
    exact_pairs,
    naive_greedy,
    naive_metrics,
    point_array,
    random_pair_cloud,
    translation_homography,
    well_conditioned_homography,
)


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS {name}: {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget


def test_c1_metric_correctness_against_bruteforce():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, int(rng.integers(1, 25)))
        pairs = [
            Correspondence(
                c.lidar,
                PixelPoint(c.pixel.u + rng.normal(0, 5), c.pixel.v + rng.normal(0, 5)),
            )
            for c in pairs
        ]
        report = reprojection_metrics(h, *correspondence_arrays(pairs))
        res, aed, rmse = naive_metrics(h, pairs)
        assert abs(report.aed - aed) <= 1e-12
        assert abs(report.rmse - rmse) <= 1e-12
        assert np.all(np.abs(report.per_pair - np.array(res)) <= 1e-12)
        assert report.rmse >= report.aed - 1e-12
    _report("criterion 1 (metric correctness, 1000 sets)", started, 5.0)


def test_c2_dlt_exact_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(500):
        h = well_conditioned_homography(rng)
        assert np.linalg.cond(h.m) < 1e4
        n = int(rng.integers(4, 40))
        recovered = estimate_homography(*correspondence_arrays(exact_pairs(h, rng, n)))
        assert np.max(np.abs(recovered.m - h.m)) < 1e-8
    _report("criterion 2 (DLT recovery, 500 homographies)", started, 10.0)


def test_c3_ransac_robustness_under_clutter():
    started = time.perf_counter()
    scene = SceneConfig()
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        h = random_homography(seed, scene)
        inlier_points = backprojected_points(h, rng, 120)
        pairs = []
        for p in inlier_points:
            pp = project(h, p)
            pairs.append(
                Correspondence(
                    p, PixelPoint(pp.u + rng.normal(0, 0.5), pp.v + rng.normal(0, 0.5))
                )
            )
        clutter_points = backprojected_points(h, rng, 80)
        for p in clutter_points:
            pairs.append(
                Correspondence(
                    p,
                    PixelPoint(
                        float(rng.uniform(0, scene.image_width)),
                        float(rng.uniform(0, scene.image_height)),
                    ),
                )
            )
        order = rng.permutation(len(pairs))
        shuffled = [pairs[i] for i in order]
        is_inlier = np.array([i < 120 for i in order])

        result = ransac_homography(
            *correspondence_arrays(shuffled), RansacConfig(seed=seed, inlier_threshold=3.0)
        )
        chosen = np.zeros(len(shuffled), dtype=bool)
        chosen[list(result.inlier_indices)] = True
        recall = int(np.sum(chosen & is_inlier))
        admitted_clutter = int(np.sum(chosen & ~is_inlier))
        assert recall >= 114, f"seed {seed}: recall {recall}"
        assert admitted_clutter <= 2, f"seed {seed}: clutter {admitted_clutter}"

        gt_eval = [Correspondence(p, project(h, p)) for p in backprojected_points(h, rng, 100)]
        assert reprojection_metrics(result.h, *correspondence_arrays(gt_eval)).aed < 1.0
    _report("criterion 3 (RANSAC robustness, 100 seeds)", started, 60.0)


def test_c4_block_sampling_invariants():
    started = time.perf_counter()
    for seed in range(1000):
        rng = np.random.default_rng(3000 + seed)
        grid = BlockGrid(
            1920,
            1080,
            int(rng.integers(2, 8)),
            int(rng.integers(2, 8)),
            Parity(int(rng.integers(0, 2))),
        )
        pairs = random_pair_cloud(rng, int(rng.integers(0, 60)))
        out = block_sample(pairs, grid)

        seen = set()
        for pair in out:
            block = block_of(grid, pair.pixel)
            assert block is not None and grid.retained(*block) and block not in seen
            seen.add(block)
            cx, cy = grid.block_center(*block)
            d_win = (pair.pixel.u - cx) ** 2 + (pair.pixel.v - cy) ** 2
            for other in pairs:
                if block_of(grid, other.pixel) == block:
                    assert d_win <= (other.pixel.u - cx) ** 2 + (other.pixel.v - cy) ** 2
        assert block_sample(out, grid) == out
    _report("criterion 4 (block sampling, 1000 sets)", started, 5.0)


def test_c5_greedy_matching_against_oracle():
    started = time.perf_counter()
    for seed in range(1000):
        rng = np.random.default_rng(4000 + seed)
        n_l, n_c = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        proj = [PixelPoint(*map(float, rng.uniform(0, 100, 2))) for _ in range(n_l)]
        dets = [PixelPoint(*map(float, rng.uniform(0, 100, 2))) for _ in range(n_c)]
        gate = MatchGate(float(rng.uniform(5, 90)))
        out = greedy_match(point_array(proj), point_array(dets), gate)

        lidar_seen = [i for i, _, _ in out.matches]
        camera_seen = [j for _, j, _ in out.matches]
        assert len(set(lidar_seen)) == len(lidar_seen)
        assert len(set(camera_seen)) == len(camera_seen)
        assert all(c <= gate.max_distance for *_, c in out.matches)
        assert all(0 <= i < n_l for i in lidar_seen)
        assert all(0 <= j < n_c for j in camera_seen)

        if n_l and n_c:
            costs = np.array([[math.hypot(p.u - d.u, p.v - d.v) for d in dets] for p in proj])
            expected = naive_greedy(costs, gate.max_distance)
            assert [(i, j) for i, j, _ in out.matches] == [(i, j) for i, j, _ in expected]
        else:
            assert out.matches == ()
    _report("criterion 5 (greedy matching, 1000 instances)", started, 5.0)


def test_c6_refinement_guard_and_checkpoint_log(tmp_path):
    started = time.perf_counter()
    any_updated = False
    any_rejected = False
    for seed in range(20):
        scene = SceneConfig(seed=seed)  # 600 frames
        sim_frames, gt = generate(scene)
        grid = BlockGrid(scene.image_width, scene.image_height)
        ransac_cfg = RansacConfig(seed=seed)

        coarse_input = [
            p for sf in sim_frames[:100] for p in oracle_pairs(sf, gt, scene.oracle_error_rate, seed)
        ]
        coarse_result, inliers = coarse_fit(coarse_input, grid, ransac_cfg)
        cfg = RefineConfig(recalib_interval=100, grid=grid, ransac=ransac_cfg)

        state = CalibrationState.initial(coarse_result.h, inliers)
        for sf in sim_frames:
            state = ingest_frame(state, sf.frame, cfg)
            if state.frames_seen % cfg.recalib_interval == 0:
                before = state.h_best
                state = checkpoint_recalibrate(state, cfg)
                record = state.checkpoints[-1]
                if record.updated:
                    assert record.err_new < record.err_best
                    any_updated = True
                else:
                    assert state.h_best is before  # bit-identical incumbent
                    if not record.skipped:
                        any_rejected = True

        csv_path = tmp_path / f"checkpoints_{seed}.csv"
        write_checkpoints_csv(csv_path, state.checkpoints)
        replayed = read_checkpoints_csv(csv_path)
        assert [r.updated for r in replayed] == [r.updated for r in state.checkpoints]
        assert len(replayed) == 6

    assert any_updated and any_rejected  # mixed Yes/No update pattern
    _report("criterion 6 (recalibration guard, 20 scenarios)", started, 120.0)


def test_c7_end_to_end_improvement_direction():
    started = time.perf_counter()
    aeds = {"coarse": [], "iterative": [], "correction": []}
    for seed in range(20):
        scene = SceneConfig(seed=seed)  # defaults: 0.5 px noise, 2% oracle errors
        sim_frames, gt = generate(scene)
        by_id = {sf.frame.frame_id: sf for sf in sim_frames}

        def oracle(frame):
            return oracle_pairs(by_id[frame.frame_id], gt, scene.oracle_error_rate, scene.seed)

        cfg = PipelineConfig(
            grid=BlockGrid(scene.image_width, scene.image_height),
            ransac=RansacConfig(seed=seed),
        )
        report = run_full([sf.frame for sf in sim_frames], oracle, cfg, gt.correspondences())
        for key in aeds:
            aeds[key].append(report.stage_metrics[key].aed)

    med = {key: float(np.median(values)) for key, values in aeds.items()}
    print(f"stage medians: {med}")
    assert med["coarse"] >= med["iterative"] >= med["correction"] - 1e-9
    assert med["iterative"] <= 0.85 * med["coarse"]  # >= 15% improvement
    assert med["correction"] <= med["iterative"] + 1e-9
    _report("criterion 7 (stage ordering, 20 seeds)", started, 300.0)


def test_c8_correction_gradient_and_recovery():
    started = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(8000 + seed)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 20)
        pairs = [
            Correspondence(
                c.lidar, PixelPoint(c.pixel.u + rng.normal(0, 2), c.pixel.v + rng.normal(0, 2))
            )
            for c in pairs
        ]
        d = np.eye(3) + rng.uniform(-0.01, 0.01, (3, 3))
        grad = reprojection_loss_gradient(h, d, *correspondence_arrays(pairs))
        step = 1e-6
        fd = np.zeros(9)
        flat = d.ravel()
        for k in range(9):
            plus, minus = flat.copy(), flat.copy()
            plus[k] += step
            minus[k] -= step
            fd[k] = (
                reprojection_loss(h, plus.reshape(3, 3), *correspondence_arrays(pairs))
                - reprojection_loss(h, minus.reshape(3, 3), *correspondence_arrays(pairs))
            ) / (2 * step)
        assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1.0)

    # known 2 px perturbation recovered through the full fit
    rng = np.random.default_rng(88)
    h_true = Homography([[12.0, 0.5, 300.0], [-0.5, 12.0, 250.0], [0.0, 0.0, 1.0]])
    pairs = exact_pairs(h_true, rng, 200, span=40.0)
    lidar = [c.lidar for c in pairs]
    camera = [c.pixel for c in pairs]
    h0 = compose(translation_homography(2.0, 0.0), h_true)
    result = fit_correction_stream(h0, [Frame(0, tuple(lidar), tuple(camera))], CorrectionConfig())
    assert np.max(np.abs(result.h_star.m - h_true.m)) < 1e-6
    trace = result.loss_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    _report("criterion 8 (correction gradient + recovery)", started, 30.0)


def test_c9_cli_determinism(tmp_path):
    started = time.perf_counter()
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "scene": {"n_frames": 60, "n_objects": 8, "seed": 5},
                "ransac": {"seed": 5},
                "refine": {"recalib_interval": 30},
            }
        )
    )

    outputs = {}
    for tag in ("a", "b"):
        root = tmp_path / tag
        sim = root / "sim"
        assert main(["--config", str(config), "simulate", "--out", str(sim)]) == 0
        coarse = root / "coarse.json"
        assert (
            main(
                [
                    "--config", str(config),
                    "calibrate",
                    "--frames", str(sim / "frames.jsonl"),
                    "--oracle", str(sim / "oracle_pairs.jsonl"),
                    "--out", str(coarse),
                ]
            )
            == 0
        )
        refined = root / "refined.json"
        assert (
            main(
                [
                    "--config", str(config),
                    "refine",
                    "--frames", str(sim / "frames.jsonl"),
                    "--matrix", str(coarse),
                    "--mode", "both",
                    "--out", str(refined),
                ]
            )
            == 0
        )
        report = root / "report.json"
        assert (
            main(
                [
                    "evaluate",
                    "--matrix", str(refined),
                    "--pairs", str(sim / "gt_pairs.jsonl"),
                    "--out", str(report),
                ]
            )
            == 0
        )
        outputs[tag] = [
            sim / "frames.jsonl",
            sim / "oracle_pairs.jsonl",
            sim / "ground_truth.json",
            sim / "gt_pairs.jsonl",
            coarse,
            refined.with_name("refined_checkpoints.csv"),
            refined.with_name("refined_loss_trace.json"),
            refined,
            report,
            report.with_name("report_hist.csv"),
        ]

    for file_a, file_b in zip(outputs["a"], outputs["b"]):
        assert file_a.read_bytes() == file_b.read_bytes(), file_a.name
    _report("criterion 9 (CLI determinism)", started, 60.0)
