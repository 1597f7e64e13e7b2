import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calibrefine.blocks import BlockGrid, block_of, block_sample
from calibrefine.errors import OutOfOrderFrame
from calibrefine.geometry import (
    Correspondence,
    Frame,
    Homography,
    PixelPoint,
    PlanePoint,
    Source,
    compose,
    correspondence_arrays,
    project,
    reprojection_metrics,
)
from calibrefine.matching import MatchGate
from calibrefine.ransac import RansacConfig
from calibrefine.refine import (
    BLOCK_CAPACITY,
    CalibrationState,
    GuardMetric,
    RefineConfig,
    checkpoint_recalibrate,
    ingest_frame,
    run,
)
from calibrefine.simulator import SceneConfig, generate

from conftest import naive_occupancy_admit, translation_homography

GRID = BlockGrid(1000, 1000, 5, 5)
CFG = RefineConfig(recalib_interval=100, gate=MatchGate(40.0), grid=GRID, ransac=RansacConfig(seed=5))


def scene_homography():
    # downscaled metric plane mapped into a 1000x1000 image
    return Homography([[10.0, 0.0, 100.0], [0.0, 10.0, 100.0], [0.0, 0.0, 1.0]])


def frame_from(h, frame_id, plane_pts, jitter=None):
    lidar = tuple(PlanePoint(x, y) for x, y in plane_pts)
    camera = []
    for i, p in enumerate(lidar):
        pp = project(h, p)
        du, dv = (0.0, 0.0) if jitter is None else jitter[i]
        camera.append(PixelPoint(pp.u + du, pp.v + dv))
    return Frame(frame_id=frame_id, lidar_centers=lidar, camera_centers=tuple(camera))


class TestIngestFrame:
    def test_empty_frame_only_bumps_counter(self):
        state = CalibrationState.initial(scene_homography())
        frame = Frame(frame_id=0, lidar_centers=(), camera_centers=())
        out = ingest_frame(state, frame, CFG)
        assert out.frames_seen == 1
        assert out.accumulated == ()
        assert out.h_best is state.h_best

    def test_self_consistent_frame_appends_survivors(self):
        h = scene_homography()
        state = CalibrationState.initial(h)
        frame = frame_from(h, 0, [(1.0, 1.0), (35.0, 1.0)])
        out = ingest_frame(state, frame, CFG)
        # both pairs land in distinct even-parity blocks and survive
        assert len(out.accumulated) == 2
        assert all(c.frame_id == 0 for c in out.accumulated)

    def test_occupied_block_rejects_near_duplicate(self):
        h = scene_homography()
        state = CalibrationState.initial(h)
        out = ingest_frame(state, frame_from(h, 0, [(1.0, 1.0)]), CFG)
        assert len(out.accumulated) == 1
        # same block, a few pixels away: not "sufficiently distinct"
        out2 = ingest_frame(out, frame_from(h, 1, [(2.0, 2.0)]), CFG)
        assert len(out2.accumulated) == 1
        assert out2.frames_seen == 2

    def test_distinct_points_fill_block_up_to_capacity(self):
        h = scene_homography()
        # block (0,0) covers pixels [0,200)^2 -> plane [-10,10)^2; half diagonal ~141 px
        state = CalibrationState.initial(h)
        spots = [(-9.5, -9.5), (9.0, -9.5), (-0.5, 9.0), (9.0, 9.0)]
        for i, spot in enumerate(spots):
            state = ingest_frame(state, frame_from(h, i, [spot]), CFG)
        block_counts = {}
        for c in state.accumulated:
            block_counts[block_of(GRID, c.pixel)] = block_counts.get(block_of(GRID, c.pixel), 0) + 1
        assert max(block_counts.values()) <= BLOCK_CAPACITY

    def test_out_of_order_frame_rejected(self):
        h = scene_homography()
        state = ingest_frame(CalibrationState.initial(h), frame_from(h, 5, [(0.0, 0.0)]), CFG)
        with pytest.raises(OutOfOrderFrame):
            ingest_frame(state, frame_from(h, 5, [(0.0, 0.0)]), CFG)

    def test_degenerate_projections_tallied(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [0.1, 0, 1]])
        state = CalibrationState.initial(h)
        frame = Frame(
            frame_id=0,
            lidar_centers=(PlanePoint(-10.0, 0.0), PlanePoint(1.0, 1.0)),
            camera_centers=(),
        )
        out = ingest_frame(state, frame, CFG)
        assert out.degenerate_skipped == 1


# Pixel coordinates on a 0.5 px lattice around blocks 0-2 of GRID (200 px
# blocks, half diagonal ~141 px), some just outside the image: near-duplicates,
# points far enough apart to share a block, and blocks filled to capacity (the
# four corners of a block are pairwise far enough apart, so a fourth corner
# tests the capacity rule).
_coord = st.builds(
    lambda block, offset: 200.0 * block + offset,
    st.sampled_from([-1, 0, 1, 2]),
    st.one_of(
        st.sampled_from([0.0, 199.5]),
        st.sampled_from([0.5, 4.0, 60.0, 100.0, 141.5, 195.0]),
        st.integers(0, 399).map(lambda k: 0.5 * k),
    ),
)
_pixels = st.lists(st.tuples(_coord, _coord), max_size=8)


class TestOccupancyHypothesis:
    @settings(max_examples=300)
    @given(seeds=_pixels, frames=st.lists(_pixels, min_size=1, max_size=6), skip_parity=st.booleans())
    def test_matches_rescan_reference(self, seeds, frames, skip_parity):
        # translation by (1, 0) is canonically [[.5, 0, .5], [0, .5, 0], [0, 0, .5]]:
        # it projects lidar (u - 1, v) onto (u, v) exactly, so every LiDAR point
        # matches its own camera point at cost 0, in LiDAR order
        h = translation_homography(1.0, 0.0)
        cfg = replace(CFG, skip_parity=skip_parity)
        seed_pairs = [Correspondence(PlanePoint(u - 1.0, v), PixelPoint(u, v)) for u, v in seeds]
        state = CalibrationState.initial(h, seed_pairs)
        expected = list(seed_pairs)
        for frame_id, pixels in enumerate(frames):
            frame = Frame(
                frame_id=frame_id,
                lidar_centers=tuple(PlanePoint(u - 1.0, v) for u, v in pixels),
                camera_centers=tuple(PixelPoint(u, v) for u, v in pixels),
            )
            state = ingest_frame(state, frame, cfg)
            matched = [
                Correspondence(lidar, pixel, frame_id, Source.GREEDY_MATCHED)
                for lidar, pixel in zip(frame.lidar_centers, frame.camera_centers)
            ]
            survivors = block_sample(matched, GRID, skip_parity=skip_parity)
            expected = naive_occupancy_admit(expected, survivors, GRID, BLOCK_CAPACITY)
            assert state.accumulated == tuple(expected)


class TestCheckpointRecalibrate:
    def test_incumbent_optimal_is_not_replaced(self):
        h = scene_homography()
        state = CalibrationState.initial(h)
        for i, spot in enumerate([(1, 1), (35, 1), (1, 35), (35, 35), (-30, 1), (1, -30)]):
            state = ingest_frame(state, frame_from(h, i, [spot]), CFG)
        out = checkpoint_recalibrate(state, CFG)
        record = out.checkpoints[-1]
        assert record.err_best == pytest.approx(0.0, abs=1e-9)
        assert record.updated is False
        assert out.h_best is state.h_best  # bit-identical object

    def test_ground_truth_pairs_replace_wrong_incumbent(self):
        h_true = scene_homography()
        h0 = compose(translation_homography(8.0, -6.0), h_true)
        state = CalibrationState.initial(h0)
        # accumulate exact ground-truth pairs (bypass matching: inject directly)
        pairs = []
        for i, spot in enumerate([(1, 1), (35, 1), (1, 35), (35, 35), (-30, 1), (1, -30)]):
            p = PlanePoint(*map(float, spot))
            pairs.append(Correspondence(p, project(h_true, p), frame_id=i))
        state = CalibrationState(h_best=h0, accumulated=tuple(pairs), frames_seen=6, last_frame_id=5)
        out = checkpoint_recalibrate(state, CFG)
        record = out.checkpoints[-1]
        assert record.updated is True
        assert record.err_new < record.err_best
        assert np.max(np.abs(out.h_best.m - h_true.m)) < 1e-6

    def test_too_few_pairs_is_skipped(self):
        h = scene_homography()
        state = CalibrationState(h_best=h, accumulated=(), frames_seen=3, last_frame_id=2)
        out = checkpoint_recalibrate(state, CFG)
        record = out.checkpoints[-1]
        assert record.skipped is True
        assert record.updated is False
        assert math.isnan(record.err_new)
        assert out.h_best is h
        assert out.accumulated == state.accumulated


class TestRun:
    def test_empty_stream_returns_h0(self):
        h = scene_homography()
        state = run([], h, CFG)
        assert state.h_best is h
        assert state.checkpoints == ()

    def test_final_flush_checkpoint(self):
        h = scene_homography()
        frames = [frame_from(h, i, [(1.0 + i, 1.0)]) for i in range(5)]
        state = run(frames, h, CFG)  # 5 < interval of 100
        assert len(state.checkpoints) == 1

    def test_noise_free_simulator_stream_improves_on_perturbed_start(self):
        scene = SceneConfig(
            seed=3,
            n_frames=240,
            pixel_noise_sigma=0.0,
            lidar_noise_sigma=0.0,
            camera_dropout=0.0,
            lidar_dropout=0.0,
            clutter_per_frame=0.0,
        )
        sim_frames, gt = generate(scene)
        h0 = compose(translation_homography(6.0, 4.0), gt.h_true)
        cfg = RefineConfig(
            recalib_interval=100,
            grid=BlockGrid(scene.image_width, scene.image_height),
            ransac=RansacConfig(seed=9),
        )
        state = run([sf.frame for sf in sim_frames], h0, cfg)
        eval_pairs = gt.correspondences()
        before = reprojection_metrics(h0, *correspondence_arrays(eval_pairs)).aed
        after = reprojection_metrics(state.h_best, *correspondence_arrays(eval_pairs)).aed
        assert after <= before + 1e-9
        assert after < 0.1  # essentially recovers the generator

    def test_replay_determinism(self):
        scene = SceneConfig(seed=4, n_frames=150)
        sim_frames, gt = generate(scene)
        cfg = RefineConfig(
            recalib_interval=50,
            grid=BlockGrid(scene.image_width, scene.image_height),
            ransac=RansacConfig(seed=2),
        )
        h0 = compose(translation_homography(3.0, 3.0), gt.h_true)
        a = run([sf.frame for sf in sim_frames], h0, cfg)
        b = run([sf.frame for sf in sim_frames], h0, cfg)
        assert a.checkpoints == b.checkpoints
        assert np.array_equal(a.h_best.m, b.h_best.m)

    def test_accumulated_growth_bounded(self):
        scene = SceneConfig(seed=5, n_frames=200)
        sim_frames, gt = generate(scene)
        grid = BlockGrid(scene.image_width, scene.image_height)
        cfg = RefineConfig(recalib_interval=100, grid=grid, ransac=RansacConfig(seed=1))
        sizes = []
        state = CalibrationState.initial(gt.h_true)
        for sf in sim_frames:
            state = ingest_frame(state, sf.frame, cfg)
            sizes.append(len(state.accumulated))
        assert sizes == sorted(sizes)  # non-decreasing
        retained = sum(
            grid.retained(ix, iy) for ix in range(grid.blocks_x) for iy in range(grid.blocks_y)
        )
        assert sizes[-1] <= retained * BLOCK_CAPACITY

    def test_guard_metric_rmse_option(self):
        h = scene_homography()
        cfg = RefineConfig(recalib_interval=100, grid=GRID, metric=GuardMetric.RMSE,
                           ransac=RansacConfig(seed=5))
        frames = [frame_from(h, i, [(1.0 + i, 1.0)]) for i in range(4)]
        state = run(frames, h, cfg)
        assert state.checkpoints  # metric choice must not break the loop
