import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibrefine import matching, refine
from calibrefine.blocks import BlockGrid, Parity, half_block_diagonal
from calibrefine.errors import OutOfOrderFrame
from calibrefine.geometry import (
    Frame,
    FrameStream,
    Homography,
    PairSet,
    Source,
    compose,
    correspondence_arrays,
    project_points,
    projectable,
    reprojection_metrics,
)
from calibrefine.matching import MatchGate, greedy_match
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

from conftest import (
    assert_as_checked,
    assert_same_pairs,
    naive_block,
    naive_block_sample,
    naive_greedy,
    naive_occupancy_admit,
    naive_retained,
    pair_set,
    point_array,
    project_one,
    translation_homography,
)

GRID = BlockGrid(1000, 1000, 5, 5)
CFG = RefineConfig(recalib_interval=100, gate=MatchGate(40.0), grid=GRID, ransac=RansacConfig(seed=5))


def scene_homography():
    # downscaled metric plane mapped into a 1000x1000 image
    return Homography([[10.0, 0.0, 100.0], [0.0, 10.0, 100.0], [0.0, 0.0, 1.0]])


def frame_from(h, frame_id, plane_pts):
    lidar = point_array(plane_pts)
    return Frame(frame_id, lidar, project_points(h, lidar))


class TestCalibrationState:
    def test_compares_by_identity_and_hashes(self):
        h = scene_homography()
        state = ingest_frame(CalibrationState.initial(h), frame_from(h, 0, [(1.0, 1.0), (35.0, 1.0)]), CFG)
        copy = replace(state)
        assert state == state and copy != state
        assert CalibrationState.initial(h, state.accumulated) != CalibrationState.initial(h, state.accumulated)
        assert len({state, copy, state}) == 2 and hash(state) == hash(state)


class TestIngestFrame:
    def test_empty_frame_only_bumps_counter(self):
        state = CalibrationState.initial(scene_homography())
        frame = Frame(frame_id=0, lidar_centers=(), camera_centers=())
        out = ingest_frame(state, frame, CFG)
        assert out.frames_seen == 1
        assert len(out.accumulated) == 0
        assert out.h_best is state.h_best

    def test_self_consistent_frame_appends_survivors(self):
        h = scene_homography()
        state = CalibrationState.initial(h)
        frame = frame_from(h, 0, [(1.0, 1.0), (35.0, 1.0)])
        out = ingest_frame(state, frame, CFG)
        # both pairs land in distinct even-parity blocks and survive
        assert len(out.accumulated) == 2
        assert out.accumulated.frame_ids.tolist() == [0, 0]

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
        for u, v in state.accumulated.uv.tolist():
            block = naive_block(GRID, u, v)
            block_counts[block] = block_counts.get(block, 0) + 1
        assert max(block_counts.values()) <= BLOCK_CAPACITY

    @pytest.mark.parametrize("as_window", [False, True])
    def test_admitted_rows_hold_what_the_constructor_checks(self, as_window, monkeypatch):
        # the admitted rows of each call, told from the concatenations by
        # their one Source for every row
        admitted = []
        checked = PairSet._checked

        def spy(*columns):
            pairs = checked(*columns)
            if isinstance(columns[3], Source):
                admitted.append(pairs)
            return pairs

        monkeypatch.setattr(PairSet, "_checked", spy)
        h = scene_homography()
        frames = [
            frame_from(h, 7, [(1.0, 1.0), (30.0, 50.0), (60.0, 20.0), (85.0, 85.0)]),
            frame_from(h, 9, [(5.0, 70.0), (50.0, 50.0)]),
        ]
        state = CalibrationState.initial(h)
        for folded in [frames] if as_window else frames:
            state = ingest_frame(state, folded, CFG)
        assert len(admitted) == (1 if as_window else 2)
        assert sum(map(len, admitted)) == len(state.accumulated) >= 4
        for pairs in admitted + [state.accumulated]:
            assert_as_checked(pairs)

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
            lidar_centers=np.array([[-10.0, 0.0], [1.0, 1.0]]),
            camera_centers=np.empty((0, 2)),
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
        seed_pairs = pair_set([(u - 1.0, v) for u, v in seeds], seeds)
        state = CalibrationState.initial(h, seed_pairs)
        expected = seed_pairs
        for frame_id, pixels in enumerate(frames):
            lidar = [(u - 1.0, v) for u, v in pixels]
            frame = Frame(frame_id, point_array(lidar), point_array(pixels))
            state = ingest_frame(state, frame, cfg)
            matched = pair_set(lidar, pixels, frame_id, Source.GREEDY_MATCHED)
            survivors = naive_block_sample(matched, GRID, skip_parity)
            expected = naive_occupancy_admit(expected, survivors, GRID, BLOCK_CAPACITY)
            assert_same_pairs(state.accumulated, expected)


def per_frame_loop(frames, h0, cfg, seed_pairs=()):
    """The online loop frame by frame, on ``run``'s checkpoint schedule."""
    state = CalibrationState.initial(h0, seed_pairs)
    for frame in frames:
        state = ingest_frame(state, frame, cfg)
        if state.frames_seen % cfg.recalib_interval == 0:
            state = checkpoint_recalibrate(state, cfg)
    if state.frames_seen % cfg.recalib_interval:
        state = checkpoint_recalibrate(state, cfg)
    return state


def assert_same_state(a, b):
    assert np.array_equal(a.h_best.m, b.h_best.m)
    assert a.checkpoints == b.checkpoints
    assert_same_pairs(a.accumulated, b.accumulated)
    assert (a.frames_seen, a.last_frame_id, a.degenerate_skipped) == (
        b.frames_seen, b.last_frame_id, b.degenerate_skipped
    )


class TestPerFrameLoopOnLargeFrames:
    def test_per_frame_loop_equals_run_bit_for_bit(self, monkeypatch):
        # 130 objects: most frames have more cells than matching._GRID_CELLS,
        # so a single-frame ingest matches them by the band search and the
        # rest by the grid, while run's windows match through candidate_edges.
        # This is the benchmark's online-loop check on dense-sized frames.
        scene = SceneConfig(seed=11, n_frames=50, n_objects=130)
        sim_frames, gt = generate(scene)
        frames = [sf.frame for sf in sim_frames]
        h0 = compose(translation_homography(3.0, -2.0), gt.h_true)
        cfg = RefineConfig(
            recalib_interval=10,
            grid=BlockGrid(scene.image_width, scene.image_height),
            ransac=RansacConfig(seed=3),
        )
        one_frame = []
        for name in ("_grid_edges", "candidate_edges"):
            edges = getattr(matching, name)

            def counted(proj, dets, radius, *frame_of, name=name, edges=edges):
                if not frame_of:
                    one_frame.append(name)
                return edges(proj, dets, radius, *frame_of)

            monkeypatch.setattr(matching, name, counted)
        looped = per_frame_loop(frames, h0, cfg)
        assert one_frame.count("candidate_edges") >= 40 and one_frame.count("_grid_edges") >= 1
        del one_frame[:]
        state = run(frames, h0, cfg)
        assert one_frame == []  # every window of 10 frames goes through candidate_edges
        assert_same_state(looped, state)
        assert len(state.checkpoints) == 5 and any(record.updated for record in state.checkpoints)


# Pixels on a 50 px lattice over GRID, plus the image edges and points just
# inside and outside them: u == image_width lies outside the image.
_edge_coord = st.one_of(
    st.integers(0, 20).map(lambda k: 50.0 * k),
    st.sampled_from([-0.5, 0.5, 199.5, 999.5, 1000.0, 1000.5]),
)
_edge_pixels = st.lists(st.tuples(_edge_coord, _edge_coord), max_size=8)


class TestWindowHypothesis:
    @settings(max_examples=300)
    @given(
        seeds=_edge_pixels,
        frames=st.lists(_edge_pixels, min_size=1, max_size=6),
        parity=st.sampled_from(Parity),
        skip_parity=st.booleans(),
    )
    def test_window_matches_per_frame_reference(self, seeds, frames, parity, skip_parity):
        # as in TestOccupancyHypothesis, every LiDAR point matches its own
        # camera point at cost 0, in LiDAR order; here the whole stream is
        # one window
        h = translation_homography(1.0, 0.0)
        grid = replace(GRID, parity=parity)
        cfg = replace(CFG, grid=grid, skip_parity=skip_parity)
        seed_pairs = pair_set([(u - 1.0, v) for u, v in seeds], seeds)
        points = [([(u - 1.0, v) for u, v in pixels], pixels) for pixels in frames]
        window = [
            Frame(2 * frame_id, point_array(lidar), point_array(camera))
            for frame_id, (lidar, camera) in enumerate(points)
        ]
        state = ingest_frame(CalibrationState.initial(h, seed_pairs), window, cfg)

        expected = seed_pairs
        for frame, (lidar, camera) in zip(window, points):
            matched = pair_set(lidar, camera, frame.frame_id, Source.GREEDY_MATCHED)
            survivors = naive_block_sample(matched, grid, skip_parity)
            expected = naive_occupancy_admit(expected, survivors, grid, BLOCK_CAPACITY)
        assert_same_pairs(state.accumulated, expected)
        assert state.frames_seen == len(window)
        assert state.last_frame_id == window[-1].frame_id

    @settings(max_examples=150)
    @given(
        stream=st.lists(
            st.tuples(
                # LiDAR points on a 5 m lattice (50 px under scene_homography),
                # each with a detection offset (None: not detected)
                st.lists(
                    st.tuples(
                        st.integers(-2, 18).map(lambda k: 5.0 * k),
                        st.integers(-2, 18).map(lambda k: 5.0 * k),
                        st.one_of(st.none(), st.sampled_from([0.0, 0.25, -0.5, 2.0, 30.0])),
                    ),
                    max_size=8,
                ),
                # clutter detections
                st.lists(st.tuples(_edge_coord, _edge_coord), max_size=2),
            ),
            max_size=25,
        ),
        interval=st.integers(1, 7),
        seeded=st.booleans(),
        parity=st.sampled_from(Parity),
        skip_parity=st.booleans(),
    )
    def test_run_equals_per_frame_loop(self, stream, interval, seeded, parity, skip_parity):
        h_true = scene_homography()
        h0 = compose(translation_homography(3.0, -2.0), h_true)
        frames = []
        for frame_id, (points, clutter) in enumerate(stream):
            lidar = [(x, y) for x, y, _ in points]
            camera = []
            for x, y, offset in points:
                if offset is not None:
                    u, v = project_one(h_true, x, y)
                    camera.append((u + offset, v - offset))
            camera.extend(clutter)
            frames.append(Frame(frame_id, point_array(lidar), point_array(camera)))
        spots = point_array(
            [(1.0, 1.0), (35.0, 1.0), (1.0, 35.0), (35.0, 35.0), (60.0, 70.0)] if seeded else []
        )
        seed_set = pair_set(spots, project_points(h_true, spots), 7, Source.ORACLE)
        cfg = replace(
            CFG, recalib_interval=interval, grid=replace(GRID, parity=parity),
            skip_parity=skip_parity,
        )
        state = run(iter(frames), h0, cfg, seed_set)
        assert_same_state(state, per_frame_loop(frames, h0, cfg, seed_set))
        # a PairSet seed passes through; the same pairs as a tuple of rows
        # agree bit for bit
        assert CalibrationState.initial(h0, seed_set).accumulated is seed_set
        assert_same_state(state, run(iter(frames), h0, cfg, tuple(seed_set)))

        # seed rows keep their own frame id and source; each admitted row
        # carries the id of the frame it was matched in (here its position)
        assert_same_pairs(state.accumulated[: len(seed_set)], seed_set)
        admitted = state.accumulated[len(seed_set):]
        assert all(source is Source.GREEDY_MATCHED for source in admitted.source)
        assert admitted.frame_ids.tolist() == sorted(admitted.frame_ids.tolist())
        for xy, uv, frame_id in zip(admitted.xy.tolist(), admitted.uv.tolist(), admitted.frame_ids.tolist()):
            frame = frames[frame_id]
            assert xy in frame.lidar_centers.tolist() and uv in frame.camera_centers.tolist()

    @settings(max_examples=100)
    @given(ids=st.lists(st.integers(0, 6), max_size=10), interval=st.integers(1, 4))
    def test_out_of_order_frame_raises_like_the_per_frame_loop(self, ids, interval):
        h = scene_homography()
        frames = [frame_from(h, fid, [(float(fid), 1.0)]) for fid in ids]
        cfg = replace(CFG, recalib_interval=interval)
        outcomes = []
        for drive in (run, per_frame_loop):
            try:
                outcomes.append(tuple(drive(frames, h, cfg).accumulated))
            except OutOfOrderFrame as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        in_order = all(a < b for a, b in zip(ids, ids[1:]))
        assert isinstance(outcomes[0], tuple) == in_order

    def test_occupancy_of_a_replaced_set_is_rebuilt(self):
        h = scene_homography()
        state = ingest_frame(CalibrationState.initial(h), frame_from(h, 0, [(1.0, 1.0)]), CFG)
        # same length, other block: the cached occupancy belongs to the old set
        other = pair_set([(35.0, 1.0)], [project_one(h, 35.0, 1.0)])
        frame = frame_from(h, 1, [(2.0, 2.0), (36.0, 2.0)])
        out = ingest_frame(replace(state, accumulated=other), frame, CFG)
        fresh = ingest_frame(
            CalibrationState(h_best=h, accumulated=other, frames_seen=1, last_frame_id=0), frame, CFG
        )
        assert_same_pairs(out.accumulated, fresh.accumulated)
        assert len(out.accumulated) == 2  # (2, 2) is admitted, (36, 2) is not

    @pytest.mark.parametrize("as_window", [False, True])
    def test_state_is_not_changed_by_later_ingests(self, as_window):
        h = scene_homography()
        # block (0, 0) holds pixel (10, 10); A admits (190, 10) to it, and B's
        # (190, 30) is 181 px from the first but 20 px from A's pixel
        start = ingest_frame(CalibrationState.initial(h), frame_from(h, 0, [(-9.0, -9.0)]), CFG)

        def frames(spot):
            last = frame_from(h, 2, [spot])
            return [Frame(1, np.empty((0, 2)), np.empty((0, 2))), last] if as_window else last

        after_a = ingest_frame(start, frames((9.0, -9.0)), CFG)
        assert len(after_a.accumulated) == 2
        after_b = ingest_frame(start, frames((9.0, -7.0)), CFG)
        fresh = ingest_frame(
            CalibrationState(h_best=h, accumulated=start.accumulated, frames_seen=1, last_frame_id=0),
            frames((9.0, -7.0)),
            CFG,
        )
        assert_same_pairs(after_b.accumulated, fresh.accumulated)
        assert len(after_b.accumulated) == 2


# Horizon at x = -4096 m (w is exactly 0 there), so a LiDAR point at
# DEGENERATE is skipped; elsewhere on GRID it maps ground (x, y) to about
# (x, y) / (1 + x / 4096), and lidar_of inverts that.
PROJECTIVE = Homography([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0**-12, 0.0, 1.0]])
DEGENERATE = (-4096.0, 0.0)


def lidar_of(u, v):
    """A ground point that PROJECTIVE maps to about ``(u, v)``."""
    w = 1.0 - u / 4096.0
    return u / w, v / w


# Pixels around GRID's blocks (200 px, radius ~141 px): block corners and
# centres, near-duplicates of the seed spots below, and the blocks one past
# each edge, which lie outside the image.
_spot = st.builds(
    lambda block, offset: 200.0 * block + offset,
    st.integers(-1, 5),
    st.sampled_from([0.0, 10.0, 12.5, 60.0, 100.0, 150.0, 188.0, 190.0, 199.5]),
)
_frame = st.tuples(
    st.integers(0, 2),  # LiDAR points on the horizon, skipped as degenerate
    # LiDAR points by the pixel they project to, each with the offset of its
    # detection on both axes (None: not detected)
    st.lists(
        st.tuples(_spot, _spot, st.one_of(st.none(), st.sampled_from([0.0, -1.0, 3.0, 25.0]))),
        max_size=4,
    ),
    st.lists(st.tuples(_spot, _spot), max_size=2),  # clutter detections
)


def naive_open(accumulated, u, v, grid, skip_parity):
    """Whether the occupancy of ``accumulated`` could still admit the camera
    point ``(u, v)`` as a block winner, by the reference rules."""
    block = naive_block(grid, u, v)
    if block is None or (skip_parity and not naive_retained(grid, block)):
        return False
    radius = 0.5 * math.hypot(grid.image_width / grid.blocks_x, grid.image_height / grid.blocks_y)
    members = [(mu, mv) for mu, mv in accumulated.uv.tolist() if naive_block(grid, mu, mv) == block]
    return len(members) < BLOCK_CAPACITY and all(
        math.hypot(u - mu, v - mv) >= radius for mu, mv in members
    )


class TestLiveFrames:
    """Every call, on a single frame or a window, skips the matching of each
    frame its starting occupancy leaves no open detection in; seeds fill
    most blocks here, so most frames are dead."""

    @settings(max_examples=300)
    # the non-open (194, 194) takes the LiDAR point from the open (205, 205):
    # nothing is admitted, in a window or frame by frame
    @example(
        full=[], seeds=[(190.0, 190.0)],
        frames=[(0, [(195.0, 195.0, -1.0)], [(205.0, 205.0)]), (0, [], [])],
        interval=2, parity=Parity.EVEN, skip_parity=True,
    )
    @example(
        full=[], seeds=[(190.0, 190.0)],
        frames=[(0, [(195.0, 195.0, -1.0)], [(205.0, 205.0)]), (0, [], [])],
        interval=1, parity=Parity.EVEN, skip_parity=True,
    )
    # the non-open (100, 100) is nearer the block centre than the open
    # (190, 190) and wins the block: nothing is admitted
    @example(
        full=[], seeds=[(10.0, 10.0)],
        frames=[(1, [(100.0, 100.0, 0.0), (190.0, 190.0, 0.0)], []), (0, [], [])],
        interval=2, parity=Parity.EVEN, skip_parity=True,
    )
    # a block seeded with more than BLOCK_CAPACITY pairs, a dead frame with
    # degenerate points, detections outside the image and in a skipped block
    @example(
        full=[(0, 0, 5), (2, 0, 3)], seeds=[(1010.0, 100.0), (300.0, 100.0)],
        frames=[
            (2, [(100.0, 100.0, 0.0), (-190.0, 60.0, 0.0), (300.0, 60.0, 0.0)], [(500.0, 100.0)]),
            (1, [(600.0, 190.0, 3.0)], []),
            (0, [(450.0, 150.0, 0.0)], []),
        ],
        interval=3, parity=Parity.EVEN, skip_parity=True,
    )
    @given(
        # blocks seeded at their corners and centre, up to 5 pairs per block
        full=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 5)), max_size=25),
        seeds=st.lists(st.tuples(_spot, _spot), max_size=6),
        frames=st.lists(_frame, min_size=1, max_size=8),
        interval=st.integers(1, 6),
        parity=st.sampled_from(Parity),
        skip_parity=st.booleans(),
    )
    def test_windows_equal_the_per_frame_reference(
        self, full, seeds, frames, interval, parity, skip_parity
    ):
        grid = replace(GRID, parity=parity)
        cfg = replace(CFG, grid=grid, skip_parity=skip_parity)
        spots = [(10.0, 10.0), (190.0, 10.0), (10.0, 190.0), (190.0, 190.0), (100.0, 100.0)]
        seed_pixels = [
            (200.0 * bx + du, 200.0 * by + dv) for bx, by, n in full for du, dv in spots[:n]
        ] + seeds
        seed_pairs = pair_set([lidar_of(u, v) for u, v in seed_pixels], seed_pixels)
        window_frames = []
        for frame_id, (degenerate, points, clutter) in enumerate(frames):
            lidar = [DEGENERATE] * degenerate + [lidar_of(u, v) for u, v, _ in points]
            camera = [(u + d, v + d) for u, v, d in points if d is not None]
            camera += clutter
            window_frames.append((Frame(frame_id, point_array(lidar), point_array(camera)), lidar, camera))

        state = CalibrationState.initial(PROJECTIVE, seed_pairs)
        expected, degenerate_total = seed_pairs, 0
        for start in range(0, len(window_frames), interval):
            window = window_frames[start : start + interval]
            live = [
                frame for frame, _, camera in window
                if any(naive_open(expected, u, v, grid, skip_parity) for u, v in camera)
            ]
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(refine, "greedy_match", lambda *a: calls.append(a) or greedy_match(*a))
                # a single frame is passed as itself, a window as a list
                folded = window[0][0] if len(window) == 1 else [frame for frame, _, _ in window]
                state = ingest_frame(state, folded, cfg)
            # one greedy_match call for the live frames, none without one
            assert len(calls) == (1 if live else 0)
            for args in calls:
                if len(window) == 1:
                    # a single frame is matched on its own arrays, without
                    # frame maps
                    frame = window[0][0]
                    uv, _ = projectable(PROJECTIVE.m, frame.lidar_centers)
                    assert len(args) == 3 and args[1] is frame.camera_centers
                    assert np.array_equal(args[0], uv)
                else:
                    assert np.array_equal(
                        args[1], np.concatenate([f.camera_centers for f in live]).reshape(-1, 2)
                    )
                    # each camera row under its frame's index in the window
                    assert args[4].tolist() == [
                        k for k, (f, _, _) in enumerate(window) if f in live for _ in f.camera_centers
                    ]

            for frame, lidar, camera in window:
                uv, kept = projectable(PROJECTIVE.m, frame.lidar_centers)
                degenerate_total += len(lidar) - len(kept)
                costs = np.hypot(
                    uv[:, None, 0] - frame.camera_centers[None, :, 0],
                    uv[:, None, 1] - frame.camera_centers[None, :, 1],
                )
                edges = naive_greedy(costs, cfg.gate.max_distance)
                matched = pair_set(
                    [lidar[kept[i]] for i, _, _ in edges],
                    [camera[j] for _, j, _ in edges],
                    frame.frame_id,
                    Source.GREEDY_MATCHED,
                )
                survivors = naive_block_sample(matched, grid, skip_parity)
                expected = naive_occupancy_admit(expected, survivors, grid, BLOCK_CAPACITY)
            assert_same_pairs(state.accumulated, expected)
            assert state.degenerate_skipped == degenerate_total
        assert state.frames_seen == len(frames)

    def test_dead_window_is_not_matched_and_counts_its_degenerate_points(self, monkeypatch):
        # block (0, 0) is full and (1, 0) is skipped, so no frame is live
        pixels = [(10.0, 10.0), (190.0, 10.0), (10.0, 190.0)]
        seeds = pair_set([lidar_of(u, v) for u, v in pixels], pixels)
        frames = [
            Frame(k, [DEGENERATE, lidar_of(100.0, 100.0), lidar_of(300.0, 100.0)],
                  [(100.0, 100.0), (300.0, 100.0), (-5.0, 1.0)])
            for k in range(4)
        ]
        calls = []
        monkeypatch.setattr(refine, "greedy_match", lambda *a: calls.append(a) or greedy_match(*a))
        window = ingest_frame(CalibrationState.initial(PROJECTIVE, seeds), frames, CFG)
        # and each frame alone is just as dead
        single = CalibrationState.initial(PROJECTIVE, seeds)
        for frame in frames:
            single = ingest_frame(single, frame, CFG)
        assert calls == []
        for state in (window, single):
            assert state.degenerate_skipped == 4
            assert state.frames_seen == 4 and state.last_frame_id == 3
            assert state.accumulated is window.accumulated is single.accumulated


class TestBulkRefusalBoundary:
    # 6 x 8 px blocks: the radius is exactly hypot(6, 8) / 2 = 5.0
    GRID = BlockGrid(30, 40, 5, 5)

    @pytest.mark.parametrize(
        "pixel, admitted",
        [
            ((5.0, 0.0), True),
            ((3.0, 4.0), True),
            ((float(np.nextafter(5.0, 0.0)), 0.0), False),
            ((2.0, 0.0), False),
        ],
    )
    def test_pixel_at_the_radius_is_admitted_and_inside_it_refused(self, pixel, admitted):
        assert half_block_diagonal(self.GRID) == 5.0
        cfg = replace(CFG, grid=self.GRID)
        h = translation_homography(1.0, 0.0)
        stored = pair_set([(-1.0, 0.0)], [(0.0, 0.0)])
        u, v = pixel
        window = [
            Frame(0, np.empty((0, 2)), np.empty((0, 2))),
            Frame(1, np.array([[u - 1.0, v]]), np.array([[u, v]])),
        ]
        state = ingest_frame(CalibrationState.initial(h, stored), window, cfg)
        assert [tuple(uv) for uv in state.accumulated.uv.tolist()] == [(0.0, 0.0)] + [pixel] * admitted
        one_by_one = CalibrationState.initial(h, stored)
        for frame in window:
            one_by_one = ingest_frame(one_by_one, frame, cfg)
        assert_same_pairs(one_by_one.accumulated, state.accumulated)


def exact_parabola_pairs(h, ks):
    """Exact pairs of ``h`` at ground points on a parabola, so that no three
    are collinear and every minimal sample is well posed."""
    xy = point_array((5.0 * k - 10.0, 0.75 * k * k - 10.0) for k in ks)
    return pair_set(xy, project_points(h, xy))


class TestCheckpointFitReuse:
    def test_unchanged_set_is_fit_once(self, monkeypatch):
        h = scene_homography()
        pairs = exact_parabola_pairs(h, range(5))
        start = CalibrationState(
            h_best=compose(translation_homography(2.0, 1.0), h), accumulated=pairs, last_frame_id=4
        )
        fits = []
        fit = refine.ransac_homography
        monkeypatch.setattr(refine, "ransac_homography", lambda *a: fits.append(1) or fit(*a))
        once = checkpoint_recalibrate(start, CFG)
        twice = checkpoint_recalibrate(once, CFG)
        assert len(fits) == 1
        # the reused fit yields the record a fresh fit would
        fresh = checkpoint_recalibrate(replace(once, _fit=None), CFG)
        assert len(fits) == 2
        assert twice.checkpoints == fresh.checkpoints
        assert np.array_equal(twice.h_best.m, fresh.h_best.m)
        # another RANSAC config fits again
        checkpoint_recalibrate(once, replace(CFG, ransac=RansacConfig(seed=6)))
        assert len(fits) == 3

    @settings(max_examples=100)
    @given(
        ks=st.permutations(range(12)),
        other=st.permutations(range(12)),
        n=st.integers(4, 12),
        shift=st.integers(1, 20),
    )
    def test_fit_never_reused_for_a_replaced_set_of_the_same_length(self, ks, other, n, shift):
        h = scene_homography()
        first = exact_parabola_pairs(h, ks[:n])
        second = exact_parabola_pairs(compose(translation_homography(float(shift), 0.0), h), other[:n])
        fitted = checkpoint_recalibrate(CalibrationState(h_best=h, accumulated=first), CFG)
        replaced = checkpoint_recalibrate(replace(fitted, accumulated=second), CFG)
        fresh = checkpoint_recalibrate(
            CalibrationState(h_best=h, accumulated=second, checkpoints=fitted.checkpoints), CFG
        )
        assert replaced.checkpoints == fresh.checkpoints
        assert np.array_equal(replaced.h_best.m, fresh.h_best.m)


class TestCheckpointGuardCache:
    @pytest.mark.parametrize("metric", list(GuardMetric))
    @pytest.mark.parametrize("interval", [1, 5, 100])
    def test_every_checkpoint_equals_one_without_the_cache(self, metric, interval, monkeypatch):
        scene = SceneConfig(seed=1, n_frames=200)
        sim_frames, gt = generate(scene)
        cfg = RefineConfig(
            recalib_interval=interval,
            grid=BlockGrid(scene.image_width, scene.image_height),
            metric=metric,
            ransac=RansacConfig(seed=2),
        )
        projections = []
        metrics = refine.reprojection_metrics
        monkeypatch.setattr(refine, "reprojection_metrics", lambda *a: projections.append(1) or metrics(*a))
        state = CalibrationState.initial(compose(translation_homography(3.0, 3.0), gt.h_true))
        hits = {"fit": 0, "incumbent": 0}
        for sf in sim_frames:
            state = ingest_frame(state, sf.frame, cfg)
            if state.frames_seen % interval:
                continue
            fresh = checkpoint_recalibrate(replace(state, _fit=None), cfg)
            unchanged = state._fit is not None and state._fit[0] is state.accumulated
            before = len(projections)
            after = checkpoint_recalibrate(state, cfg)
            assert after.checkpoints == fresh.checkpoints
            assert after.h_best.m.tobytes() == fresh.h_best.m.tobytes()
            if unchanged and not after.checkpoints[-1].skipped:
                # the set and both matrices were seen at the last checkpoint
                assert len(projections) == before
                hits["fit" if state.h_best is state._fit[2].h else "incumbent"] += 1
            state = after
        if interval == 1:
            assert hits["fit"] and hits["incumbent"]

    def test_equal_but_distinct_set_or_matrix_is_scored_again(self, monkeypatch):
        h = scene_homography()
        pairs = exact_parabola_pairs(h, range(8))
        start = CalibrationState(
            h_best=compose(translation_homography(2.0, 1.0), h), accumulated=pairs, last_frame_id=7
        )
        fits, scored = [], []
        fit, metric_value = refine.ransac_homography, refine._metric_value
        monkeypatch.setattr(refine, "ransac_homography", lambda *a: fits.append(1) or fit(*a))
        monkeypatch.setattr(refine, "_metric_value", lambda *a: scored.append(1) or metric_value(*a))

        def counted(state, cfg=CFG):
            before = len(fits), len(scored)
            out = checkpoint_recalibrate(state, cfg)
            fresh = checkpoint_recalibrate(replace(state, _fit=None), cfg)
            assert out.checkpoints == fresh.checkpoints
            assert out.h_best.m.tobytes() == fresh.h_best.m.tobytes()
            return out, len(fits) - before[0] - 1, len(scored) - before[1] - 2

        once, refits, scores = counted(start)
        assert once.checkpoints[-1].updated and (refits, scores) == (1, 2)
        # the same objects: nothing is fit or scored again
        assert counted(once)[1:] == (0, 0)
        assert counted(replace(once, h_best=start.h_best))[1:] == (0, 0)
        # an equal matrix that is another object is scored; the fit is not
        assert counted(replace(once, h_best=Homography(once.h_best.m)))[1:] == (0, 1)
        # an equal set that is another object is fit and scored again
        copy = PairSet(pairs.xy, pairs.uv, pairs.frame_ids, pairs.source)
        assert counted(replace(once, accumulated=copy))[1:] == (1, 2)
        # another guard metric scores both matrices again on the cached fit
        assert counted(once, replace(CFG, metric=GuardMetric.RMSE))[1:] == (0, 2)

    def test_a_hit_on_both_matrices_makes_no_projection(self, monkeypatch):
        h = scene_homography()
        pairs = exact_parabola_pairs(h, range(8))
        incumbent = compose(translation_homography(2.0, 1.0), h)
        once = checkpoint_recalibrate(
            CalibrationState(h_best=incumbent, accumulated=pairs, last_frame_id=7), CFG
        )
        expected = [
            checkpoint_recalibrate(replace(state, _fit=None), CFG)
            for state in (once, replace(once, h_best=incumbent))
        ]

        def refused(*args):
            raise AssertionError("projected or fit on a cached set")

        for name in ("ransac_homography", "reprojection_metrics", "_metric_value"):
            monkeypatch.setattr(refine, name, refused)
        for state, fresh in zip((once, replace(once, h_best=incumbent)), expected):
            out = checkpoint_recalibrate(state, CFG)
            assert out.checkpoints == fresh.checkpoints
            assert out.h_best.m.tobytes() == fresh.h_best.m.tobytes()


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
        spots = point_array([(1, 1), (35, 1), (1, 35), (35, 35), (-30, 1), (1, -30)])
        pairs = pair_set(spots, project_points(h_true, spots), frame_id=np.arange(6))
        state = CalibrationState(h_best=h0, accumulated=pairs, frames_seen=6, last_frame_id=5)
        out = checkpoint_recalibrate(state, CFG)
        record = out.checkpoints[-1]
        assert record.updated is True
        assert record.err_new < record.err_best
        assert np.max(np.abs(out.h_best.m - h_true.m)) < 1e-6

    def test_too_few_pairs_is_skipped(self):
        h = scene_homography()
        state = CalibrationState(h_best=h, frames_seen=3, last_frame_id=2)
        out = checkpoint_recalibrate(state, CFG)
        record = out.checkpoints[-1]
        assert record.skipped is True
        assert record.updated is False
        assert math.isnan(record.err_new)
        assert out.h_best is h
        assert out.accumulated is state.accumulated


class TestRun:
    def test_empty_stream_returns_h0(self):
        h = scene_homography()
        state = run([], h, CFG)
        assert state.h_best is h
        assert state.checkpoints == ()

    @pytest.mark.parametrize("interval", [1, 7, 40])
    def test_a_generator_a_list_and_a_stream_give_the_same_state(self, interval):
        sim_frames, gt = generate(SceneConfig(seed=8, n_frames=61, n_objects=12))
        frames = [sf.frame for sf in sim_frames]
        h0 = compose(translation_homography(4.0, -3.0), gt.h_true)
        cfg = RefineConfig(
            recalib_interval=interval, grid=BlockGrid(1920, 1080), ransac=RansacConfig(seed=1)
        )
        listed = run(frames, h0, cfg)
        assert len(listed.checkpoints) == -(-61 // interval) and len(listed.accumulated) > 0
        assert_same_state(listed, per_frame_loop(frames, h0, cfg))
        for given in (iter(frames), (f for f in frames), FrameStream.of(frames)):
            assert_same_state(run(given, h0, cfg), listed)

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
            naive_retained(grid, (ix, iy)) for ix in range(grid.blocks_x) for iy in range(grid.blocks_y)
        )
        assert sizes[-1] <= retained * BLOCK_CAPACITY

    def test_guard_metric_rmse_option(self):
        h = scene_homography()
        cfg = RefineConfig(recalib_interval=100, grid=GRID, metric=GuardMetric.RMSE,
                           ransac=RansacConfig(seed=5))
        frames = [frame_from(h, i, [(1.0 + i, 1.0)]) for i in range(4)]
        state = run(frames, h, cfg)
        assert state.checkpoints  # metric choice must not break the loop
