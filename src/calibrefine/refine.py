"""Online iterative refinement: per frame, project LiDAR centers through the
current best matrix, greedily match them to camera detections, block-sample
the matches into an accumulated set, and every N frames recalibrate on that
set, keeping the new matrix only when it lowers the reprojection error.

The best matrix changes only at checkpoints, so every frame between two
checkpoints is projected through the same matrix: :func:`run` folds each
window of ``recalib_interval`` frames in one array pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice
from math import hypot, nan
from typing import Iterable, Sequence

import numpy as np

from .blocks import BlockGrid, block_of, block_winners, half_block_diagonal
from .errors import ConsensusFailure, DegenerateProjection, OutOfOrderFrame
from .geometry import (
    Correspondence,
    Frame,
    Homography,
    PairSet,
    Source,
    projectable,
    reprojection_metrics,
    stream_arrays,
)
from .matching import MatchGate, greedy_match
from .ransac import RansacConfig, ransac_homography

#: Pairs a single block keeps at most, counting the "sufficiently distinct" ones.
BLOCK_CAPACITY = 3


class GuardMetric(Enum):
    AED = "aed"
    RMSE = "rmse"


@dataclass(frozen=True)
class RefineConfig:
    recalib_interval: int = 100
    gate: MatchGate = MatchGate()
    grid: BlockGrid = BlockGrid(1920, 1080)
    metric: GuardMetric = GuardMetric.AED
    ransac: RansacConfig = RansacConfig()
    skip_parity: bool = True

    def __post_init__(self):
        if self.recalib_interval < 1:
            raise ValueError(f"recalib_interval must be >= 1, got {self.recalib_interval}")


@dataclass(frozen=True)
class CheckpointRecord:
    frame_id: int
    err_new: float
    err_best: float
    updated: bool
    skipped: bool = False


@dataclass(frozen=True)
class CalibrationState:
    h_best: Homography
    accumulated: PairSet = PairSet.of(())
    frames_seen: int = 0
    checkpoints: tuple[CheckpointRecord, ...] = ()
    last_frame_id: int = -1
    degenerate_skipped: int = 0
    # Caches derived from ``accumulated``, each holding the very set it was
    # derived from and used only while ``accumulated`` is that object, so a
    # state built by hand or by ``replace`` can never read a stale one:
    # (set, grid, camera pixels of the set by block) and
    # (set, RANSAC config, the checkpoint fit on it or None on no consensus).
    _occupancy: tuple | None = field(default=None, compare=False, repr=False)
    _fit: tuple | None = field(default=None, compare=False, repr=False)

    @classmethod
    def initial(
        cls, h0: Homography, seed_pairs: PairSet | Sequence[Correspondence] = ()
    ) -> "CalibrationState":
        """The state before any frame, seeded with ``seed_pairs``; a
        correspondence sequence is converted to a ``PairSet``."""
        return cls(h_best=h0, accumulated=PairSet.of(seed_pairs))


def _metric_value(h: Homography, xy: np.ndarray, uv: np.ndarray, metric: GuardMetric) -> float:
    try:
        report = reprojection_metrics(h, xy, uv)
    except DegenerateProjection:
        return float("inf")
    return report.aed if metric is GuardMetric.AED else report.rmse


def _admits(members: Sequence[Sequence[float]], u: float, v: float, radius: float) -> bool:
    """Occupancy rule for one block, given the ``(u, v)`` pixels it already
    stores: an empty block always admits; an occupied one only if the new
    pixel ``(u, v)`` is at least ``radius`` from every stored one, up to
    BLOCK_CAPACITY pixels."""
    if len(members) >= BLOCK_CAPACITY:
        return False
    return all(hypot(u - mu, v - mv) >= radius for mu, mv in members)


def _occupancy_map(state: CalibrationState, grid: BlockGrid) -> dict:
    """``(u, v)`` pixels of the accumulated set by block, from the state's
    cache when it was built for this very set and grid."""
    cache = state._occupancy
    if cache is not None and cache[0] is state.accumulated and cache[1] == grid:
        return cache[2]
    uv = state.accumulated.uv
    rows, ix, iy = block_of(grid, uv)
    occupancy: dict[tuple[int, int], tuple] = {}
    for pixel, block in zip(uv[rows].tolist(), zip(ix.tolist(), iy.tolist())):
        occupancy[block] = occupancy.get(block, ()) + (pixel,)
    return occupancy


def ingest_frame(
    state: CalibrationState, frames: Frame | Sequence[Frame], cfg: RefineConfig
) -> CalibrationState:
    """Fold one frame, or a window of frames, into the state: project,
    match, sample, accumulate.

    A window is folded exactly as its frames would be one by one: one
    projection through ``h_best``, one greedy matching inside each frame,
    one block sampling of each frame, then admission to the accumulated set
    in frame order. Never touches ``h_best``. LiDAR centers that project
    degenerately are skipped and tallied. Raises ``OutOfOrderFrame`` before
    anything is folded when the frame ids do not strictly increase.
    """
    window = (frames,) if isinstance(frames, Frame) else tuple(frames)
    last_id = state.last_frame_id
    for frame in window:
        if frame.frame_id <= last_id:
            raise OutOfOrderFrame(f"frame {frame.frame_id} after frame {last_id}")
        last_id = frame.frame_id

    if len(window) == 1:
        lidar_xy, camera_uv = window[0].lidar_centers, window[0].camera_centers
        uv, kept = projectable(state.h_best.m, lidar_xy)
        matched = greedy_match(uv, camera_uv, cfg.gate)
        frame_of = np.zeros(len(matched.camera), dtype=np.intp)
    else:
        lidar_xy, camera_uv, lidar_counts, camera_counts = stream_arrays(window)
        uv, kept = projectable(state.h_best.m, lidar_xy)
        frame_idx = np.arange(len(window))
        kept_counts = np.bincount(np.repeat(frame_idx, lidar_counts)[kept], minlength=len(window))
        matched = greedy_match(uv, camera_uv, cfg.gate, kept_counts, camera_counts)
        frame_of = np.repeat(frame_idx, camera_counts)[matched.camera]
    pixels = camera_uv[matched.camera]
    rows, ix, iy = block_winners(pixels, frame_of, cfg.grid, cfg.skip_parity)

    # Block sampling keeps at most one winner per block and frame, so within
    # a frame admitting one never changes what another is checked against.
    occupancy = _occupancy_map(state, cfg.grid)
    radius = half_block_diagonal(cfg.grid)
    admitted = []
    for i, pixel, block in zip(rows.tolist(), pixels[rows].tolist(), zip(ix.tolist(), iy.tolist())):
        members = occupancy.get(block, ())
        if _admits(members, *pixel, radius):
            if not admitted:
                occupancy = dict(occupancy)
            occupancy[block] = members + (pixel,)
            admitted.append(i)

    accumulated = state.accumulated
    if admitted:
        frame_ids = np.array([frame.frame_id for frame in window])
        accumulated = PairSet.concat([accumulated, PairSet(
            lidar_xy[kept[matched.lidar[admitted]]],
            pixels[admitted],
            frame_ids[frame_of[admitted]],
            Source.GREEDY_MATCHED,
        )])
    return replace(
        state,
        accumulated=accumulated,
        frames_seen=state.frames_seen + len(window),
        last_frame_id=last_id,
        degenerate_skipped=state.degenerate_skipped + len(lidar_xy) - len(kept),
        _occupancy=(accumulated, cfg.grid, occupancy),
    )


def checkpoint_recalibrate(state: CalibrationState, cfg: RefineConfig) -> CalibrationState:
    """Re-estimate from the accumulated set and adopt the result only when it
    lowers the guard metric on that same set; always appends a record.

    RANSAC is a pure function of the set and ``cfg.ransac``, so a checkpoint
    on the very set and config of the last fit reuses that fit.
    """
    fit_cache = state._fit

    def skipped() -> CalibrationState:
        record = CheckpointRecord(
            frame_id=state.last_frame_id,
            err_new=nan,
            err_best=nan,
            updated=False,
            skipped=True,
        )
        return replace(state, checkpoints=state.checkpoints + (record,), _fit=fit_cache)

    if len(state.accumulated) < 4:
        return skipped()
    xy, uv = state.accumulated.xy, state.accumulated.uv
    if fit_cache is None or fit_cache[0] is not state.accumulated or fit_cache[1] != cfg.ransac:
        try:
            fit = ransac_homography(xy, uv, cfg.ransac)
        except ConsensusFailure:
            fit = None
        fit_cache = (state.accumulated, cfg.ransac, fit)
    fit = fit_cache[2]
    if fit is None:
        return skipped()

    err_new = _metric_value(fit.h, xy, uv, cfg.metric)
    err_best = _metric_value(state.h_best, xy, uv, cfg.metric)
    updated = err_new < err_best
    record = CheckpointRecord(
        frame_id=state.last_frame_id,
        err_new=err_new,
        err_best=err_best,
        updated=updated,
    )
    return replace(
        state,
        h_best=fit.h if updated else state.h_best,
        checkpoints=state.checkpoints + (record,),
        _fit=fit_cache,
    )


def run(
    frames: Iterable[Frame],
    h0: Homography,
    cfg: RefineConfig,
    initial_pairs: PairSet | Sequence[Correspondence] = (),
) -> CalibrationState:
    """Drive the loop over a frame stream and return the final state.

    Folds the stream one window of ``cfg.recalib_interval`` frames at a
    time and recalibrates after each window, the last partial one
    included, so short streams still recalibrate.
    """
    state = CalibrationState.initial(h0, initial_pairs)
    frames = iter(frames)
    while window := tuple(islice(frames, cfg.recalib_interval)):
        state = ingest_frame(state, window, cfg)
        state = checkpoint_recalibrate(state, cfg)
    return state
