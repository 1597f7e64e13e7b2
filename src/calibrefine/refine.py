"""Online iterative refinement: per frame, project LiDAR centers through the
current best matrix, greedily match them to camera detections, block-sample
the matches into an accumulated set, and every N frames recalibrate on that
set, keeping the new matrix only when it lowers the reprojection error.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import hypot, nan
from typing import Iterable, Sequence

from .blocks import BlockGrid, block_of, block_sample, half_block_diagonal
from .errors import ConsensusFailure, DegenerateProjection, OutOfOrderFrame
from .geometry import (
    Correspondence,
    Homography,
    PixelPoint,
    PlanePoint,
    Source,
    pixel_array,
    plane_array,
    projectable,
    reprojection_metrics,
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
class Frame:
    """Time-synchronized object centers from both sensors for one timestamp."""

    frame_id: int
    lidar_centers: tuple[PlanePoint, ...]
    camera_centers: tuple[PixelPoint, ...]


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
    accumulated: tuple[Correspondence, ...] = ()
    frames_seen: int = 0
    checkpoints: tuple[CheckpointRecord, ...] = ()
    last_frame_id: int = -1
    degenerate_skipped: int = 0

    @classmethod
    def initial(
        cls, h0: Homography, seed_pairs: Sequence[Correspondence] = ()
    ) -> "CalibrationState":
        return cls(h_best=h0, accumulated=tuple(seed_pairs))


def _metric_value(h: Homography, pairs: Sequence[Correspondence], metric: GuardMetric) -> float:
    try:
        report = reprojection_metrics(h, pairs)
    except DegenerateProjection:
        return float("inf")
    return report.aed if metric is GuardMetric.AED else report.rmse


def _admits(
    accumulated: Sequence[Correspondence],
    candidate: Correspondence,
    grid: BlockGrid,
) -> bool:
    """Occupancy rule: an empty block always admits; an occupied one only if
    the new camera point is at least half a block diagonal from every stored
    pair in that block, up to BLOCK_CAPACITY pairs."""
    block = block_of(grid, candidate.pixel)
    members = [p for p in accumulated if block_of(grid, p.pixel) == block]
    if not members:
        return True
    if len(members) >= BLOCK_CAPACITY:
        return False
    radius = half_block_diagonal(grid)
    return all(
        hypot(candidate.pixel.u - m.pixel.u, candidate.pixel.v - m.pixel.v) >= radius
        for m in members
    )


def ingest_frame(state: CalibrationState, frame: Frame, cfg: RefineConfig) -> CalibrationState:
    """Fold one frame into the state: project, match, sample, accumulate.

    Never touches ``h_best``. LiDAR centers that project degenerately are
    skipped and tallied.
    """
    if frame.frame_id <= state.last_frame_id:
        raise OutOfOrderFrame(
            f"frame {frame.frame_id} after frame {state.last_frame_id}"
        )

    lidar = frame.lidar_centers
    camera = frame.camera_centers
    uv, kept = projectable(state.h_best.m, plane_array(lidar))
    matches = greedy_match(uv, pixel_array(camera), cfg.gate)
    lidar_ids = kept.tolist()
    matched_pairs = [
        Correspondence(
            lidar=lidar[lidar_ids[i]],
            pixel=camera[j],
            frame_id=frame.frame_id,
            source=Source.GREEDY_MATCHED,
        )
        for i, j, _ in matches.matches
    ]
    survivors = block_sample(matched_pairs, cfg.grid, skip_parity=cfg.skip_parity)

    accumulated = list(state.accumulated)
    for pair in survivors:
        if _admits(accumulated, pair, cfg.grid):
            accumulated.append(pair)

    return replace(
        state,
        accumulated=tuple(accumulated),
        frames_seen=state.frames_seen + 1,
        last_frame_id=frame.frame_id,
        degenerate_skipped=state.degenerate_skipped + len(lidar) - len(kept),
    )


def checkpoint_recalibrate(state: CalibrationState, cfg: RefineConfig) -> CalibrationState:
    """Re-estimate from the accumulated set and adopt the result only when it
    lowers the guard metric on that same set; always appends a record."""
    def skipped() -> CalibrationState:
        record = CheckpointRecord(
            frame_id=state.last_frame_id,
            err_new=nan,
            err_best=nan,
            updated=False,
            skipped=True,
        )
        return replace(state, checkpoints=state.checkpoints + (record,))

    if len(state.accumulated) < 4:
        return skipped()
    try:
        fit = ransac_homography(list(state.accumulated), cfg.ransac)
    except ConsensusFailure:
        return skipped()

    err_new = _metric_value(fit.h, state.accumulated, cfg.metric)
    err_best = _metric_value(state.h_best, state.accumulated, cfg.metric)
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
    )


def run(
    frames: Iterable[Frame],
    h0: Homography,
    cfg: RefineConfig,
    initial_pairs: Sequence[Correspondence] = (),
) -> CalibrationState:
    """Drive the loop over a frame stream and return the final state.

    Recalibrates every ``cfg.recalib_interval`` frames and once more at
    stream end if frames are left over, so short streams still recalibrate.
    """
    state = CalibrationState.initial(h0, initial_pairs)
    for frame in frames:
        state = ingest_frame(state, frame, cfg)
        if state.frames_seen % cfg.recalib_interval == 0:
            state = checkpoint_recalibrate(state, cfg)
    if state.frames_seen > 0 and state.frames_seen % cfg.recalib_interval != 0:
        state = checkpoint_recalibrate(state, cfg)
    return state
