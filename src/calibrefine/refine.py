"""Online iterative refinement: per frame, project LiDAR centers through the
current best matrix, greedily match them to camera detections, block-sample
the matches into an accumulated set, and every N frames recalibrate on that
set, keeping the new matrix only when it lowers the reprojection error.

The best matrix changes only at checkpoints, so every frame between two
checkpoints is projected through the same matrix: :func:`run` folds each
window of ``recalib_interval`` frames, a slice of one ``FrameStream``, in
one array pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from math import hypot, nan
from typing import Iterable

import numpy as np

from .blocks import BlockGrid, block_of, block_winners, half_block_diagonal, retained_rows
from .errors import ConsensusFailure, DegenerateProjection, OutOfOrderFrame, check_field_types
from .geometry import (
    Frame,
    FrameStream,
    Homography,
    PairSet,
    Source,
    projectable,
    reprojection_metrics,
)
from .matching import MatchGate, greedy_match
from .ransac import RansacConfig, ransac_homography

#: Pairs a single block keeps at most, counting the "sufficiently distinct" ones.
BLOCK_CAPACITY = 3

# Relative slack of ingest_frame's open-detection distance test, which every
# call makes, on one frame or a window: np.hypot may differ from math.hypot
# in the last ulp, so a pixel that close to the radius counts as open and is
# left to the admission loop, which decides on math.hypot.
_OPEN_SLACK = 1e-9


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
        check_field_types(self)
        if self.recalib_interval < 1:
            raise ValueError(f"recalib_interval must be >= 1, got {self.recalib_interval}")


@dataclass(frozen=True)
class CheckpointRecord:
    frame_id: int
    err_new: float
    err_best: float
    updated: bool
    skipped: bool = False


@dataclass(frozen=True, eq=False)
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
    # (set, grid, per-block pixel counts, per-block first pixels), the
    # occupancy arrays of _occupancy_arrays, replaced by copies when a frame
    # admits a pair so the arrays of an earlier state never change, and
    # (set, RANSAC config, the checkpoint fit on it or None on no consensus,
    # guard metric, ((matrix, guard value on the set), ...) for the fit and
    # the incumbent the last checkpoint compared it with), whose guard
    # values are read only for the very matrix objects they were computed for.
    _occupancy: tuple | None = field(default=None, repr=False)
    _fit: tuple | None = field(default=None, repr=False)

    @classmethod
    def initial(
        cls, h0: Homography, seed_pairs: PairSet | Iterable[tuple] = ()
    ) -> "CalibrationState":
        """The state before any frame, seeded with ``seed_pairs``; rows are
        converted to a ``PairSet`` by ``PairSet.of``."""
        return cls(h_best=h0, accumulated=PairSet.of(seed_pairs))


def _metric_value(h: Homography, xy: np.ndarray, uv: np.ndarray, metric: GuardMetric) -> float:
    try:
        report = reprojection_metrics(h, xy, uv)
    except DegenerateProjection:
        return float("inf")
    return report.aed if metric is GuardMetric.AED else report.rmse


def _occupancy_arrays(state: CalibrationState, grid: BlockGrid) -> tuple[np.ndarray, np.ndarray]:
    """Occupancy of the accumulated set, by flat block ``iy * blocks_x + ix``:
    the ``(B,)`` count of its camera pixels in each block and the
    ``(B, BLOCK_CAPACITY, 2)`` first of them in set order, NaN past the
    count. A block holding BLOCK_CAPACITY pixels or more admits nothing, so
    its first pixels are all the distance test needs. Taken from the state's
    cache when it was built for this very set and grid."""
    cache = state._occupancy
    if cache is not None and cache[0] is state.accumulated and cache[1] == grid:
        return cache[2], cache[3]
    uv = state.accumulated.uv
    rows, ix, iy = block_of(grid, uv)
    block = iy * grid.blocks_x + ix
    n_blocks = grid.blocks_x * grid.blocks_y
    order = np.argsort(block, kind="stable")
    block = block[order]
    rank = np.arange(len(block)) - np.searchsorted(block, block)
    first = rank < BLOCK_CAPACITY
    stored = np.full((n_blocks, BLOCK_CAPACITY, 2), np.nan)
    stored[block[first], rank[first]] = uv[rows[order[first]]]
    return np.bincount(block, minlength=n_blocks), stored


def ingest_frame(
    state: CalibrationState, frames: Frame | FrameStream | Iterable[Frame], cfg: RefineConfig
) -> CalibrationState:
    """Fold one frame, or a window of frames, into the state: project,
    match, sample, accumulate.

    A window is folded exactly as its frames would be one by one: one
    projection through ``h_best``, one greedy matching inside each frame,
    one block sampling of each frame, then one admission loop over the
    block winners in frame order. A frame, alone or in a window, is matched
    only when one of its detections is open, that is, could still be
    admitted under the set as the call found it; the others could add
    nothing. A call without an open detection returns right after the
    projection, matching and sampling nothing. Never touches ``h_best``.
    LiDAR centers that project degenerately are skipped and tallied.
    Raises ``OutOfOrderFrame`` before anything is folded when the frame ids
    do not strictly increase.
    """
    window = None if isinstance(frames, Frame) else FrameStream.of(frames)
    if window is not None and len(window) == 1:
        frames, window = window[0], None
    ids = [state.last_frame_id, *([frames.frame_id] if window is None else window.frame_ids.tolist())]
    for last_id, frame_id in zip(ids, ids[1:]):
        if frame_id <= last_id:
            raise OutOfOrderFrame(f"frame {frame_id} after frame {last_id}")

    if window is None:
        lidar_xy, camera_uv = frames.lidar_centers, frames.camera_centers
    else:
        lidar_xy, camera_uv = window.lidar_xy, window.camera_uv
    uv, kept = projectable(state.h_best.m, lidar_xy)
    counts, stored = _occupancy_arrays(state, cfg.grid)

    def folded(accumulated: PairSet, counts: np.ndarray, stored: np.ndarray) -> CalibrationState:
        return replace(
            state,
            accumulated=accumulated,
            frames_seen=state.frames_seen + len(ids) - 1,
            last_frame_id=ids[-1],
            degenerate_skipped=state.degenerate_skipped + len(lidar_xy) - len(kept),
            _occupancy=(accumulated, cfg.grid, counts, stored),
        )

    # Occupancy only grows within a call, so a detection its starting
    # occupancy refuses stays refused: a frame without an open detection
    # can admit nothing and is not matched.
    radius = half_block_diagonal(cfg.grid)
    retained, ix, iy = retained_rows(cfg.grid, camera_uv, cfg.skip_parity)
    block = iy * cfg.grid.blocks_x + ix
    d = camera_uv[retained][:, None, :] - stored[block]
    near = (np.hypot(d[..., 0], d[..., 1]) < radius * (1.0 - _OPEN_SLACK)).any(axis=1)
    is_open = (counts[block] < BLOCK_CAPACITY) & ~near
    if not is_open.any():
        return folded(state.accumulated, counts, stored)
    if window is None:
        matched = greedy_match(uv, camera_uv, cfg.gate)
        lidar_rows, camera_rows = matched.lidar, matched.camera
        frame_of = np.zeros(len(camera_rows), dtype=np.intp)
    else:
        lidar_frame, camera_frame = window.lidar_frame[kept], window.camera_frame
        live = np.zeros(len(window), dtype=bool)
        live[camera_frame[retained[is_open]]] = True
        lidar_rows = live[lidar_frame].nonzero()[0]
        camera_rows = live[camera_frame].nonzero()[0]
        matched = greedy_match(
            uv[lidar_rows],
            camera_uv[camera_rows],
            cfg.gate,
            lidar_frame[lidar_rows],
            camera_frame[camera_rows],
        )
        lidar_rows, camera_rows = lidar_rows[matched.lidar], camera_rows[matched.camera]
        frame_of = camera_frame[camera_rows]
    pixels = camera_uv[camera_rows]
    # The block lookup of the matched detections is read off that of every
    # detection, by the position in ``retained`` of each camera row (-1 for
    # one outside it).
    at = np.full(len(camera_uv), -1)
    at[retained] = np.arange(len(retained))
    pos = at[camera_rows]
    lookup = (pos >= 0).nonzero()[0]
    pos = pos[lookup]
    # Winners are picked among every match: a detection that was not open
    # when the call started still takes its block for its frame. As
    # occupancy only grows within a call, the admission loop would refuse
    # it, so only the open winners go to the loop.
    rows, ix, iy = block_winners(
        pixels, frame_of, cfg.grid, cfg.skip_parity, (lookup, ix[pos], iy[pos])
    )
    keep = is_open[at[camera_rows[rows]]]
    rows, ix, iy = rows[keep], ix[keep], iy[keep]

    # Block sampling keeps at most one winner per block and frame, so within
    # a frame admitting one never changes what another is checked against.
    admitted = []
    for i, (u, v), x, y in zip(rows.tolist(), pixels[rows].tolist(), ix.tolist(), iy.tolist()):
        b = y * cfg.grid.blocks_x + x
        n = counts.item(b)
        if n < BLOCK_CAPACITY and all(
            hypot(u - su, v - sv) >= radius for su, sv in stored[b, :n].tolist()
        ):
            if not admitted:
                counts, stored = counts.copy(), stored.copy()
            counts[b] = n + 1
            stored[b, n] = u, v
            admitted.append(i)

    accumulated = state.accumulated
    if admitted:
        # matched rows of checked frames under their checked ids
        frame_ids = np.array(ids[1:], dtype=np.int64)
        accumulated = PairSet.concat([accumulated, PairSet._checked(
            lidar_xy[kept[lidar_rows[admitted]]],
            pixels[admitted],
            frame_ids[frame_of[admitted]],
            Source.GREEDY_MATCHED,
        )])
    return folded(accumulated, counts, stored)


def checkpoint_recalibrate(state: CalibrationState, cfg: RefineConfig) -> CalibrationState:
    """Re-estimate from the accumulated set and adopt the result only when it
    lowers the guard metric on that same set; always appends a record.

    RANSAC is a pure function of the set and ``cfg.ransac``, and a guard
    value one of the matrix, the set and ``cfg.metric``. So a checkpoint on
    the very set and RANSAC config of the last one reuses that fit, and the
    guard values the last one computed on the set for the very matrix objects
    it compared: when the incumbent is the fit or the matrix the fit was last
    compared with, the checkpoint projects nothing.
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
        fit_cache = (state.accumulated, cfg.ransac, fit, cfg.metric, ())
    fit = fit_cache[2]
    if fit is None:
        return skipped()

    scored = fit_cache[4] if fit_cache[3] is cfg.metric else ()

    def guard(h: Homography) -> float:
        for known, value in scored:
            if known is h:
                return value
        return _metric_value(h, xy, uv, cfg.metric)

    err_new = guard(fit.h)
    err_best = guard(state.h_best)
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
        _fit=fit_cache[:3] + (cfg.metric, ((fit.h, err_new), (state.h_best, err_best))),
    )


def run(
    frames: FrameStream | Iterable[Frame],
    h0: Homography,
    cfg: RefineConfig,
    initial_pairs: PairSet | Iterable[tuple] = (),
) -> CalibrationState:
    """Drive the loop over a frame stream and return the final state.

    Folds the stream one window of ``cfg.recalib_interval`` frames at a
    time and recalibrates after each window, the last partial one
    included, so short streams still recalibrate. The stream is read whole,
    into one ``FrameStream``, before the first window.
    """
    state = CalibrationState.initial(h0, initial_pairs)
    frames = FrameStream.of(frames)
    for start in range(0, len(frames), cfg.recalib_interval):
        state = ingest_frame(state, frames[start : start + cfg.recalib_interval], cfg)
        state = checkpoint_recalibrate(state, cfg)
    return state
