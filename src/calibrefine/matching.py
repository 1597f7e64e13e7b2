"""Greedy bipartite matching between projected LiDAR points and camera
detections: repeatedly take the globally cheapest remaining pair under a
distance gate, leaving the rest unmatched.

:func:`greedy_match` matches one frame by its cost grid, or every frame of a
stream at once when given per-frame row counts. A stream is matched over an
edge list: :func:`candidate_edges` lists each frame's edges within a radius
by the cost grid of NaN-padded batches of whole frames, and
:func:`match_edges` matches over such a list alone, so a stream matched
again under slightly moved projections can reuse the edges of an earlier
radius. Both matchers end in one greedy sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative slack of the squared-distance prefilter. It only has to cover the
# few ulps by which ``du*du + dv*dv`` can round above ``hypot(du, dv)**2``;
# the gate itself is always decided on ``hypot``.
_PREFILTER_SLACK = 1e-9

# Largest padded block S * Lmax * Cmax (frames x widest LiDAR row x widest
# camera row) that greedy_match matches in one pass; a frame larger
# than this is a batch of its own. Bounds the memory of the cost grid.
_BATCH_CELLS = 1 << 15

# Edges that the greedy sweep turns into Python ints at a time.
_SWEEP_CHUNK = 4096


@dataclass(frozen=True)
class MatchGate:
    """Maximum pixel distance at which a cross-sensor pair is admissible."""

    max_distance: float = 40.0

    def __post_init__(self):
        if not 0.0 < self.max_distance < math.inf:
            raise ValueError(f"max_distance must be finite and > 0, got {self.max_distance}")


@dataclass(frozen=True, eq=False)
class MatchSet:
    """Greedy matching outcome, a partial injection: ``(K,)`` LiDAR rows,
    camera rows and pair costs, frame by frame and each frame in greedy
    order."""

    lidar: np.ndarray
    camera: np.ndarray
    cost: np.ndarray

    @property
    def matches(self) -> tuple[tuple[int, int, float], ...]:
        """The pairs as ``(lidar row, camera row, cost)`` tuples."""
        return tuple(zip(self.lidar.tolist(), self.camera.tolist(), self.cost.tolist()))


def _grid_edges(proj: np.ndarray, dets: np.ndarray, radius: float):
    """Every edge within ``radius`` inside each frame of ``(L, 2)`` /
    ``(C, 2)`` arrays (one frame) or ``(S, L, 2)`` / ``(S, C, 2)`` blocks
    (S frames), by the full cost grid.

    NaN cells fail the prefilter, so they pad a block without ever matching.
    Returns the edges in C order, i.e. sorted by (frame, i, j): their rows
    of ``proj.reshape(-1, 2)`` and ``dets.reshape(-1, 2)`` and their costs
    ``hypot(du, dv)``, each at most ``radius``.
    """
    n_l, n_c = proj.shape[-2], dets.shape[-2]
    du = proj[..., :, None, 0] - dets[..., None, :, 0]
    dv = proj[..., :, None, 1] - dets[..., None, :, 1]
    idx = np.nonzero(du * du + dv * dv <= radius * radius * (1.0 + _PREFILTER_SLACK))
    cost = np.hypot(du[idx], dv[idx])
    admitted = cost <= radius
    *frame, li, ci = [k[admitted] for k in idx]
    if frame:
        li = frame[0] * n_l + li
        ci = frame[0] * n_c + ci
    return li, ci, cost[admitted]


def _take(lidar: np.ndarray, camera: np.ndarray, n_lidar: int, n_camera: int) -> list[int]:
    """The greedy sweep over edges in greedy order: take each edge whose two
    rows are both still free. Returns the positions of the taken edges, in
    the order taken."""
    lidar_used = [False] * n_lidar
    camera_used = [False] * n_camera
    taken: list[int] = []
    # One position per taken edge, and the edges as Python ints a chunk at a
    # time: over a whole stream, lists of every edge's rows and cost raise
    # the peak memory by megabytes.
    for start in range(0, len(lidar), _SWEEP_CHUNK):
        stop = start + _SWEEP_CHUNK
        rows = zip(lidar[start:stop].tolist(), camera[start:stop].tolist())
        for k, (i, j) in enumerate(rows, start):
            if lidar_used[i] or camera_used[j]:
                continue
            lidar_used[i] = True
            camera_used[j] = True
            taken.append(k)
    return taken


def _greedy(proj: np.ndarray, dets: np.ndarray, gate: float) -> MatchSet:
    """Greedy matching inside one frame by its cost grid (see
    :func:`_grid_edges`); :func:`_take` gives the result in greedy order."""
    li, ci, cost = _grid_edges(proj, dets, gate)
    # The edges come sorted by (i, j) and lexsort is stable, so this orders
    # them by (cost, i, j).
    order = np.lexsort((cost,))
    taken = order[_take(li[order], ci[order], len(proj), len(dets))]
    return MatchSet(lidar=li[taken], camera=ci[taken], cost=cost[taken])


def _cost_order(cost: np.ndarray, lidar: np.ndarray, camera: np.ndarray) -> np.ndarray:
    """Permutation sorting edges by (cost, lidar row, camera row).

    An unstable argsort plus a fix of the runs of equal cost: a stable sort
    of float keys takes several times longer, and exact ties are rare.
    """
    order = np.argsort(cost)
    sorted_cost = cost[order]
    tied = sorted_cost[1:] == sorted_cost[:-1]
    if tied.any():
        in_run = np.zeros(len(cost), dtype=bool)
        in_run[1:] = tied
        in_run[:-1] |= tied
        pos = np.flatnonzero(in_run)
        # Each run of equal cost occupies consecutive positions, so sorting
        # the tied positions by (cost, lidar, camera) reorders within runs.
        run = order[pos]
        order[pos] = run[np.lexsort((camera[run], lidar[run], cost[run]))]
    return order


def match_edges(projected, detections, lidar, camera, frame_of, gate: MatchGate) -> MatchSet:
    """Greedy matching over given candidate edges of a stream.

    ``projected`` and ``detections`` are ``(N, 2)`` and ``(M, 2)`` pixel
    arrays; edge k joins LiDAR row ``lidar[k]`` to camera row ``camera[k]``,
    in any order, and ``frame_of[r]`` is the frame of LiDAR row r. Edges must
    not cross frames, and every edge of a frame that the gate could admit
    must be given. The cost of an edge is ``hypot(du, dv)`` and the gate
    admits it when that is at most ``gate.max_distance``; then the result is
    the one :func:`greedy_match` gives: frame by frame, each frame in greedy
    order, ties broken on (cost, lidar row, camera row).
    """
    proj = np.asarray(projected, dtype=float).reshape(-1, 2)
    dets = np.asarray(detections, dtype=float).reshape(-1, 2)
    lidar = np.asarray(lidar, dtype=np.intp)
    camera = np.asarray(camera, dtype=np.intp)
    with np.errstate(invalid="ignore"):
        cost = np.hypot(proj[lidar, 0] - dets[camera, 0], proj[lidar, 1] - dets[camera, 1])
    admitted = np.flatnonzero(cost <= gate.max_distance)
    cost, lidar, camera = cost[admitted], lidar[admitted], camera[admitted]
    # Frames share no rows, so one sweep over every frame in (cost, lidar,
    # camera) order takes in each frame what that frame alone would; the
    # taken pairs are then grouped frame by frame, keeping the order taken.
    order = _cost_order(cost, lidar, camera)
    taken = order[_take(lidar[order], camera[order], len(proj), len(dets))]
    by_frame = np.argsort(np.asarray(frame_of)[lidar[taken]] * len(taken) + np.arange(len(taken)))
    taken = taken[by_frame]
    return MatchSet(lidar=lidar[taken], camera=camera[taken], cost=cost[taken])


def _batches(lidar_counts: np.ndarray, camera_counts: np.ndarray):
    """Split the frames into consecutive ``(start, stop)`` runs whose padded
    block stays within ``_BATCH_CELLS`` cells."""
    start, width_l, width_c = 0, 1, 1
    for s, (n_l, n_c) in enumerate(zip(lidar_counts.tolist(), camera_counts.tolist())):
        width_l, width_c = max(width_l, n_l), max(width_c, n_c)
        if s > start and (s + 1 - start) * width_l * width_c > _BATCH_CELLS:
            yield start, s
            start, width_l, width_c = s, max(n_l, 1), max(n_c, 1)
    if start < len(lidar_counts):
        yield start, len(lidar_counts)


def _pack(points: np.ndarray, offsets: np.ndarray, counts: np.ndarray):
    """Block of the S consecutive frames of ``points`` that start at
    ``offsets`` and hold ``counts`` rows, plus the row of ``points`` behind
    each block row (-1 for padding). One frame is its own ``(n, 2)`` slice;
    more are a NaN-padded ``(S, width, 2)`` block."""
    first, n = int(offsets[0]), int(counts.sum())
    rows = np.arange(first, first + n)
    if len(counts) == 1:
        return points[first : first + n], rows
    real = np.arange(counts.max()) < counts[:, None]
    block = np.full(real.shape + (2,), np.nan)
    block[real] = points[first : first + n]
    block_rows = np.full(real.size, -1, dtype=np.intp)
    block_rows[real.ravel()] = rows
    return block, block_rows


def frame_counts(lidar_counts, camera_counts, n_lidar: int, n_camera: int):
    """Per-frame row counts as ``(F,)`` integer arrays, checked to partition
    ``n_lidar`` LiDAR and ``n_camera`` camera rows into frames; raises
    ``ValueError`` otherwise."""
    lidar_counts = np.asarray(lidar_counts, dtype=np.intp)
    camera_counts = np.asarray(camera_counts, dtype=np.intp)
    if (
        len(lidar_counts) != len(camera_counts)
        or lidar_counts.sum() != n_lidar
        or camera_counts.sum() != n_camera
        or (lidar_counts < 0).any()
        or (camera_counts < 0).any()
    ):
        raise ValueError("frame counts do not partition the point arrays")
    return lidar_counts, camera_counts


def candidate_edges(projected, detections, lidar_counts, camera_counts, radius: float):
    """Every within-frame edge of a stream whose cost ``hypot(du, dv)`` is at
    most ``radius``, found by the cost grid of NaN-padded batches of whole
    frames.

    The arrays and counts are as in :func:`greedy_match`. Returns the
    edges' ``(E,)`` LiDAR and camera rows, sorted by (LiDAR row, camera
    row).
    """
    proj = np.asarray(projected, dtype=float).reshape(-1, 2)
    dets = np.asarray(detections, dtype=float).reshape(-1, 2)
    lidar_counts, camera_counts = frame_counts(lidar_counts, camera_counts, len(proj), len(dets))
    lidar_offsets = np.cumsum(lidar_counts) - lidar_counts
    camera_offsets = np.cumsum(camera_counts) - camera_counts
    lidar_out = [np.empty(0, dtype=np.intp)]
    camera_out = [np.empty(0, dtype=np.intp)]
    for a, b in _batches(lidar_counts, camera_counts):
        proj_block, lidar_rows = _pack(proj, lidar_offsets[a:b], lidar_counts[a:b])
        det_block, camera_rows = _pack(dets, camera_offsets[a:b], camera_counts[a:b])
        # C order within a block, and block rows map to increasing rows.
        li, ci, _ = _grid_edges(proj_block, det_block, radius)
        lidar_out.append(lidar_rows[li])
        camera_out.append(camera_rows[ci])
    return np.concatenate(lidar_out), np.concatenate(camera_out)


def greedy_match(
    projected, detections, gate: MatchGate, lidar_counts=None, camera_counts=None
) -> MatchSet:
    """Match projected points to detections, cheapest admissible pair first.

    ``projected`` and ``detections`` are ``(N, 2)`` and ``(M, 2)`` pixel
    arrays; the cost of a pair is ``hypot(du, dv)`` and a pair is admissible
    when that cost is at most ``gate.max_distance``. Ties break on
    (cost, lidar index, camera index). Each index is used at most once;
    anything without an admissible partner stays unmatched.

    Without counts the arrays are one frame. With ``lidar_counts`` and
    ``camera_counts`` they are the frames of a stream concatenated in frame
    order, the counts giving each frame's number of rows in them, and every
    frame is matched exactly as it would be alone; no pair crosses frames.
    Rows in the result index ``projected`` and ``detections``.
    """
    proj = np.asarray(projected, dtype=float).reshape(-1, 2)
    dets = np.asarray(detections, dtype=float).reshape(-1, 2)
    if lidar_counts is None and camera_counts is None:
        return _greedy(proj, dets, gate.max_distance)
    lidar_counts, camera_counts = frame_counts(lidar_counts, camera_counts, len(proj), len(dets))
    lidar, camera = candidate_edges(proj, dets, lidar_counts, camera_counts, gate.max_distance)
    frame_of = np.repeat(np.arange(len(lidar_counts)), lidar_counts)
    return match_edges(proj, dets, lidar, camera, frame_of, gate)
