"""Greedy bipartite matching between projected LiDAR points and camera
detections: repeatedly take the globally cheapest remaining pair under a
distance gate, leaving the rest unmatched.

One entry point, :func:`greedy_match`, matches one frame, or every frame of
a stream at once when given per-frame row counts: then in batches, each a
NaN-padded block of whole frames, with no pair crossing frames.
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


def _greedy(proj: np.ndarray, dets: np.ndarray, gate: float):
    """Greedy matching inside each frame of ``(L, 2)`` / ``(C, 2)`` arrays
    (one frame) or ``(S, L, 2)`` / ``(S, C, 2)`` blocks (S frames).

    NaN cells fail the prefilter, so they pad a block without ever matching.
    Returns the lidar rows, camera rows and costs of the taken pairs as
    lists, frame by frame and each frame in greedy order; rows index
    ``proj.reshape(-1, 2)`` and ``dets.reshape(-1, 2)``.
    """
    n_l, n_c = proj.shape[-2], dets.shape[-2]
    du = proj[..., :, None, 0] - dets[..., None, :, 0]
    dv = proj[..., :, None, 1] - dets[..., None, :, 1]
    idx = np.nonzero(du * du + dv * dv <= gate * gate * (1.0 + _PREFILTER_SLACK))
    cost = np.hypot(du[idx], dv[idx])
    admitted = cost <= gate
    *frame, li, ci = [k[admitted] for k in idx]
    cost = cost[admitted]
    # np.nonzero lists edges in C order, i.e. sorted by (frame, i, j), and
    # lexsort is stable, so this orders them by (frame, cost, i, j).
    order = np.lexsort((cost, *frame))
    if frame:
        li = frame[0] * n_l + li
        ci = frame[0] * n_c + ci

    lidar_used = [False] * (proj.size // 2)
    camera_used = [False] * (dets.size // 2)
    # Three flat lists rather than a tuple per pair: over a whole stream the
    # tuples set off garbage-collector passes that cost about as much as the
    # matching itself.
    lidar_taken: list[int] = []
    camera_taken: list[int] = []
    cost_taken: list[float] = []
    for c, i, j in zip(cost[order].tolist(), li[order].tolist(), ci[order].tolist()):
        if lidar_used[i] or camera_used[j]:
            continue
        lidar_used[i] = True
        camera_used[j] = True
        lidar_taken.append(i)
        camera_taken.append(j)
        cost_taken.append(c)
    return lidar_taken, camera_taken, cost_taken


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
        lidar_taken, camera_taken, cost_taken = _greedy(proj, dets, gate.max_distance)
        return MatchSet(
            lidar=np.array(lidar_taken, dtype=np.intp),
            camera=np.array(camera_taken, dtype=np.intp),
            cost=np.array(cost_taken, dtype=float),
        )

    lidar_counts = np.asarray(lidar_counts, dtype=np.intp)
    camera_counts = np.asarray(camera_counts, dtype=np.intp)
    if (
        len(lidar_counts) != len(camera_counts)
        or lidar_counts.sum() != len(proj)
        or camera_counts.sum() != len(dets)
        or (lidar_counts < 0).any()
        or (camera_counts < 0).any()
    ):
        raise ValueError("frame counts do not partition the point arrays")
    lidar_offsets = np.cumsum(lidar_counts) - lidar_counts
    camera_offsets = np.cumsum(camera_counts) - camera_counts

    lidar_out = [np.empty(0, dtype=np.intp)]
    camera_out = [np.empty(0, dtype=np.intp)]
    cost_out = [np.empty(0)]
    for a, b in _batches(lidar_counts, camera_counts):
        proj_block, lidar_rows = _pack(proj, lidar_offsets[a:b], lidar_counts[a:b])
        det_block, camera_rows = _pack(dets, camera_offsets[a:b], camera_counts[a:b])
        lidar_taken, camera_taken, cost_taken = _greedy(proj_block, det_block, gate.max_distance)
        lidar_out.append(lidar_rows[np.array(lidar_taken, dtype=np.intp)])
        camera_out.append(camera_rows[np.array(camera_taken, dtype=np.intp)])
        cost_out.append(np.array(cost_taken, dtype=float))
    return MatchSet(
        lidar=np.concatenate(lidar_out),
        camera=np.concatenate(camera_out),
        cost=np.concatenate(cost_out),
    )
