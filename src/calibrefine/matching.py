"""Greedy bipartite matching between projected LiDAR points and camera
detections: repeatedly take the globally cheapest remaining pair under a
distance gate, leaving the rest unmatched.

:func:`greedy_match` matches one frame by its cost grid, or every frame of a
stream at once when given per-frame row counts. A stream is matched over an
edge list: :func:`candidate_edges` lists each frame's edges within a radius
by a band search over the detections sorted by (frame, u), and
:func:`match_edges` matches over such a list alone, so a stream matched
again under slightly moved projections can reuse the edges of an earlier
radius. Both matchers end in one greedy sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_field_types

# Relative slack of the squared-distance prefilter. It only has to cover the
# few ulps by which ``du*du + dv*dv`` can round above ``hypot(du, dv)**2``;
# the gate itself is always decided on ``hypot``.
_PREFILTER_SLACK = 1e-9

# LiDAR rows whose bands candidate_edges gathers at a time. Bounds the
# memory of the gathered edges.
_BAND_CHUNK = 4096

# Edges that the greedy sweep turns into Python ints at a time.
_SWEEP_CHUNK = 4096


@dataclass(frozen=True)
class MatchGate:
    """Maximum pixel distance at which a cross-sensor pair is admissible."""

    max_distance: float = 40.0

    def __post_init__(self):
        check_field_types(self)
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


def _within(du: np.ndarray, dv: np.ndarray, radius: float):
    """The positions, as :func:`numpy.nonzero` gives them, of the
    differences whose cost ``hypot(du, dv)`` is at most ``radius``, and
    those costs. A squared-distance prefilter spares most ``hypot`` calls;
    ``hypot`` alone decides."""
    idx = np.nonzero(du * du + dv * dv <= radius * radius * (1.0 + _PREFILTER_SLACK))
    cost = np.hypot(du[idx], dv[idx])
    admitted = cost <= radius
    return tuple(k[admitted] for k in idx), cost[admitted]


def _grid_edges(proj: np.ndarray, dets: np.ndarray, radius: float):
    """Every edge within ``radius`` between the ``(L, 2)`` and ``(C, 2)``
    arrays of one frame, by the full cost grid.

    Returns the edges sorted by (i, j): their rows of ``proj`` and ``dets``
    and their costs ``hypot(du, dv)``, each at most ``radius``.
    """
    du = proj[:, None, 0] - dets[None, :, 0]
    dv = proj[:, None, 1] - dets[None, :, 1]
    (li, ci), cost = _within(du, dv, radius)
    return li, ci, cost


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


def frame_counts(lidar_counts, camera_counts, n_lidar: int, n_camera: int):
    """Per-frame row counts as ``(F,)`` integer arrays, checked to partition
    ``n_lidar`` LiDAR and ``n_camera`` camera rows into frames; raises
    ``ValueError`` otherwise, or when a count is not an integer."""
    given = np.asarray(lidar_counts), np.asarray(camera_counts)
    with np.errstate(invalid="ignore"):
        lidar_counts, camera_counts = (counts.astype(np.intp) for counts in given)
    if not (np.array_equal(lidar_counts, given[0]) and np.array_equal(camera_counts, given[1])):
        raise ValueError("frame counts must be integers")
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
    most ``radius``, found by a band search over the detections sorted by
    (frame, u).

    The arrays and counts are as in :func:`greedy_match`. Returns the
    edges' ``(E,)`` LiDAR and camera rows, sorted by (LiDAR row, camera
    row).
    """
    proj = np.asarray(projected, dtype=float).reshape(-1, 2)
    dets = np.asarray(detections, dtype=float).reshape(-1, 2)
    lidar_counts, camera_counts = frame_counts(lidar_counts, camera_counts, len(proj), len(dets))
    # A row that is not finite has no edge.
    lidar = np.flatnonzero(np.isfinite(proj).all(axis=1))
    camera = np.flatnonzero(np.isfinite(dets).all(axis=1))
    if not len(lidar) or not len(camera):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    # A row's key is its frame times a stride plus its u clipped to the
    # detections' span [lo, hi]. Clipping is 1-Lipschitz, so a detection
    # whose u lies within ``radius`` of a LiDAR row's keys within ``reach``
    # of that row's key; the 1 px pad covers the keys' rounding. No two keys
    # of a frame lie further apart than the span, so a huge radius reaches
    # no further than the whole frame, and the stride keeps each band
    # inside its frame.
    u = dets[camera, 0]
    lo, hi = u.min(), u.max()
    reach = min(radius, hi - lo) + 1.0
    stride = hi - lo + 2.0 * reach
    frames = np.arange(len(lidar_counts))
    camera_key = np.repeat(frames, camera_counts)[camera] * stride + (u - lo)
    order = np.argsort(camera_key)
    camera, camera_key = camera[order], camera_key[order]
    lidar_key = np.repeat(frames, lidar_counts)[lidar] * stride + (np.clip(proj[lidar, 0], lo, hi) - lo)
    lidar_out, camera_out = [], []
    for start in range(0, len(lidar), _BAND_CHUNK):
        key = lidar_key[start : start + _BAND_CHUNK]
        first = np.searchsorted(camera_key, key - reach, side="left")
        widths = np.searchsorted(camera_key, key + reach, side="right") - first
        li = np.repeat(lidar[start : start + _BAND_CHUNK], widths)
        ci = camera[np.arange(widths.sum()) + np.repeat(first - (np.cumsum(widths) - widths), widths)]
        (k,), _ = _within(proj[li, 0] - dets[ci, 0], proj[li, 1] - dets[ci, 1], radius)
        lidar_out.append(li[k])
        camera_out.append(ci[k])
    lidar, camera = np.concatenate(lidar_out), np.concatenate(camera_out)
    order = np.lexsort((camera, lidar))
    return lidar[order], camera[order]


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
    if (lidar_counts is None) != (camera_counts is None):
        raise ValueError("give both frame counts or neither")
    if lidar_counts is None:
        return _greedy(proj, dets, gate.max_distance)
    lidar_counts, camera_counts = frame_counts(lidar_counts, camera_counts, len(proj), len(dets))
    lidar, camera = candidate_edges(proj, dets, lidar_counts, camera_counts, gate.max_distance)
    frame_of = np.repeat(np.arange(len(lidar_counts)), lidar_counts)
    return match_edges(proj, dets, lidar, camera, frame_of, gate)
