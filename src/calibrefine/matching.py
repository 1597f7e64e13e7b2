"""Greedy bipartite matching between projected LiDAR points and camera
detections: repeatedly take the globally cheapest remaining pair under a
distance gate, leaving the rest unmatched.

:func:`greedy_match` matches one frame, or every frame of a stream at once
when given each row's frame. Candidate edges come
from one band search, :func:`candidate_edges`, over the detections sorted
by u, or by (frame, u) given each row's frame; only a frame of at most
``_GRID_CELLS`` LiDAR × camera cells is matched by its full cost grid,
which is faster at that size. A stream is matched over an edge list:
:func:`candidate_edges` lists each frame's edges within a radius, and
:func:`match_edges` matches over such a list alone, so a stream matched
again under slightly moved projections can reuse the edges of an earlier
radius. Both matchers end in one greedy sweep, :func:`_take`; over a
stream, :func:`match_edges` first settles most edges by locally dominant
rounds and leaves the sweep what is left.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_field_types
from .geometry import _integers

# Relative slack of the squared-distance prefilter. It only has to cover the
# few ulps by which ``du*du + dv*dv`` can round above ``hypot(du, dv)**2``;
# the gate itself is always decided on ``hypot``.
_PREFILTER_SLACK = 1e-9

# LiDAR rows whose bands the band search gathers at a time. Bounds the
# memory of the gathered edges.
_BAND_CHUNK = 4096

# Cells (LiDAR rows times camera rows) up to which one frame is matched by
# its full cost grid; a larger frame takes the band search. The two took
# the same time between 104 x 104 and 120 x 120 rows of a simulated frame
# (CHANGES.md has the timings); stream frames of 12-20 rows stay far below.
_GRID_CELLS = 12_000

# Edges that the greedy sweep turns into Python ints at a time.
_SWEEP_CHUNK = 4096

# Share of the alive edges below which a round's removals end the locally
# dominant rounds of a stream matching, leaving the rest to the sweep. A
# round costs about a sixth of what the sweep spends on the same edges
# (18 vs 118 ns per edge on 39.4k dense-scene edges), so the next round
# pays only if it removes more than that share; the last round's share
# stands in for it. Stream matchings take one or two rounds.
_ROUND_SHARE = 0.2


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
    # A row that is not finite has no edge, as in the band search: its
    # differences are NaN or infinite (inf - inf is NaN, which is no fault
    # here), and neither passes the gate.
    with np.errstate(invalid="ignore"):
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


def _first_alive(rows: np.ndarray, alive: np.ndarray, n_rows: int) -> np.ndarray:
    """Which of the alive edges, at ascending positions ``alive`` and on
    ``rows`` of ``n_rows``, come first at their row."""
    first = np.full(n_rows, np.iinfo(np.intp).max)
    np.minimum.at(first, rows, alive)
    return first[rows] == alive


def _take_by_rounds(
    lidar: np.ndarray, camera: np.ndarray, n_lidar: int, n_camera: int
) -> np.ndarray:
    """The positions that :func:`_take` takes from the same edges, sorted,
    which is the order taken.

    Edges in greedy order are strictly ordered by position, so the greedy
    matching is the locally dominant one (Preis 1999; Manne & Bisseling
    2007). Each round takes every alive edge that comes first at both its
    rows and drops every alive edge touching a row so taken. Once a round
    removes less than ``_ROUND_SHARE`` of the alive edges, :func:`_take`
    sweeps the edges still alive, none of which touches a taken row.
    """
    alive = np.arange(len(lidar))
    taken = []
    while len(alive):
        li, ci = lidar[alive], camera[alive]
        win = _first_alive(li, alive, n_lidar) & _first_alive(ci, alive, n_camera)
        taken.append(alive[win])
        # A row has at most one winner, so these indices do not repeat.
        lidar_used = np.zeros(n_lidar, dtype=bool)
        camera_used = np.zeros(n_camera, dtype=bool)
        lidar_used[li[win]] = True
        camera_used[ci[win]] = True
        before = len(alive)
        alive = alive[~(lidar_used[li] | camera_used[ci])]
        if before - len(alive) < _ROUND_SHARE * before:
            break
    taken.append(alive[_take(lidar[alive], camera[alive], n_lidar, n_camera)])
    return np.sort(np.concatenate(taken))


def _greedy(proj: np.ndarray, dets: np.ndarray, gate: float) -> MatchSet:
    """Greedy matching inside one frame; :func:`_take` gives the result in
    greedy order. The edges come from the full cost grid (see
    :func:`_grid_edges`) when the frame has at most ``_GRID_CELLS`` cells,
    otherwise from the band search (see :func:`candidate_edges`); both list
    the same edges in the same order."""
    if len(proj) * len(dets) <= _GRID_CELLS:
        li, ci, cost = _grid_edges(proj, dets, gate)
    else:
        li, ci, cost = candidate_edges(proj, dets, gate)
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
    in any order, and ``frame_of[r]`` is the frame index of LiDAR row r.
    Edges must not cross frames, and every edge of a frame that the gate
    could admit must be given. The cost of an edge is ``hypot(du, dv)`` and
    the gate admits it when that is at most ``gate.max_distance``; then the
    result is the one :func:`greedy_match` gives: frame by frame, each frame
    in greedy order, ties broken on (cost, lidar row, camera row).

    The edges are matched in (cost, lidar row, camera row) order by
    locally dominant rounds, which settle most of them, and then by the
    greedy sweep over the rest (see :func:`_take_by_rounds`).
    """
    proj = np.asarray(projected, dtype=float).reshape(-1, 2)
    dets = np.asarray(detections, dtype=float).reshape(-1, 2)
    lidar = np.asarray(lidar, dtype=np.intp)
    camera = np.asarray(camera, dtype=np.intp)
    with np.errstate(invalid="ignore"):
        cost = np.hypot(proj[lidar, 0] - dets[camera, 0], proj[lidar, 1] - dets[camera, 1])
    admitted = np.flatnonzero(cost <= gate.max_distance)
    cost, lidar, camera = cost[admitted], lidar[admitted], camera[admitted]
    # Frames share no rows, so one matching over every frame in (cost,
    # lidar, camera) order takes in each frame what that frame alone would;
    # the taken pairs are then grouped frame by frame, keeping the order
    # taken. The keys frame * K + position of the K taken pairs are unique,
    # so any sort orders them as a stable sort by frame would; numpy's
    # stable sort of integers is a timsort, three times slower here.
    order = _cost_order(cost, lidar, camera)
    taken = order[_take_by_rounds(lidar[order], camera[order], len(proj), len(dets))]
    key = np.asarray(frame_of)[lidar[taken]] * len(taken) + np.arange(len(taken))
    taken = taken[key.argsort()]
    return MatchSet(lidar=lidar[taken], camera=camera[taken], cost=cost[taken])


def candidate_edges(proj, dets, radius: float, lidar_frame=None, camera_frame=None):
    """Every edge within ``radius`` between the ``(L, 2)`` and ``(C, 2)``
    arrays, by a band search over the detections sorted by key.

    Without frame maps the arrays are one frame and a row's key is its u
    clipped to the finite detections' span [lo, hi]. With ``lidar_frame``
    and ``camera_frame``, each row's frame index (in any order; a frame may
    have no rows), the key adds the frame times a stride, and only
    within-frame edges are listed.

    Returns the edges sorted by (i, j) as :func:`_grid_edges` does: their
    rows of ``proj`` and ``dets`` and their costs ``hypot(du, dv)``, each at
    most ``radius``.
    """
    # A row that is not finite has no edge.
    lidar = np.isfinite(proj).all(axis=1).nonzero()[0]
    camera = np.isfinite(dets).all(axis=1).nonzero()[0]
    if not len(lidar) or not len(camera):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    # Clipping is 1-Lipschitz, so a detection whose u lies within ``radius``
    # of a LiDAR row's keys within ``reach`` of that row's key; the 1 px pad
    # covers the keys' rounding. No two keys of a frame lie further apart
    # than the span, so a huge radius reaches no further than the whole
    # frame, and the stride keeps each band inside its frame. Array methods
    # stand in for numpy's wrapper functions, whose overhead was a tenth of
    # the search on a frame of 200 x 200 rows.
    u = dets[camera, 0]
    lo, hi = u.min(), u.max()
    reach = min(radius, hi - lo) + 1.0
    lidar_key = np.clip(proj[lidar, 0], lo, hi) - lo
    camera_key = u - lo
    if lidar_frame is not None:
        stride = hi - lo + 2.0 * reach
        lidar_key += lidar_frame[lidar] * stride
        camera_key += camera_frame[camera] * stride
    order = camera_key.argsort()
    camera, camera_key = camera[order], camera_key[order]
    lidar_out, camera_out, cost_out = [], [], []
    for start in range(0, len(lidar), _BAND_CHUNK):
        key = lidar_key[start : start + _BAND_CHUNK]
        first = camera_key.searchsorted(key - reach, side="left")
        widths = camera_key.searchsorted(key + reach, side="right") - first
        li = lidar[start : start + _BAND_CHUNK].repeat(widths)
        ci = camera[np.arange(widths.sum()) + (first - (widths.cumsum() - widths)).repeat(widths)]
        (k,), cost = _within(proj[li, 0] - dets[ci, 0], proj[li, 1] - dets[ci, 1], radius)
        lidar_out.append(li[k])
        camera_out.append(ci[k])
        cost_out.append(cost)
    lidar, camera, cost = (np.concatenate(out) for out in (lidar_out, camera_out, cost_out))
    # The edges are distinct (LiDAR row, camera row) pairs that come sorted
    # by LiDAR row, so a stable sort on one integer key orders them as
    # lexsort((camera, lidar)) does, about ten times faster on a stream.
    order = np.argsort(lidar * len(dets) + camera, kind="stable")
    return lidar[order], camera[order], cost[order]


def greedy_match(
    projected, detections, gate: MatchGate, lidar_frame=None, camera_frame=None
) -> MatchSet:
    """Match projected points to detections, cheapest admissible pair first.

    ``projected`` and ``detections`` are ``(N, 2)`` and ``(M, 2)`` pixel
    arrays; the cost of a pair is ``hypot(du, dv)`` and a pair is admissible
    when that cost is at most ``gate.max_distance``. Ties break on
    (cost, lidar index, camera index). Each index is used at most once;
    anything without an admissible partner stays unmatched.

    Without frame maps the arrays are one frame, whose edges come from its
    full cost grid up to ``_GRID_CELLS`` cells and from the band search
    above that; both give the same result. With ``lidar_frame`` and
    ``camera_frame``, each row's frame index as :func:`candidate_edges`
    takes them (``ValueError`` unless each holds one integer >= 0 per row),
    every frame is matched exactly as it would be alone, no pair crossing
    frames, and the result comes frame by frame.
    Rows in the result index ``projected`` and ``detections``.
    """
    proj = np.asarray(projected, dtype=float).reshape(-1, 2)
    dets = np.asarray(detections, dtype=float).reshape(-1, 2)
    if (lidar_frame is None) != (camera_frame is None):
        raise ValueError("give both frame maps or neither")
    if lidar_frame is None:
        return _greedy(proj, dets, gate.max_distance)
    lidar_frame, camera_frame = maps = [_integers("frame maps", m) for m in (lidar_frame, camera_frame)]
    if [m.shape for m in maps] != [(len(proj),), (len(dets),)] or any((m < 0).any() for m in maps):
        raise ValueError("frame maps must give each row one frame index >= 0")
    lidar, camera, _ = candidate_edges(proj, dets, gate.max_distance, lidar_frame, camera_frame)
    return match_edges(proj, dets, lidar, camera, lidar_frame, gate)
