"""Greedy bipartite matching between projected LiDAR points and camera
detections: repeatedly take the globally cheapest remaining pair under a
distance gate, leaving the rest unmatched.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative slack of the squared-distance prefilter. It only has to cover the
# few ulps by which ``du*du + dv*dv`` can round above ``hypot(du, dv)**2``;
# the gate itself is always decided on ``hypot``.
_PREFILTER_SLACK = 1e-9


@dataclass(frozen=True)
class MatchGate:
    """Maximum pixel distance at which a cross-sensor pair is admissible."""

    max_distance: float = 40.0

    def __post_init__(self):
        if not self.max_distance > 0:
            raise ValueError(f"max_distance must be > 0, got {self.max_distance}")


@dataclass(frozen=True)
class MatchSet:
    """Greedy matching outcome: a partial injection plus the leftovers."""

    matches: tuple[tuple[int, int, float], ...]
    unmatched_lidar: tuple[int, ...]
    unmatched_camera: tuple[int, ...]


def greedy_match(projected, detections, gate: MatchGate) -> MatchSet:
    """Match projected points to detections, cheapest admissible pair first.

    ``projected`` and ``detections`` are ``(N, 2)`` and ``(M, 2)`` pixel
    arrays; the cost of a pair is ``hypot(du, dv)`` and a pair is admissible
    when that cost is at most ``gate.max_distance``. Ties break on
    (cost, lidar index, camera index). Each index is used at most once;
    anything without an admissible partner stays unmatched.
    """
    proj = np.asarray(projected, dtype=float).reshape(-1, 2)
    dets = np.asarray(detections, dtype=float).reshape(-1, 2)
    n_l, n_c = len(proj), len(dets)
    if n_l == 0 or n_c == 0:
        return MatchSet((), tuple(range(n_l)), tuple(range(n_c)))

    du = proj[:, 0, None] - dets[None, :, 0]
    dv = proj[:, 1, None] - dets[None, :, 1]
    g = gate.max_distance
    li, ci = np.nonzero(du * du + dv * dv <= g * g * (1.0 + _PREFILTER_SLACK))
    cost = np.hypot(du[li, ci], dv[li, ci])
    admitted = cost <= g
    li, ci, cost = li[admitted], ci[admitted], cost[admitted]
    order = np.lexsort((ci, li, cost))

    lidar_used = [False] * n_l
    camera_used = [False] * n_c
    matches: list[tuple[int, int, float]] = []
    for c, i, j in zip(cost[order].tolist(), li[order].tolist(), ci[order].tolist()):
        if lidar_used[i] or camera_used[j]:
            continue
        lidar_used[i] = True
        camera_used[j] = True
        matches.append((i, j, c))

    return MatchSet(
        matches=tuple(matches),
        unmatched_lidar=tuple(i for i in range(n_l) if not lidar_used[i]),
        unmatched_camera=tuple(j for j in range(n_c) if not camera_used[j]),
    )
