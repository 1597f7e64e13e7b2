"""Shared helpers: seeded generators and the independent brute-force oracles
the property tests check against."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
from hypothesis import settings

from calibrefine.blocks import block_of
from calibrefine.geometry import (
    Correspondence,
    Homography,
    PixelPoint,
    PlanePoint,
    project,
)

# Every property test runs under this profile and sets only ``max_examples``:
# no deadline (timings vary from run to run), no example database, and
# derandomized so that every run checks the same examples.
settings.register_profile("calibrefine", deadline=None, database=None, derandomize=True)
settings.load_profile("calibrefine")


def well_conditioned_homography(rng: np.random.Generator, cond_limit: float = 1e4) -> Homography:
    """Random dense homography with condition number below the limit."""
    while True:
        m = rng.normal(0.0, 1.0, (3, 3))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        if np.linalg.cond(m) < cond_limit:
            return Homography(m)


def exact_pairs(
    h: Homography,
    rng: np.random.Generator,
    n: int,
    span: float = 5.0,
) -> list[Correspondence]:
    """Exact correspondences from ``h`` at ground points clear of the horizon.

    The horizon clearance is relative to the largest |w| attainable in the
    sampling box, since a canonical matrix can have an arbitrarily small
    third row.
    """
    w_floor = 0.05 * (span * abs(h.m[2, 0]) + span * abs(h.m[2, 1]) + abs(h.m[2, 2]))
    pairs = []
    for _ in range(100000):
        if len(pairs) == n:
            break
        x, y = rng.uniform(-span, span, size=2)
        w = h.m[2, 0] * x + h.m[2, 1] * y + h.m[2, 2]
        if abs(w) < w_floor:
            continue
        p = PlanePoint(float(x), float(y))
        pairs.append(Correspondence(lidar=p, pixel=project(h, p)))
    assert len(pairs) == n, "could not sample enough points clear of the horizon"
    return pairs


def translation_homography(dx: float, dy: float) -> Homography:
    return Homography([[1.0, 0.0, dx], [0.0, 1.0, dy], [0.0, 0.0, 1.0]])


def naive_metrics(h: Homography, pairs) -> tuple[list[float], float, float]:
    """Straight-loop reference for the reprojection metrics."""
    residuals = []
    for c in pairs:
        pp = project(h, c.lidar)
        residuals.append(math.hypot(c.pixel.u - pp.u, c.pixel.v - pp.v))
    aed = sum(residuals) / len(residuals)
    rmse = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    return residuals, aed, rmse


def point_array(points) -> np.ndarray:
    """(N, 2) float array of PlanePoint (x, y) or PixelPoint (u, v) values."""
    return np.array([dataclasses.astuple(p) for p in points], dtype=float).reshape(-1, 2)


def naive_greedy(costs: np.ndarray, gate: float) -> list[tuple[int, int, float]]:
    """Reference greedy matcher: rescan the whole cost matrix every step."""
    n_l, n_c = costs.shape
    free_l = set(range(n_l))
    free_c = set(range(n_c))
    out = []
    while True:
        best = None
        for i in sorted(free_l):
            for j in sorted(free_c):
                c = float(costs[i, j])
                if c > gate:
                    continue
                key = (c, i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            return out
        c, i, j = best
        free_l.remove(i)
        free_c.remove(j)
        out.append((i, j, c))


def naive_occupancy_admit(accumulated, survivors, grid, capacity: int) -> list:
    """Reference occupancy rule: each survivor, in order, rescans the whole
    accumulated set (including survivors admitted before it) for the pairs in
    its block; an empty block admits, a full one refuses, otherwise the new
    camera point must be half a block diagonal from every stored one."""
    out = list(accumulated)
    radius = 0.5 * math.hypot(grid.image_width / grid.blocks_x, grid.image_height / grid.blocks_y)
    for cand in survivors:
        block = block_of(grid, cand.pixel)
        members = [p for p in out if block_of(grid, p.pixel) == block]
        if not members:
            out.append(cand)
        elif len(members) < capacity and all(
            math.hypot(cand.pixel.u - m.pixel.u, cand.pixel.v - m.pixel.v) >= radius
            for m in members
        ):
            out.append(cand)
    return out


def backprojected_points(
    h: Homography,
    rng: np.random.Generator,
    n: int,
    width: float = 1920.0,
    height: float = 1080.0,
) -> list[PlanePoint]:
    """Ground points whose projections under ``h`` are uniform in the image."""
    hinv = np.linalg.inv(h.m)
    center = hinv @ np.array([width / 2.0, height / 2.0, 1.0])
    points: list[PlanePoint] = []
    while len(points) < n:
        u = rng.uniform(0.0, width)
        v = rng.uniform(0.0, height)
        q = hinv @ np.array([u, v, 1.0])
        if q[2] * center[2] <= 0.0 or abs(q[2]) < 0.2 * abs(center[2]):
            continue
        points.append(PlanePoint(float(q[0] / q[2]), float(q[1] / q[2])))
    return points


def random_pair_cloud(
    rng: np.random.Generator, n: int, width: float = 1920.0, height: float = 1080.0
) -> list[Correspondence]:
    """Pairs with camera points scattered over (and slightly beyond) an image."""
    pairs = []
    for _ in range(n):
        u = rng.uniform(-0.1 * width, 1.1 * width)
        v = rng.uniform(-0.1 * height, 1.1 * height)
        x, y = rng.uniform(-50.0, 50.0, size=2)
        pairs.append(
            Correspondence(lidar=PlanePoint(float(x), float(y)), pixel=PixelPoint(float(u), float(v)))
        )
    return pairs
