"""Correction-matrix refinement: fit a multiplicative correction D so that
H* = H @ D minimizes the mean squared distance between H*-projected LiDAR
points and their nearest camera detections. The nearest-neighbor pairings
are the supervision; they are rebuilt after every solver pass (an "outer
round") because they depend on the current H*.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientPairs
from .geometry import (
    Homography,
    PixelPoint,
    PlanePoint,
    compose,
    pixel_array,
    plane_array,
    projectable,
    transform_points,
)
from .lsq import damped_least_squares
from .matching import MatchGate, greedy_match

# Gauge: d11 is frozen at 1 (the correction starts at identity and stays
# well away from d11 = 0), leaving 8 free parameters.
_GAUGE = 0
_FREE = [i for i in range(9) if i != _GAUGE]

#: Paired (K, 2) ground points and (K, 2) pixels, row k pairing with row k.
Pairs = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class CorrectionConfig:
    gate: MatchGate = MatchGate()
    max_outer_rounds: int = 10
    min_pairs: int = 12
    max_iterations: int = 100
    init_damping: float = 1e-3

    def __post_init__(self):
        if self.max_outer_rounds < 1:
            raise ValueError(f"max_outer_rounds must be >= 1, got {self.max_outer_rounds}")
        if self.min_pairs < 4:
            raise ValueError(f"min_pairs must be >= 4, got {self.min_pairs}")


@dataclass(frozen=True)
class CorrectionResult:
    h_delta: Homography
    h_star: Homography
    loss_trace: tuple[float, ...]
    pairs_used: int


def implicit_pairs(
    h: Homography, lidar_xy: np.ndarray, camera_uv: np.ndarray, gate: MatchGate
) -> Pairs:
    """Pair each projected LiDAR point with its nearest camera detection
    inside the gate (greedy, one-to-one); degenerate projections are skipped.

    Takes ``(N, 2)`` ground and ``(M, 2)`` pixel arrays and returns the
    paired ``(K, 2)`` ground and pixel arrays in greedy order.
    """
    uv, kept = projectable(h.m, lidar_xy)
    matches = greedy_match(uv, camera_uv, gate)
    idx = np.array([m[:2] for m in matches.matches], dtype=np.intp).reshape(-1, 2)
    return lidar_xy[kept[idx[:, 0]]], camera_uv[idx[:, 1]]


def _residuals_and_jacobian(
    h_mat: np.ndarray, d_flat: np.ndarray, xy: np.ndarray, uv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of project(H @ D, x) - u and their Jacobian wrt D's 9 entries."""
    d = d_flat.reshape(3, 3)
    g = h_mat @ d
    uv_hat, w = transform_points(g, xy)
    r = (uv_hat - uv).ravel()

    n = xy.shape[0]
    ones = np.ones(n)
    m_cols = (xy[:, 0], xy[:, 1], ones)
    jac = np.zeros((2 * n, 9))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_w = 1.0 / w
        u_hat, v_hat = uv_hat[:, 0], uv_hat[:, 1]
        for k in range(3):
            du_k = (h_mat[0, k] - u_hat * h_mat[2, k]) * inv_w
            dv_k = (h_mat[1, k] - v_hat * h_mat[2, k]) * inv_w
            for col in range(3):
                jac[0::2, 3 * k + col] = du_k * m_cols[col]
                jac[1::2, 3 * k + col] = dv_k * m_cols[col]
    return r, jac


def reprojection_loss(
    h: Homography, h_delta: np.ndarray, xy: np.ndarray, uv: np.ndarray
) -> float:
    """Mean squared pixel discrepancy of paired ``(N, 2)`` ground and pixel
    points under H @ D."""
    r, _ = _residuals_and_jacobian(h.m, np.asarray(h_delta, float).ravel(), xy, uv)
    return float(r @ r) / len(xy)


def reprojection_loss_gradient(
    h: Homography, h_delta: np.ndarray, xy: np.ndarray, uv: np.ndarray
) -> np.ndarray:
    """Analytic gradient of the loss wrt the 9 raw entries of the correction."""
    r, jac = _residuals_and_jacobian(h.m, np.asarray(h_delta, float).ravel(), xy, uv)
    return (2.0 / len(xy)) * (jac.T @ r)


def _alternate(
    h: Homography, pair_fn, cfg: CorrectionConfig, pairs: Pairs
) -> tuple[np.ndarray, list[float], Pairs]:
    """Alternate solving for the correction and rebuilding the pairings."""
    d = np.eye(3).ravel()
    loss = reprojection_loss(h, d, *pairs)
    trace = [loss]
    for _ in range(cfg.max_outer_rounds):
        xy, uv = pairs
        full = d.copy()

        def fun(free_params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            full[_FREE] = free_params
            r, jac = _residuals_and_jacobian(h.m, full, xy, uv)
            return r, jac[:, _FREE]

        solved = damped_least_squares(
            fun,
            d[_FREE],
            max_iterations=cfg.max_iterations,
            init_damping=cfg.init_damping,
        )
        if np.allclose(solved.params, d[_FREE], rtol=0.0, atol=1e-14):
            break  # solver has nothing to move; pairing is self-consistent
        candidate = d.copy()
        candidate[_FREE] = solved.params

        new_pairs = pair_fn(candidate.reshape(3, 3))
        if len(new_pairs[0]) < cfg.min_pairs:
            break
        new_loss = reprojection_loss(h, candidate, *new_pairs)
        if new_loss > loss:
            break  # re-pairing made things worse; keep the previous round
        d, pairs = candidate, new_pairs
        improvement = loss - new_loss
        trace.append(new_loss)
        loss = new_loss
        if improvement < 1e-8 * max(loss, 1e-300):
            break
    return d, trace, pairs


def _fit_pools(
    h: Homography, pools: list[Pairs], cfg: CorrectionConfig, lenient: bool
) -> CorrectionResult:
    """Fit the correction with pairings rebuilt inside each ``(xy, uv)``
    pool and concatenated in pool order; no pair crosses a pool."""

    def pair_fn(d: np.ndarray) -> Pairs:
        h_star = Homography(h.m @ d)
        found = [implicit_pairs(h_star, xy, uv, cfg.gate) for xy, uv in pools]
        if not found:
            return np.empty((0, 2)), np.empty((0, 2))
        return np.concatenate([f[0] for f in found]), np.concatenate([f[1] for f in found])

    pairs = pair_fn(np.eye(3))
    n_pairs = len(pairs[0])
    if n_pairs < cfg.min_pairs:
        if lenient:
            # refinement not applicable: identity correction, input unchanged
            return CorrectionResult(
                h_delta=Homography.identity(),
                h_star=h,
                loss_trace=(),
                pairs_used=n_pairs,
            )
        raise InsufficientPairs(
            f"only {n_pairs} implicit pairs; need >= {cfg.min_pairs}"
        )
    d, trace, final_pairs = _alternate(h, pair_fn, cfg, pairs)
    h_delta = Homography(d.reshape(3, 3))
    return CorrectionResult(
        h_delta=h_delta,
        h_star=compose(h, h_delta),
        loss_trace=tuple(trace),
        pairs_used=len(final_pairs[0]),
    )


def fit_correction(
    h: Homography,
    lidar: Sequence[PlanePoint],
    camera: Sequence[PixelPoint],
    cfg: CorrectionConfig,
    lenient: bool = False,
) -> CorrectionResult:
    """Fit the correction against one pool of LiDAR and camera points.

    A round is accepted only if the loss, recomputed after re-pairing, does
    not increase; the loss trace over accepted rounds is therefore
    non-increasing. With fewer than ``cfg.min_pairs`` initial pairings the
    refinement is not applicable: raises ``InsufficientPairs``, or returns an
    identity correction when ``lenient`` is set.
    """
    return _fit_pools(h, [(plane_array(lidar), pixel_array(camera))], cfg, lenient)


def fit_correction_stream(
    h: Homography,
    frames: Sequence,
    cfg: CorrectionConfig,
    lenient: bool = False,
) -> CorrectionResult:
    """Fit the correction against a frame stream, pairing within each frame.

    Same alternation and acceptance rule as :func:`fit_correction`, but the
    nearest-neighbor pairings never cross frame boundaries, which keeps them
    meaningful when detections from many timestamps would otherwise crowd
    the image plane.
    """
    pools = [(plane_array(f.lidar_centers), pixel_array(f.camera_centers)) for f in frames]
    return _fit_pools(h, pools, cfg, lenient)
