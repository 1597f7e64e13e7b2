"""Correction-matrix refinement: fit a multiplicative correction D so that
H* = H @ D minimizes the mean squared distance between H*-projected LiDAR
points and their nearest camera detections. The nearest-neighbor pairings
are the supervision; they are rebuilt after every solver pass (an "outer
round") because they depend on the current H*. Each solver pass is the
shared geometric refit ``refine_homography`` on H* itself, so the stage is
ICP over the same refiner RANSAC uses.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientPairs
from .geometry import (
    Frame,
    Homography,
    PixelPoint,
    PlanePoint,
    compose,
    pixel_array,
    plane_array,
    projectable,
    projection_residuals,
    refine_homography,
    transform_points,
)
from .matching import MatchGate, greedy_match

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
    h: Homography,
    lidar_xy: np.ndarray,
    camera_uv: np.ndarray,
    lidar_counts,
    camera_counts,
    gate: MatchGate,
) -> Pairs:
    """Pair each projected LiDAR point with its nearest camera detection
    inside the gate (greedy, one-to-one, within its frame); degenerate
    projections are skipped.

    Takes the stream's ``(N, 2)`` ground and ``(M, 2)`` pixel arrays,
    concatenated in frame order, and each frame's number of rows in them.
    Returns the paired ``(K, 2)`` ground and pixel arrays, frame by frame
    and each frame in greedy order.
    """
    lidar_counts = np.asarray(lidar_counts, dtype=np.intp)
    uv, kept = projectable(h.m, lidar_xy)
    frame_of = np.repeat(np.arange(len(lidar_counts)), lidar_counts)
    kept_counts = np.bincount(frame_of[kept], minlength=len(lidar_counts))
    matched = greedy_match(uv, camera_uv, gate, kept_counts, camera_counts)
    return lidar_xy[kept[matched.lidar]], camera_uv[matched.camera]


def reprojection_loss(
    h: Homography, h_delta: np.ndarray, xy: np.ndarray, uv: np.ndarray
) -> float:
    """Mean squared pixel discrepancy of paired ``(N, 2)`` ground and pixel
    points under H @ D."""
    uv_hat, _ = transform_points(h.m @ np.asarray(h_delta, float).reshape(3, 3), xy)
    r = (uv_hat - uv).ravel()
    return float(r @ r) / len(xy)


def reprojection_loss_gradient(
    h: Homography, h_delta: np.ndarray, xy: np.ndarray, uv: np.ndarray
) -> np.ndarray:
    """Analytic gradient of the loss wrt the 9 raw entries of the correction.

    The residuals depend on D only through G = H @ D, whose row-major entries
    are ``kron(H, I3)`` times those of D, so the chain rule gives
    ``J_D = J_G @ kron(H, I3)``.
    """
    g = h.m @ np.asarray(h_delta, float).reshape(3, 3)
    r, jac_g = projection_residuals(g.ravel(), xy, uv)
    return (2.0 / len(xy)) * (np.kron(h.m, np.eye(3)).T @ (jac_g.T @ r))


def _alternate(
    h: Homography, pair_fn, cfg: CorrectionConfig, pairs: Pairs
) -> tuple[Homography, list[float], Pairs]:
    """ICP over the shared refit: refine G = H @ D on the current pairings,
    then rebuild the pairings under G. With H fixed and invertible this
    reaches the same optimum as solving for D."""
    g = h
    loss = reprojection_loss(g, np.eye(3), *pairs)
    trace = [loss]
    for _ in range(cfg.max_outer_rounds):
        candidate = refine_homography(
            *pairs, g, max_iterations=cfg.max_iterations, init_damping=cfg.init_damping
        )
        if np.allclose(candidate.m, g.m, rtol=0.0, atol=1e-14):
            break  # solver has nothing to move; pairing is self-consistent

        new_pairs = pair_fn(candidate)
        if len(new_pairs[0]) < cfg.min_pairs:
            break
        new_loss = reprojection_loss(candidate, np.eye(3), *new_pairs)
        if new_loss > loss:
            break  # re-pairing made things worse; keep the previous round
        g, pairs = candidate, new_pairs
        improvement = loss - new_loss
        trace.append(new_loss)
        loss = new_loss
        if improvement < 1e-8 * max(loss, 1e-300):
            break
    return g, trace, pairs


def fit_correction_stream(
    h: Homography,
    frames: Sequence[Frame],
    cfg: CorrectionConfig,
    lenient: bool = False,
) -> CorrectionResult:
    """Fit the correction against a frame stream, pairing within each frame.

    The nearest-neighbor pairings never cross frame boundaries, which keeps
    them meaningful when detections from many timestamps would otherwise
    crowd the image plane. A round is accepted only if the loss, recomputed
    after re-pairing, does not increase; the loss trace over accepted rounds
    is therefore non-increasing. With fewer than ``cfg.min_pairs`` initial
    pairings the refinement is not applicable: raises ``InsufficientPairs``,
    or returns an identity correction when ``lenient`` is set.
    """
    lidar: list[PlanePoint] = []
    camera: list[PixelPoint] = []
    lidar_counts: list[int] = []
    camera_counts: list[int] = []
    for f in frames:
        lidar.extend(f.lidar_centers)
        camera.extend(f.camera_centers)
        lidar_counts.append(len(f.lidar_centers))
        camera_counts.append(len(f.camera_centers))
    xy, uv = plane_array(lidar), pixel_array(camera)

    def pair_fn(g: Homography) -> Pairs:
        return implicit_pairs(g, xy, uv, lidar_counts, camera_counts, cfg.gate)

    pairs = pair_fn(h)
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
    g, trace, final_pairs = _alternate(h, pair_fn, cfg, pairs)
    h_delta = Homography(np.linalg.solve(h.m, g.m))
    return CorrectionResult(
        h_delta=h_delta,
        h_star=compose(h, h_delta),
        loss_trace=tuple(trace),
        pairs_used=len(final_pairs[0]),
    )
