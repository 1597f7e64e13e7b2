"""Correction-matrix refinement: fit a multiplicative correction D so that
H* = H @ D minimizes the mean squared distance between H*-projected LiDAR
points and their nearest camera detections. The nearest-neighbor pairings
are the supervision; they are rebuilt after every solver pass (an "outer
round") because they depend on the current H*. Each solver pass is the
shared geometric refit ``refine_homography`` on H* itself, so the stage is
ICP over the same refiner RANSAC uses. Between rounds the projections move
by about a pixel, so a fit carries the candidate edges of its first pairing
through its later ones (:class:`CarriedEdges`) instead of searching every
frame again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InsufficientPairs
from .geometry import (
    Frame,
    Homography,
    compose,
    projection_mask,
    projection_residuals,
    refine_homography,
    stream_arrays,
    transform_points,
)
from .matching import MatchGate, candidate_edges, frame_counts, match_edges

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
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 < self.init_damping < math.inf:
            raise ValueError(f"init_damping must be finite and > 0, got {self.init_damping}")


@dataclass(frozen=True)
class CorrectionResult:
    h_delta: Homography
    h_star: Homography
    loss_trace: tuple[float, ...]
    pairs_used: int


# The first pairing of a fit collects every edge within the gate plus this
# fraction of it. A smaller margin sends more rows of a later pairing to the
# whole of their frame: at 0.5 px of a 40 px gate, dense scenes got slower.
_CARRY_MARGIN = 0.1

# Relative slack of the stability test. It only has to cover the few ulps
# by which the three computed distances of the triangle inequality can
# round; the gate itself is always decided on ``hypot``.
_STABLE_SLACK = 1e-9


class CarriedEdges:
    """Candidate edges that one fit carries from pairing to pairing.

    Empty when made. The first pairing it is passed to *anchors* it: it keeps
    that pairing's projection of every LiDAR row, which rows were
    projectable, and every within-frame edge within the gate plus a margin,
    indexed by stream rows. A later pairing under another matrix scores a
    *stable* row, one projectable under both whose pixel moved at most the
    margin (less a slack), on its carried edges only: an edge the gate admits
    now lies within the gate plus that move of the anchor pixel, so it is
    among them. Any other projectable row is scored against every detection
    of its frame. When those rows would add more edges than are carried, the
    pairing anchors again instead. An anchor serves only the stream arrays,
    frame counts and gate it was built on; any other stream anchors anew.
    """

    def __init__(self) -> None:
        self._stream: tuple = ()
        self.uv = self.ok = self.lidar = self.camera = np.empty(0)

    def _anchored_on(self, stream: tuple) -> bool:
        if not self._stream:
            return False
        (xy, uv, lidar_counts, camera_counts, gate), new = self._stream, stream
        return (
            xy is new[0]
            and uv is new[1]
            and np.array_equal(lidar_counts, new[2])
            and np.array_equal(camera_counts, new[3])
            and gate == new[4]
        )

    def edges(self, uv, ok, frame_of, stream: tuple):
        """The candidate edges ``(lidar rows, camera rows)`` for a pairing
        that projects the LiDAR rows to ``uv``, projectable where ``ok``;
        ``frame_of`` gives each row's frame and ``stream`` is the pairing's
        ``(lidar_xy, camera_uv, lidar_counts, camera_counts, gate)``."""
        _, camera_uv, _, camera_counts, gate = stream
        margin = _CARRY_MARGIN * gate.max_distance
        if self._anchored_on(stream):
            with np.errstate(invalid="ignore", over="ignore"):
                moved = np.hypot(uv[:, 0] - self.uv[:, 0], uv[:, 1] - self.uv[:, 1])
            stable = ok & self.ok & (moved <= margin * (1.0 - _STABLE_SLACK))
            unstable = np.flatnonzero(ok & ~stable)
            widths = camera_counts[frame_of[unstable]]
            n_wide = int(widths.sum())
            if n_wide <= len(self.lidar):
                carried = stable[self.lidar]
                # Each such row against camera rows first .. first + width - 1 of its frame.
                first = (np.cumsum(camera_counts) - camera_counts)[frame_of[unstable]]
                start = np.cumsum(widths) - widths
                wide_camera = np.arange(n_wide) + np.repeat(first - start, widths)
                return (
                    np.concatenate([self.lidar[carried], np.repeat(unstable, widths)]),
                    np.concatenate([self.camera[carried], wide_camera]),
                )
        kept = np.flatnonzero(ok)
        kept_counts = np.bincount(frame_of[kept], minlength=len(camera_counts))
        lidar, camera = candidate_edges(
            uv[kept], camera_uv, kept_counts, camera_counts, gate.max_distance + margin
        )
        self._stream = stream
        self.uv, self.ok, self.lidar, self.camera = uv, ok, kept[lidar], camera
        return self.lidar, self.camera


def implicit_pairs(
    h: Homography,
    lidar_xy: np.ndarray,
    camera_uv: np.ndarray,
    lidar_counts,
    camera_counts,
    gate: MatchGate,
    carried: CarriedEdges | None = None,
) -> Pairs:
    """Pair each projected LiDAR point with its nearest camera detection
    inside the gate (greedy, one-to-one, within its frame); degenerate
    projections are skipped.

    Takes the stream's ``(N, 2)`` ground and ``(M, 2)`` pixel arrays,
    concatenated in frame order, and each frame's number of rows in them;
    raises ``ValueError`` when the counts do not partition the arrays.
    Returns the paired ``(K, 2)`` ground and pixel arrays, frame by frame
    and each frame in greedy order. Successive pairings of one stream that
    share ``carried`` reuse the candidate edges it holds; the result is the
    same without it.
    """
    lidar_counts, camera_counts = frame_counts(
        lidar_counts, camera_counts, len(lidar_xy), len(camera_uv)
    )
    frame_of = np.repeat(np.arange(len(lidar_counts)), lidar_counts)
    uv, ok = projection_mask(h.m, lidar_xy)
    if carried is None:
        carried = CarriedEdges()
    stream = (lidar_xy, camera_uv, lidar_counts, camera_counts, gate)
    lidar, camera = carried.edges(uv, ok, frame_of, stream)
    matched = match_edges(uv, camera_uv, lidar, camera, frame_of, gate)
    return lidar_xy[matched.lidar], camera_uv[matched.camera]


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
    frames: Iterable[Frame],
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
    xy, uv, lidar_counts, camera_counts = stream_arrays(frames)
    carried = CarriedEdges()

    def pair_fn(g: Homography) -> Pairs:
        return implicit_pairs(g, xy, uv, lidar_counts, camera_counts, cfg.gate, carried)

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
