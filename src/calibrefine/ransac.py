"""RANSAC homography fitting with inlier consensus on top of the DLT
estimator. Minimal samples are drawn from a counter-based generator so the
draw sequence depends only on (number of pairs, seed), not element order.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    ConsensusFailure,
    DegenerateConfiguration,
    InsufficientPairs,
    NonConvergenceWarning,
    check_field_types,
)
from .geometry import (
    Homography,
    ResidualReport,
    estimate_homography,
    refine_homography,
    transform_points,
)

MINIMAL_SAMPLE = 4


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 2000
    inlier_threshold: float = 3.0
    min_inlier_ratio: float = 0.5
    confidence: float = 0.999
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.max_iterations <= 0:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if not 0.0 < self.inlier_threshold < math.inf:
            raise ValueError(f"inlier_threshold must be finite and > 0, got {self.inlier_threshold}")
        if not 0.0 < self.min_inlier_ratio <= 1.0:
            raise ValueError(f"min_inlier_ratio must be in (0, 1], got {self.min_inlier_ratio}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class RansacResult:
    h: Homography
    inlier_indices: np.ndarray
    iterations_run: int
    inlier_report: ResidualReport


def minimal_sample_stream(n_pairs: int, seed: int) -> Iterator[tuple[int, ...]]:
    """Endless stream of 4-index minimal samples, a pure function of (n_pairs, seed)."""
    rng = np.random.Generator(np.random.Philox(seed))
    while True:
        yield tuple(int(i) for i in rng.choice(n_pairs, size=MINIMAL_SAMPLE, replace=False))


def _score(matrix: np.ndarray, xy: np.ndarray, uv: np.ndarray, threshold: float):
    uv_hat, _ = transform_points(matrix, xy)
    with np.errstate(invalid="ignore"):
        residuals = np.hypot(uv_hat[:, 0] - uv[:, 0], uv_hat[:, 1] - uv[:, 1])
    mask = residuals <= threshold  # NaN residuals compare False
    count = int(mask.sum())
    aed = float(residuals[mask].mean()) if count else math.inf
    return mask, count, aed, residuals


def _iterations_needed(inlier_ratio: float, confidence: float) -> int:
    p_all_inlier = inlier_ratio**MINIMAL_SAMPLE
    if p_all_inlier >= 1.0:
        return 1
    if p_all_inlier <= 0.0:
        return np.iinfo(np.int64).max
    return int(math.ceil(math.log1p(-confidence) / math.log1p(-p_all_inlier)))


def ransac_homography(
    xy: np.ndarray,
    uv: np.ndarray,
    cfg: RansacConfig,
    sample_stream: Iterable[tuple[int, ...]] | None = None,
) -> RansacResult:
    """Fit a homography robustly to paired (N, 2) ground and pixel points:
    best minimal-sample consensus, then a least-squares refit on the winning
    inliers.

    Hypotheses score by inlier count, ties by inlier AED, then by iteration
    index. Degenerate minimal samples are discarded without consuming an
    iteration (total draws capped at 10x max_iterations). The refit result is
    kept only if it does not score worse than the minimal-sample model.
    Raises ``ConsensusFailure`` when the best inlier ratio is below
    ``cfg.min_inlier_ratio``.
    """
    n = len(xy)
    if n < MINIMAL_SAMPLE:
        raise InsufficientPairs(f"need >= {MINIMAL_SAMPLE} pairs, got {n}")
    stream = iter(sample_stream) if sample_stream is not None else minimal_sample_stream(n, cfg.seed)

    best_key: tuple[int, float, int] | None = None
    best_h: Homography | None = None
    best_mask: np.ndarray | None = None
    best_residuals: np.ndarray | None = None
    iterations = 0
    draws = 0
    max_draws = 10 * cfg.max_iterations

    while iterations < cfg.max_iterations and draws < max_draws:
        try:
            idx = next(stream)
        except StopIteration:
            break
        draws += 1
        sample = list(idx)
        try:
            candidate = estimate_homography(xy[sample], uv[sample])
        except DegenerateConfiguration:
            continue
        iterations += 1
        mask, count, aed, residuals = _score(candidate.m, xy, uv, cfg.inlier_threshold)
        if count >= MINIMAL_SAMPLE:
            key = (-count, aed, iterations)
            if best_key is None or key < best_key:
                best_key, best_h, best_mask, best_residuals = key, candidate, mask, residuals
        if best_key is not None:
            if iterations >= _iterations_needed(-best_key[0] / n, cfg.confidence):
                break

    if best_h is None or best_mask is None or best_key is None:
        raise ConsensusFailure("no valid minimal-sample hypothesis found", n_pairs=n)
    best_count = -best_key[0]
    if best_count / n < cfg.min_inlier_ratio:
        raise ConsensusFailure(
            f"best consensus {best_count}/{n} below min ratio {cfg.min_inlier_ratio}",
            n_pairs=n,
            best_inliers=best_count,
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        refined = refine_homography(xy[best_mask], uv[best_mask], best_h)
    mask_r, count_r, aed_r, residuals_r = _score(refined.m, xy, uv, cfg.inlier_threshold)
    if (-count_r, aed_r) <= (best_key[0], best_key[1]) and count_r >= MINIMAL_SAMPLE:
        final_h, final_mask, final_residuals = refined, mask_r, residuals_r
    else:
        final_h, final_mask, final_residuals = best_h, best_mask, best_residuals

    inlier_indices = np.flatnonzero(final_mask)
    inlier_indices.flags.writeable = False
    return RansacResult(
        h=final_h,
        inlier_indices=inlier_indices,
        iterations_run=iterations,
        inlier_report=ResidualReport.from_residuals(final_residuals[final_mask]),
    )
