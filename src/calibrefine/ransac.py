"""RANSAC homography fitting with inlier consensus on top of the DLT
estimator. Minimal samples are drawn from a counter-based generator so the
draw sequence depends only on (number of pairs, seed), not element order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ConsensusFailure, DegenerateConfiguration, InsufficientPairs, check_field_types
from .geometry import Homography, ResidualReport, estimate_homography, inlier_score, refit_inliers

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
    best minimal-sample consensus, then ``refit_inliers`` on the winner.

    Hypotheses score by ``inlier_score``: inlier count, ties by inlier AED;
    ties keep the earlier hypothesis. Degenerate minimal samples are
    discarded without consuming an iteration (total draws capped at 10x
    max_iterations). Raises ``ConsensusFailure`` when the best inlier ratio
    is below ``cfg.min_inlier_ratio``.
    """
    n = len(xy)
    if n < MINIMAL_SAMPLE:
        raise InsufficientPairs(f"need >= {MINIMAL_SAMPLE} pairs, got {n}")
    stream = iter(sample_stream) if sample_stream is not None else minimal_sample_stream(n, cfg.seed)

    best_key: tuple[int, float] | None = None
    best_h: Homography | None = None
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
        key, _, _ = inlier_score(candidate.m, xy, uv, cfg.inlier_threshold)
        if -key[0] >= MINIMAL_SAMPLE and (best_key is None or key < best_key):
            best_key, best_h = key, candidate
        if best_key is not None:
            if iterations >= _iterations_needed(-best_key[0] / n, cfg.confidence):
                break

    if best_h is None or best_key is None:
        raise ConsensusFailure("no valid minimal-sample hypothesis found", n_pairs=n)
    best_count = -best_key[0]
    if best_count / n < cfg.min_inlier_ratio:
        raise ConsensusFailure(
            f"best consensus {best_count}/{n} below min ratio {cfg.min_inlier_ratio}",
            n_pairs=n,
            best_inliers=best_count,
        )

    h, mask, residuals = refit_inliers(best_h, xy, uv, cfg.inlier_threshold)
    inlier_indices = np.flatnonzero(mask)
    inlier_indices.flags.writeable = False
    return RansacResult(
        h=h,
        inlier_indices=inlier_indices,
        iterations_run=iterations,
        inlier_report=ResidualReport.from_residuals(residuals[mask]),
    )
