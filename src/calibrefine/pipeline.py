"""Four-stage orchestration: oracle correspondences feed a coarse homography,
the coarse result seeds online iterative refinement, and a correction-matrix
fit runs last. Every stage is scored on one held-out set of noise-free
ground-truth pairs that no stage ever consumes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .blocks import BlockGrid, block_sample, require_kept_blocks
from .correction import CorrectionConfig, CorrectionResult, fit_correction_stream
from .errors import CalibrationError, EmptySet, InsufficientPairs, check_field_types
from .geometry import (
    Frame,
    Homography,
    PairSet,
    ResidualReport,
    correspondence_arrays,
    reprojection_metrics,
)
from .ransac import RansacConfig, RansacResult, ransac_homography
from .refine import CalibrationState, RefineConfig, run as run_refinement

#: Histogram layout: 1 px buckets over [0, 200) plus one overflow bucket.
HISTOGRAM_EDGE = 200
OracleFn = Callable[[Frame], PairSet]


class StageFailure(CalibrationError):
    """A pipeline stage failed; carries which one."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class PipelineConfig:
    grid: BlockGrid = BlockGrid(1920, 1080)
    ransac: RansacConfig = RansacConfig()
    refine: RefineConfig = RefineConfig()
    correction: CorrectionConfig = CorrectionConfig()
    coarse_frames: int = 100
    eval_fraction: float = 0.1
    split_seed: int = 0
    skip_parity: bool = True

    def __post_init__(self):
        check_field_types(self)
        if self.coarse_frames < 1:
            raise ValueError(f"coarse_frames must be >= 1, got {self.coarse_frames}")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ValueError(f"eval_fraction must be in (0, 1), got {self.eval_fraction}")
        if self.split_seed < 0:
            raise ValueError(f"split_seed must be non-negative, got {self.split_seed}")
        require_kept_blocks(self.grid, self.skip_parity)


@dataclass(frozen=True, eq=False)
class PipelineReport:
    h_coarse: Homography
    h_iterative: Homography
    h_star: Homography
    stage_metrics: Mapping[str, ResidualReport]
    checkpoints: tuple
    histograms: Mapping[str, np.ndarray]
    correction: CorrectionResult
    eval_pair_count: int


def coarse_fit(
    oracle_pairs: PairSet | Iterable[tuple],
    grid: BlockGrid,
    cfg: RansacConfig,
    skip_parity: bool = True,
) -> tuple[RansacResult, PairSet]:
    """Block-sample the oracle pairs, then RANSAC with an inlier refit;
    returns the RANSAC result and the inlier pairs. Rows are converted to a
    ``PairSet`` first, by ``PairSet.of``."""
    oracle_pairs = PairSet.of(oracle_pairs)
    sampled = block_sample(oracle_pairs, grid, skip_parity=skip_parity)
    if len(sampled) < 4:
        raise InsufficientPairs(
            f"only {len(sampled)} pairs left after block sampling ({len(oracle_pairs)} in)"
        )
    result = ransac_homography(sampled.xy, sampled.uv, cfg)
    return result, sampled[result.inlier_indices]


def evaluate(h: Homography, eval_pairs: PairSet) -> ResidualReport:
    """Reprojection metrics of ``h`` on an evaluation pair set."""
    return reprojection_metrics(h, *correspondence_arrays(eval_pairs))


def error_histogram(report: ResidualReport) -> np.ndarray:
    """Counts per 1 px bucket over [0, 200), final bucket = everything above.

    The counts always sum to ``report.n``.
    """
    counts = np.zeros(HISTOGRAM_EDGE + 1, dtype=np.int64)
    # Clip before the integer cast: residuals beyond the int64 range would
    # otherwise wrap to a negative index.
    clipped = np.floor(np.minimum(report.per_pair, HISTOGRAM_EDGE)).astype(np.int64)
    np.add.at(counts, clipped, 1)
    return counts


def split_eval_pairs(gt_pairs: PairSet, fraction: float, seed: int) -> PairSet:
    """Seeded held-out selection of ground-truth pairs for evaluation."""
    if not gt_pairs:
        raise EmptySet("no ground-truth pairs to split")
    rng = np.random.default_rng([seed, 9])
    k = max(1, int(round(fraction * len(gt_pairs))))
    idx = np.sort(rng.choice(len(gt_pairs), size=k, replace=False))
    return gt_pairs[idx]


def run_full(
    frames: Sequence[Frame],
    oracle: OracleFn,
    cfg: PipelineConfig,
    gt_pairs: PairSet,
) -> PipelineReport:
    """Execute coarse -> iterative -> correction and score each stage on the
    held-out split of ``gt_pairs``.

    The coarse stage consumes oracle pairs from the first
    ``cfg.coarse_frames`` frames; its inliers seed the accumulated set of the
    iterative stage, which replays the whole stream. The correction stage
    fits on per-frame implicit pairings over the full stream.
    """
    eval_pairs = split_eval_pairs(gt_pairs, cfg.eval_fraction, cfg.split_seed)

    coarse_input = PairSet.concat(oracle(frame) for frame in frames[: cfg.coarse_frames])
    try:
        coarse_result, coarse_inliers = coarse_fit(
            coarse_input, cfg.grid, cfg.ransac, cfg.skip_parity
        )
    except CalibrationError as exc:
        raise StageFailure("coarse", exc) from exc
    h_coarse = coarse_result.h

    refine_cfg = replace(
        cfg.refine, grid=cfg.grid, ransac=cfg.ransac, skip_parity=cfg.skip_parity
    )
    try:
        state: CalibrationState = run_refinement(
            frames, h_coarse, refine_cfg, initial_pairs=coarse_inliers
        )
    except CalibrationError as exc:
        raise StageFailure("iterative", exc) from exc
    h_iterative = state.h_best

    try:
        correction = fit_correction_stream(h_iterative, frames, cfg.correction, lenient=True)
    except CalibrationError as exc:
        raise StageFailure("correction", exc) from exc
    h_star = correction.h_star

    stage_metrics = {
        "coarse": evaluate(h_coarse, eval_pairs),
        "iterative": evaluate(h_iterative, eval_pairs),
        "correction": evaluate(h_star, eval_pairs),
    }
    histograms = {name: error_histogram(report) for name, report in stage_metrics.items()}
    return PipelineReport(
        h_coarse=h_coarse,
        h_iterative=h_iterative,
        h_star=h_star,
        stage_metrics=stage_metrics,
        checkpoints=state.checkpoints,
        histograms=histograms,
        correction=correction,
        eval_pair_count=len(eval_pairs),
    )
