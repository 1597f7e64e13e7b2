"""Command-line surface: simulate scenes, run the coarse calibration, refine
a matrix (iterative and/or correction), and evaluate a matrix against a pair
file. All randomness is seeded from the config, so every command is
deterministic and reruns produce byte-identical outputs.

Exit codes: 0 ok, 2 config/input invalid, 3 I/O failure, 4 algorithmic
failure. Set CALIBREFINE_LOG to control log verbosity.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import serialize
from .blocks import BlockGrid, Parity, kept_blocks
from .correction import CorrectionConfig, CorrectionResult, fit_correction_stream
from .errors import CalibrationError, EmptySet
from .geometry import Homography, PairSet
from .matching import MatchGate
from .pipeline import coarse_fit, error_histogram, evaluate
from .ransac import RansacConfig
from .refine import GuardMetric, RefineConfig, run as run_refinement
from .simulator import SceneConfig, generate, oracle_pairs

log = logging.getLogger("calibrefine")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ALGO = 4


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """The parsed config; the block grid, RANSAC settings and parity switch
    live on ``refine`` only."""

    scene: SceneConfig
    refine: RefineConfig
    correction: CorrectionConfig
    seeds: tuple[int, ...] | None = None


_TOP_KEYS = {"scene", "grid", "ransac", "refine", "correction", "seeds"}


def _check_keys(raw: dict, allowed: set[str], section: str) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in section '{section}'")


def _section(data: dict, name: str) -> dict:
    raw = data.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{name}' must be an object")
    return raw


def _number(value, name: str) -> float:
    """A JSON number as a float; booleans (a subclass of int) and strings
    are rejected."""
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def _build(cls, raw: dict, section: str, **extra):
    """Construct ``cls`` from a config section; ``extra`` holds fields set by
    other sections, which this section may not name."""
    _check_keys(raw, {f.name for f in fields(cls)} - set(extra), section)
    for f in fields(cls):
        if f.name not in raw:
            continue
        # JSON booleans load as bool, a subclass of int, so test the exact type
        if f.type in (int, "int") and type(raw[f.name]) is not int:
            raise ConfigError(f"{section}.{f.name} must be an integer, got {json.dumps(raw[f.name])}")
        if f.type in (float, "float"):
            _number(raw[f.name], f"{section}.{f.name}")
    merged = {**extra, **raw}
    try:
        return cls(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section '{section}': {exc}") from exc


def load_config(path: str | Path | None) -> RunConfig:
    """Parse and validate the JSON config; unknown keys are rejected,
    integer fields must hold JSON integers (not floats or booleans) and float
    fields JSON numbers (not booleans or strings)."""
    data = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(data, _TOP_KEYS, "<root>")

    scene = _build(SceneConfig, _section(data, "scene"), "scene")

    grid_raw = dict(_section(data, "grid"))
    skip_parity = grid_raw.pop("skip_parity", True)
    if not isinstance(skip_parity, bool):
        raise ConfigError("grid.skip_parity must be a boolean")
    if "parity" in grid_raw:
        try:
            grid_raw["parity"] = Parity[str(grid_raw["parity"]).upper()]
        except KeyError as exc:
            raise ConfigError(f"grid.parity must be 'even' or 'odd', got {grid_raw['parity']}") from exc
    grid = _build(
        BlockGrid, grid_raw, "grid", image_width=scene.image_width, image_height=scene.image_height
    )

    ransac = _build(RansacConfig, _section(data, "ransac"), "ransac")

    refine_raw = dict(_section(data, "refine"))
    if "gate" in refine_raw:
        refine_raw["gate"] = MatchGate(_number(refine_raw["gate"], "refine.gate"))
    if "metric" in refine_raw:
        try:
            refine_raw["metric"] = GuardMetric(str(refine_raw["metric"]).lower())
        except ValueError as exc:
            raise ConfigError(f"refine.metric must be 'aed' or 'rmse', got {refine_raw['metric']}") from exc
    refine_cfg = _build(
        RefineConfig,
        refine_raw,
        "refine",
        grid=grid,
        ransac=ransac,
        skip_parity=skip_parity,
    )

    correction_raw = dict(_section(data, "correction"))
    if "gate" in correction_raw:
        correction_raw["gate"] = MatchGate(_number(correction_raw["gate"], "correction.gate"))
    correction = _build(CorrectionConfig, correction_raw, "correction")

    seeds = data.get("seeds")
    if seeds is not None:
        if not isinstance(seeds, list) or not seeds or not all(
            type(s) is int and s >= 0 for s in seeds
        ):
            raise ConfigError("seeds must be a non-empty list of non-negative integers")
        seeds = tuple(seeds)

    return RunConfig(scene=scene, refine=refine_cfg, correction=correction, seeds=seeds)


def apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    scene, refine_cfg, correction = cfg.scene, cfg.refine, cfg.correction
    grid, ransac = refine_cfg.grid, refine_cfg.ransac
    if getattr(args, "seed", None) is not None:
        scene = replace(scene, seed=args.seed)
        ransac = replace(ransac, seed=args.seed)
    if getattr(args, "threshold", None) is not None:
        ransac = replace(ransac, inlier_threshold=args.threshold)
    if getattr(args, "blocks", None) is not None:
        grid = replace(grid, blocks_x=args.blocks, blocks_y=args.blocks)
    if getattr(args, "parity", None) is not None:
        grid = replace(grid, parity=Parity[args.parity.upper()])
    if getattr(args, "gate", None) is not None:
        gate = MatchGate(args.gate)
        refine_cfg = replace(refine_cfg, gate=gate)
        correction = replace(correction, gate=gate)
    if getattr(args, "interval", None) is not None:
        refine_cfg = replace(refine_cfg, recalib_interval=args.interval)
    refine_cfg = replace(refine_cfg, grid=grid, ransac=ransac)
    try:
        return replace(cfg, scene=scene, refine=refine_cfg, correction=correction)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- simulate -----------------------------------------------------------------

def _simulate_seed(scene: SceneConfig, out_dir: str) -> str:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sim_frames, gt = generate(scene)
    pairs = PairSet.concat(
        oracle_pairs(sf, gt, scene.oracle_error_rate, scene.seed) for sf in sim_frames
    )
    serialize.write_sim_frames(out / "frames.jsonl", sim_frames)
    serialize.write_pairs_jsonl(out / "oracle_pairs.jsonl", pairs)
    serialize.write_ground_truth(out / "ground_truth.json", gt)
    serialize.write_pairs_jsonl(out / "gt_pairs.jsonl", gt.correspondences())
    return f"seed {scene.seed}: {len(sim_frames)} frames, {len(pairs)} oracle pairs -> {out}"


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = apply_overrides(load_config(args.config), args)
    seeds = cfg.seeds if cfg.seeds is not None else (cfg.scene.seed,)
    out_root = Path(args.out)
    jobs = [
        (replace(cfg.scene, seed=s), str(out_root if len(seeds) == 1 else out_root / f"seed_{s}"))
        for s in seeds
    ]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            for line in pool.map(_simulate_seed, *zip(*jobs)):
                print(line)
    else:
        for scene, out_dir in jobs:
            print(_simulate_seed(scene, out_dir))
    return EXIT_OK


# -- calibrate ----------------------------------------------------------------

def _load_pairs(path: str) -> PairSet:
    pairs = serialize.read_pairs_jsonl(path)
    if not pairs:
        raise EmptySet(f"no pairs in {path}")
    return pairs


def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = apply_overrides(load_config(args.config), args)
    grid, skip_parity = cfg.refine.grid, cfg.refine.skip_parity
    kept = kept_blocks(grid, skip_parity)
    if kept < 4:
        print(
            f"error: grid {grid.blocks_x}x{grid.blocks_y} keeps {kept} blocks after "
            "block sampling; calibrate needs at least 4",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    frames = serialize.read_frames_jsonl(args.frames)
    if not frames:
        print("error: frames file is empty", file=sys.stderr)
        return EXIT_CONFIG
    pairs = _load_pairs(args.oracle)
    unknown = np.flatnonzero(~np.isin(pairs.frame_ids, [f.frame_id for f in frames]))
    if unknown.size:
        bad = pairs.frame_ids[unknown[0]]
        print(f"error: oracle pair references unknown frame_id {bad}", file=sys.stderr)
        return EXIT_CONFIG

    result, inliers = coarse_fit(pairs, grid, cfg.refine.ransac, skip_parity)
    serialize.save_homography(args.out, result.h)
    report = result.inlier_report
    print(
        f"coarse: aed={report.aed!r} rmse={report.rmse!r} "
        f"inliers={len(inliers)} oracle_pairs={len(pairs)}"
    )
    return EXIT_OK


# -- refine ---------------------------------------------------------------------

def _sidecar(out: Path, suffix: str) -> Path:
    return out.with_name(out.stem + suffix)


def cmd_refine(args: argparse.Namespace) -> int:
    cfg = apply_overrides(load_config(args.config), args)
    frames = serialize.read_frames_jsonl(args.frames)
    if not frames:
        print("error: frames file is empty", file=sys.stderr)
        return EXIT_CONFIG
    h = serialize.load_homography(args.matrix)
    out = Path(args.out)

    if args.mode in ("iterative", "both"):
        state = run_refinement(frames, h, cfg.refine)
        for record in state.checkpoints:
            consistent = record.updated == (record.err_new < record.err_best)
            if not consistent:
                print("error: checkpoint guard violated; refusing output", file=sys.stderr)
                return EXIT_ALGO
        serialize.write_checkpoints_csv(_sidecar(out, "_checkpoints.csv"), state.checkpoints)
        h = state.h_best
        log.info("iterative: %d checkpoints, %d accumulated pairs",
                 len(state.checkpoints), len(state.accumulated))

    if args.mode in ("correction", "both"):
        result: CorrectionResult = fit_correction_stream(
            h, frames, cfg.correction, lenient=args.lenient
        )
        if any(b > a for a, b in zip(result.loss_trace, result.loss_trace[1:])):
            print("error: correction loss trace increased; refusing output", file=sys.stderr)
            return EXIT_ALGO
        serialize.write_loss_trace(_sidecar(out, "_loss_trace.json"), result)
        h = result.h_star

    serialize.save_homography(out, h)
    print(f"refined matrix written to {out} (mode={args.mode})")
    return EXIT_OK


# -- evaluate ---------------------------------------------------------------------

def cmd_evaluate(args: argparse.Namespace) -> int:
    h: Homography = serialize.load_homography(args.matrix)
    pairs = _load_pairs(args.pairs)
    report = evaluate(h, pairs)
    out = Path(args.out)
    serialize.write_residual_report(out, report)
    serialize.write_histogram_csv(_sidecar(out, "_hist.csv"), error_histogram(report))
    print(f"aed={report.aed!r} rmse={report.rmse!r} n={report.n}")
    return EXIT_OK


# -- entry point --------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calibrefine",
        description="Homography calibration: simulate, calibrate, refine, evaluate.",
    )
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override scene and RANSAC seeds")
    parser.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers for seed sweeps")
    parser.add_argument("--gate", type=float, default=None, help="matching gate in pixels")
    parser.add_argument("--interval", type=int, default=None, help="frames between recalibrations")
    parser.add_argument("--blocks", type=int, default=None, help="blocks per image side")
    parser.add_argument("--parity", choices=["even", "odd"], default=None)
    parser.add_argument("--threshold", type=float, default=None, help="RANSAC inlier threshold px")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write frames, oracle pairs, and ground truth")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="coarse homography from oracle pairs")
    p.add_argument("--frames", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--out", required=True, help="output matrix JSON")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("refine", help="refine a matrix over a frame stream")
    p.add_argument("--frames", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--mode", choices=["iterative", "correction", "both"], default="iterative")
    p.add_argument("--lenient", action="store_true",
                   help="keep the input matrix when too few implicit pairs exist")
    p.add_argument("--out", required=True, help="output matrix JSON")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("evaluate", help="reprojection report for a matrix on a pair file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=cmd_evaluate)
    return parser


def _setup_logging() -> None:
    # getLevelName maps a level name to its number and anything else to a
    # string; a logging attribute such as BASIC_FORMAT is not a level.
    level = logging.getLevelName(os.environ.get("CALIBREFINE_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EmptySet as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGO


if __name__ == "__main__":
    raise SystemExit(main())
