"""The three benchmark workloads and the metrics they report.

Each workload is a closed loop in one process: one operation at a time, no
threads or pool workers. A run builds a list of scenes, then visits them
round-robin until the time budget is spent.

The scene list of every run holds a fixed *panel* (the same scene seeds on
every run) plus scenes drawn from ``--seed``. Held-out AED moves by a factor
of ten between scenes (coarse AED 0.22-2.77 px over seeds 0-9 at 3000x12),
so an accuracy metric taken from seed-drawn scenes could never meet a bound
of 25%. The accuracy metrics therefore come from the panel only, repeat bit
for bit on every run, and can be gated tightly. So do the calibration time
and the checkpoint stall, which are constants of a scene too. Set-up, frame
latency and memory take every scene in the list, so the seed still changes
the work measured.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from calibrefine import cli, correction, pipeline, refine, serialize, simulator
from calibrefine.blocks import BlockGrid
from calibrefine.pipeline import PipelineConfig
from calibrefine.ransac import RansacConfig
from calibrefine.refine import RefineConfig
from calibrefine.simulator import SceneConfig

import speed
from tracer import MODULES, Tracer

#: Child interpreters timed for the import share of ``setup_s``.
IMPORT_SAMPLES = 5
#: Timed calls of ``checkpoint_recalibrate`` on each checkpoint's state. The
#: function is pure, so the repeats redo the same work; only the first call
#: feeds the state and the frame time.
CHECKPOINT_REPEATS = 5


@dataclass(frozen=True)
class Shape:
    n_frames: int
    n_objects: int
    panel: tuple[int, ...]  # fixed scene seeds; the accuracy metrics use these
    n_seeded: int  # scenes drawn from --seed
    min_passes: int
    recalib_interval: int = 100


SHAPES = {
    "full": {
        "stream": Shape(3000, 12, (0, 1, 2), 1, 1),
        "dense": Shape(150, 200, (0, 1, 2, 3), 1, 1, recalib_interval=25),
        "cli": Shape(1200, 12, (0, 1), 1, 2),
    },
    "tiny": {
        "stream": Shape(150, 12, (0,), 1, 1),
        "dense": Shape(110, 30, (0,), 1, 1, recalib_interval=25),
        "cli": Shape(120, 12, (0,), 1, 2),
    },
}

#: Wrapped functions a traced run of each kind of workload must reach.
_CORE = {
    "simulator.generate", "simulator.oracle_pairs", "simulator.random_homography",
    "pipeline.coarse_fit", "pipeline.evaluate", "pipeline.error_histogram",
    "refine.run", "refine.ingest_frame", "refine.checkpoint_recalibrate",
    "blocks.block_of", "blocks.block_sample", "blocks.half_block_diagonal",
    "matching.greedy_match",
    "correction.fit_correction_stream", "correction.implicit_pairs",
    "correction.reprojection_loss",
    "geometry.correspondence_arrays", "geometry.estimate_homography",
    "geometry.refine_homography", "geometry.reprojection_metrics",
    "geometry.project_points", "geometry.compose",
    "ransac.ransac_homography", "lsq.damped_least_squares",
}
EXPECTED_CALLS = {
    "stream": _CORE | {"pipeline.run_full", "pipeline.split_eval_pairs"},
    "dense": _CORE | {"pipeline.run_full", "pipeline.split_eval_pairs"},
    "cli": _CORE | {
        "cli.main", "cli.load_config", "cli.apply_overrides", "cli.cmd_simulate",
        "cli.cmd_calibrate", "cli.cmd_refine", "cli.cmd_evaluate",
        "serialize.write_sim_frames", "serialize.write_frames_jsonl",
        "serialize.write_pairs_jsonl", "serialize.write_ground_truth",
        "serialize.save_homography", "serialize.write_checkpoints_csv",
        "serialize.write_loss_trace", "serialize.write_residual_report",
        "serialize.write_histogram_csv", "serialize.read_frames_jsonl",
        "serialize.read_pairs_jsonl", "serialize.load_homography",
    },
}


class Tally:
    """Operations attempted and failed; a failure prints its cause to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, what: str, fn: Callable, *args):
        """Run one operation; returns its result, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, what: str, ok: bool) -> None:
        """A correctness check on the last operation; failing marks it failed."""
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


#: One timed operation: (raw ``perf_counter`` start, raw end, seconds of the
#: program alone). The raw interval locates the speed-monitor samples that
#: scale it (see speed.py).
Timing = tuple[float, float, float]


def timed(mon: speed.Monitor, fn: Callable, *args) -> tuple[object, Timing]:
    start, c0 = time.perf_counter(), mon.clock()
    result = fn(*args)
    return result, (start, time.perf_counter(), mon.clock() - c0)


def raw_seconds(timings: list[Timing], kernel: str = "") -> np.ndarray:
    return np.asarray(timings, dtype=float).reshape(-1, 3)[:, 2]


@dataclass
class Samples:
    per_scene: dict[int, dict[str, list[Timing]]] = field(default_factory=dict)
    #: Per scene, the timed calls of each checkpoint, one list per checkpoint.
    checkpoints: dict[int, list[list[Timing]]] = field(default_factory=dict)

    def add(self, scene_seed: int, key: str, timings: list[Timing]) -> None:
        self.per_scene.setdefault(scene_seed, {}).setdefault(key, []).extend(timings)

    def add_checkpoints(self, scene_seed: int, calls: list[list[Timing]]) -> None:
        self.checkpoints.setdefault(scene_seed, []).extend(calls)

    def checkpoint_stall(self, scene_seed: int, seconds: Callable[[list[Timing]], np.ndarray]) -> float:
        """Mean over the scene's checkpoints of the median of each one's calls."""
        return statistics.fmean(
            float(np.median(seconds(calls))) for calls in self.checkpoints[scene_seed]
        )

    def scene_mean(self, key: str, seconds: Callable[[list[Timing]], np.ndarray],
                   q: float = 50, scenes=None) -> float:
        """Mean over scenes of each scene's ``q``-th percentile over its
        samples, so that each scene weighs the same however often it was
        visited. ``scenes`` limits the mean to those scene seeds."""
        return statistics.fmean(
            float(np.percentile(seconds(values[key]), q))
            for seed, values in self.per_scene.items()
            if scenes is None or seed in scenes
        )


def scene_seeds(workload: str, seed: int, shape: Shape) -> list[int]:
    drawn = np.random.SeedSequence([seed, zlib.crc32(workload.encode())]).generate_state(shape.n_seeded)
    return list(shape.panel) + [int(s) for s in drawn]


def import_timings(src: Path) -> list[Timing]:
    """Cold ``import calibrefine`` times, each in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import calibrefine; print(time.perf_counter() - t)"
    )
    out = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append((start, time.perf_counter(), float(proc.stdout.strip().splitlines()[-1])))
    return out


def online_loop(frames, h0, cfg, seed_pairs, mon: speed.Monitor, repeats=CHECKPOINT_REPEATS):
    """Drive refinement frame by frame on ``refine.run``'s schedule, timing
    each frame (ingest plus any due checkpoint) and each checkpoint, the
    latter ``repeats`` times: one list of timings per checkpoint."""
    state = refine.CalibrationState.initial(h0, seed_pairs)
    frame_times, checkpoint_times = [], []
    raw, clock = time.perf_counter, mon.clock

    def repeat_checkpoint(before):
        for _ in range(repeats - 1):
            checkpoint_times[-1].append(timed(mon, refine.checkpoint_recalibrate, before, cfg)[1])

    for frame in frames:
        r0, c0 = raw(), clock()
        state = refine.ingest_frame(state, frame, cfg)
        if state.frames_seen % cfg.recalib_interval == 0:
            before = state
            r1, c1 = raw(), clock()
            state = refine.checkpoint_recalibrate(state, cfg)
            r2, c2 = raw(), clock()
            checkpoint_times.append([(r1, r2, c2 - c1)])
            frame_times.append((r0, r2, c2 - c0))
            repeat_checkpoint(before)
        else:
            r2, c2 = raw(), clock()
            frame_times.append((r0, r2, c2 - c0))
    if state.frames_seen > 0 and state.frames_seen % cfg.recalib_interval != 0:
        before = state
        state, timing = timed(mon, refine.checkpoint_recalibrate, state, cfg)
        checkpoint_times.append([timing])
        repeat_checkpoint(before)
    return state, frame_times, checkpoint_times


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# -- library workloads: stream and dense ---------------------------------------


@dataclass
class Scene:
    seed: int
    frames: list
    oracle: Callable
    gt_pairs: list
    cfg: PipelineConfig
    setup: Timing
    h0: object = None
    seed_pairs: tuple = ()


def build_scene(seed: int, shape: Shape, mon: speed.Monitor) -> Scene:
    """Scene set-up as a library user does it; the timed part is ``setup_s``."""
    r0, c0 = time.perf_counter(), mon.clock()
    scene_cfg = SceneConfig(seed=seed, n_frames=shape.n_frames, n_objects=shape.n_objects)
    sim_frames, gt = simulator.generate(scene_cfg)
    by_id = {sf.frame.frame_id: sf for sf in sim_frames}

    def oracle(frame):
        return simulator.oracle_pairs(by_id[frame.frame_id], gt, scene_cfg.oracle_error_rate, seed)

    scene = Scene(
        seed=seed,
        frames=[sf.frame for sf in sim_frames],
        oracle=oracle,
        gt_pairs=gt.correspondences(),
        cfg=PipelineConfig(
            grid=BlockGrid(scene_cfg.image_width, scene_cfg.image_height),
            ransac=RansacConfig(seed=seed),
            refine=RefineConfig(recalib_interval=shape.recalib_interval),
        ),
        setup=(0.0, 0.0, 0.0),
    )
    scene.setup = (r0, time.perf_counter(), mon.clock() - c0)
    # Seed of the online loop, exactly as run_full seeds its iterative stage.
    cfg = scene.cfg
    coarse_input = [p for f in scene.frames[: cfg.coarse_frames] for p in oracle(f)]
    fit, inliers = pipeline.coarse_fit(coarse_input, cfg.grid, cfg.ransac, cfg.skip_parity)
    scene.h0, scene.seed_pairs = fit.h, tuple(inliers)
    return scene


def _refine_cfg(cfg: PipelineConfig):
    return replace(cfg.refine, grid=cfg.grid, ransac=cfg.ransac, skip_parity=cfg.skip_parity)


def library_visit(scene: Scene, tally: Tally, samples: Samples, tracer: Tracer | None,
                  mon: speed.Monitor):
    """One ``run_full`` call and one online-loop pass over a scene."""
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    with span("bench.run_full"):
        report, calib = timed(
            mon, tally.op, f"run_full scene {scene.seed}",
            pipeline.run_full, scene.frames, scene.oracle, scene.cfg, scene.gt_pairs,
        )
    if report is not None:
        samples.add(scene.seed, "calib_s", [calib])
        tally.check(
            f"finite AED/RMSE on scene {scene.seed}",
            _finite(*(v for m in report.stage_metrics.values() for v in (m.aed, m.rmse))),
        )
    with span("bench.online_loop"):
        looped = tally.op(
            f"online loop scene {scene.seed}",
            online_loop, scene.frames, scene.h0, _refine_cfg(scene.cfg), scene.seed_pairs, mon,
            1 if tracer else CHECKPOINT_REPEATS,
        )
    if looped is not None:
        state, frame_times, checkpoint_times = looped
        samples.add(scene.seed, "frame_s", frame_times)
        samples.add_checkpoints(scene.seed, checkpoint_times)
        tally.check(
            f"online loop h_best equals run_full h_iterative on scene {scene.seed}",
            report is not None and np.array_equal(state.h_best.m, report.h_iterative.m),
        )
    return report


def ablation_aed(scene: Scene, report) -> float:
    """Held-out AED of the correction fit started straight from ``h_coarse``."""
    cfg = scene.cfg
    result = correction.fit_correction_stream(report.h_coarse, scene.frames, cfg.correction, lenient=True)
    eval_pairs = pipeline.split_eval_pairs(scene.gt_pairs, cfg.eval_fraction, cfg.split_seed)
    return pipeline.evaluate(result.h_star, eval_pairs).aed


# -- cli workload ---------------------------------------------------------------


class CliScene:
    """File layout and commands of one scene run through ``calibrefine.cli``."""

    def __init__(self, root: Path, seed: int, shape: Shape):
        self.seed = seed
        self.root = root / f"scene-{seed}"
        self.out = self.root / "out"
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = self.root / "config.json"
        self.config.write_text(
            json.dumps({"scene": {"n_frames": shape.n_frames, "n_objects": shape.n_objects}})
        )
        sim, out = self.out / "sim", self.out
        common = ["--config", str(self.config), "--seed", str(seed)]
        self.frames = sim / "frames.jsonl"
        self.gt_pairs = sim / "gt_pairs.jsonl"
        self.coarse = out / "coarse.json"
        self.refined = out / "refined.json"
        self.report = out / "report.json"
        self.refine_argv = common + [
            "refine", "--frames", str(self.frames), "--matrix", str(self.coarse),
            "--mode", "both", "--out", str(self.refined),
        ]
        #: (command, argv, files it writes)
        self.commands = [
            ("simulate", common + ["simulate", "--out", str(sim)],
             [self.frames, sim / "oracle_pairs.jsonl", sim / "ground_truth.json", self.gt_pairs]),
            ("calibrate", common + [
                "calibrate", "--frames", str(self.frames),
                "--oracle", str(sim / "oracle_pairs.jsonl"), "--out", str(self.coarse)],
             [self.coarse]),
            ("refine", self.refine_argv,
             [self.refined, out / "refined_checkpoints.csv", out / "refined_loss_trace.json"]),
            ("evaluate", [
                "evaluate", "--matrix", str(self.refined), "--pairs", str(self.gt_pairs),
                "--out", str(self.report)],
             [self.report, out / "report_hist.csv"]),
        ]
        self.digests: dict[str, list[str]] = {}

    def run_commands(self, tally: Tally, mon: speed.Monitor) -> dict[str, tuple[Timing, float]] | None:
        """Run the four commands in order from a clean output directory.

        Returns the timing and CPU seconds of each command, or None when one
        failed. Outputs must be byte-identical to the first run of this scene.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        times = {}
        for name, argv, outputs in self.commands:
            with contextlib.redirect_stdout(io.StringIO()):
                cpu0 = time.process_time()
                code, timing = timed(mon, tally.op, f"cli {name} scene {self.seed}", cli.main, argv)
                cpu = time.process_time() - cpu0
            times[name] = (timing, cpu)
            if code != 0:
                if code is not None:
                    tally.check(f"cli {name} scene {self.seed} exited {code}", False)
                return None
            digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs]
            first = self.digests.setdefault(name, digests)
            tally.check(f"cli {name} outputs byte-identical across runs, scene {self.seed}",
                        digests == first)
        report = json.loads(self.report.read_text())
        tally.check(f"finite AED/RMSE from cli evaluate, scene {self.seed}",
                    _finite(report["aed"], report["rmse"]))
        return times

    def run_config(self):
        args = cli.build_parser().parse_args(self.refine_argv)
        return cli.apply_overrides(cli.load_config(args.config), args)

    def loop(self, tally: Tally, samples: Samples, mon: speed.Monitor):
        """The online loop as ``refine`` runs it, on the frames read back from
        the simulate output; it must reproduce the command's checkpoint log."""
        frames = serialize.read_frames_jsonl(self.frames)
        h0 = serialize.load_homography(self.coarse)
        looped = tally.op(f"online loop scene {self.seed}", online_loop,
                          frames, h0, self.run_config().refine, (), mon)
        if looped is None:
            return None
        state, frame_times, checkpoint_times = looped
        samples.add(self.seed, "frame_s", frame_times)
        samples.add_checkpoints(self.seed, checkpoint_times)
        logged = serialize.read_checkpoints_csv(self.out / "refined_checkpoints.csv")

        def same(a, b):
            return a == b or (math.isnan(a) and math.isnan(b))

        tally.check(
            f"online loop reproduces the refine checkpoint log, scene {self.seed}",
            len(logged) == len(state.checkpoints) and all(
                r.frame_id == c.frame_id and r.updated == c.updated
                and same(r.err_new, c.err_new) and same(r.err_best, c.err_best)
                for r, c in zip(logged, state.checkpoints)
            ),
        )
        return state

    def accuracy(self, h_iterative) -> dict[str, float]:
        gt_pairs = serialize.read_pairs_jsonl(self.gt_pairs)
        report = json.loads(self.report.read_text())
        return {
            "aed_coarse_px": pipeline.evaluate(serialize.load_homography(self.coarse), gt_pairs).aed,
            "aed_iterative_px": pipeline.evaluate(h_iterative, gt_pairs).aed,
            "aed_correction_px": report["aed"],
            "rmse_correction_px": report["rmse"],
        }

    def ablation_aed(self) -> float:
        frames = serialize.read_frames_jsonl(self.frames)
        h0 = serialize.load_homography(self.coarse)
        result = correction.fit_correction_stream(h0, frames, self.run_config().correction, lenient=True)
        return pipeline.evaluate(result.h_star, serialize.read_pairs_jsonl(self.gt_pairs)).aed


CALIB_COMMANDS = ("calibrate", "refine", "evaluate")


# -- runs -----------------------------------------------------------------------


def _visit_until(seconds: float, scenes: list, min_passes: int, visit: Callable) -> int:
    """Visit the scenes round-robin, at least ``min_passes`` times each, then
    until the next visit would end past the budget; returns the visits."""
    start = time.perf_counter()
    visits = 0
    while True:
        visit(scenes[visits % len(scenes)])
        visits += 1
        elapsed = time.perf_counter() - start
        if visits >= min_passes * len(scenes) and elapsed + elapsed / visits > seconds:
            return visits


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _times(samples: Samples, imports: list[Timing], panel: tuple[int, ...],
           seconds: Callable[..., np.ndarray]) -> dict[str, float]:
    """``setup_s`` is the median cold import plus the scene mean of set-up.
    A scene's calibration time and checkpoint stall are constants of the
    scene that differ up to twofold between scenes, so they are taken over
    the panel only, like the accuracy metrics. ``seconds`` maps timings and a
    speed-monitor kernel name to seconds."""
    return {
        "setup_s": float(np.median(seconds(imports))) + samples.scene_mean("setup_s", seconds),
        "calib_s": samples.scene_mean("calib_s", seconds, scenes=panel),
        "frame_ms_p50": samples.scene_mean("frame_s", seconds, 50) * 1e3,
        "frame_ms_p90": samples.scene_mean("frame_s", seconds, 90) * 1e3,
        "checkpoint_ms_p50": statistics.fmean(
            samples.checkpoint_stall(s, lambda t: seconds(t, "numpy")) for s in panel) * 1e3,
    }


def _timing_metrics(mon: speed.Monitor, samples: Samples, imports: list[Timing],
                    panel: tuple[int, ...], visits: int) -> tuple[dict, dict]:
    """End-to-end times scaled by the speed monitor (see speed.py), peak RSS,
    and the detail behind them."""
    metrics = _times(samples, imports, panel, mon.scale)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return metrics, {
        "visits": visits,
        "wall": _times(samples, imports, panel, raw_seconds),
        "monitor": {"samples": len(mon.at), "busy_s": mon.busy, **{
            f"{kernel}_kernel_s": {f"p{q}": float(np.percentile(mon.kernel_times(kernel), q))
                                   for q in (5, 50, 95)}
            for kernel in mon.took}},
        "per_scene_s": {
            seed: {
                **{key: {"n": len(t), **{f"p{q}": float(np.percentile(mon.scale(t), q))
                                         for q in (50, 90)}}
                   for key, t in keys.items()},
                **({"checkpoint_stall": samples.checkpoint_stall(
                    seed, lambda t: mon.scale(t, "numpy"))} if seed in samples.checkpoints else {}),
            }
            for seed, keys in samples.per_scene.items()
        },
    }


def run_library(workload, seed, seconds, shape, tally, src):
    """Each visit sets its scene up afresh, so set-up is timed as often as
    calibration and only one scene is alive at a time."""
    seeds = scene_seeds(workload, seed, shape)
    samples = Samples()
    panel_reports = {}

    with speed.Monitor() as mon:
        imports = import_timings(src)

        def visit(scene_seed):
            scene = build_scene(scene_seed, shape, mon)
            samples.add(scene_seed, "setup_s", [scene.setup])
            report = library_visit(scene, tally, samples, None, mon)
            if scene_seed in shape.panel and report is not None:
                panel_reports.setdefault(scene_seed, report)

        visits = _visit_until(seconds, seeds, shape.min_passes, visit)
    metrics, detail = _timing_metrics(mon, samples, imports, shape.panel, visits)
    reports = [panel_reports[s] for s in shape.panel if s in panel_reports]
    if len(reports) == len(shape.panel):
        for stage in ("coarse", "iterative", "correction"):
            metrics[f"aed_{stage}_px"] = statistics.fmean(r.stage_metrics[stage].aed for r in reports)
        metrics["rmse_correction_px"] = statistics.fmean(
            r.stage_metrics["correction"].rmse for r in reports
        )
    detail["scene_seeds"] = seeds
    return metrics, detail


def run_cli(workload, seed, seconds, shape, tally, src, work_dir):
    """Set-up here is the import plus the ``simulate`` command."""
    seeds = scene_seeds(workload, seed, shape)
    scenes = [CliScene(work_dir, s, shape) for s in seeds]
    samples = Samples()
    accuracy = {}

    with speed.Monitor() as mon:
        imports = import_timings(src)

        def visit(scene):
            times = scene.run_commands(tally, mon)
            if times is None:
                return
            samples.add(scene.seed, "setup_s", [times["simulate"][0]])
            calib = [times[c][0] for c in CALIB_COMMANDS]
            samples.add(scene.seed, "calib_s",
                        [(calib[0][0], calib[-1][1], sum(t[2] for t in calib))])
            state = scene.loop(tally, samples, mon)
            if scene.seed in shape.panel and scene.seed not in accuracy and state is not None:
                accuracy[scene.seed] = scene.accuracy(state.h_best)

        visits = _visit_until(seconds, scenes, shape.min_passes, visit)
    metrics, detail = _timing_metrics(mon, samples, imports, shape.panel, visits)
    if len(accuracy) == len(shape.panel):
        for key in ("aed_coarse_px", "aed_iterative_px", "aed_correction_px", "rmse_correction_px"):
            metrics[key] = statistics.fmean(a[key] for a in accuracy.values())
    detail["scene_seeds"] = seeds
    return metrics, detail


# -- traced run -----------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    summary = tracer.summary()
    counters = tracer.counters

    def s(name):
        return summary.get(name, {}).get("s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def stage(*names):
        return sum(tracer.under(n, "pipeline.run_full")[1] for n in names)

    m = {
        "simulator.generate_s": s("simulator.generate"),
        "simulator.oracle_pairs_s": s("simulator.oracle_pairs"),
        "pipeline.coarse_s": stage("pipeline.coarse_fit"),
        "pipeline.iterative_s": stage("refine.run"),
        "pipeline.correction_s": stage("correction.fit_correction_stream"),
        "pipeline.evaluate_s": stage(
            "pipeline.split_eval_pairs", "pipeline.evaluate", "pipeline.error_histogram"
        ),
        "refine.ingest_frame_s": s("refine.ingest_frame"),
        "refine.ingest_frame.calls": calls("refine.ingest_frame"),
        "refine.checkpoint_recalibrate_s": s("refine.checkpoint_recalibrate"),
        "refine.checkpoints": counters["refine.checkpoints"],
        "refine.checkpoints_adopted": counters["refine.checkpoints_adopted"],
        "refine.accumulated_pairs": counters["refine.accumulated_pairs"],
        "blocks.block_of.calls": calls("blocks.block_of"),
        "blocks.block_of_s": s("blocks.block_of"),
        "blocks.block_sample_s": s("blocks.block_sample"),
        "matching.greedy_match_s": s("matching.greedy_match"),
        "matching.greedy_match.calls": calls("matching.greedy_match"),
        "matching.candidates": counters["matching.candidates"],
        "matching.matched": counters["matching.matched"],
        "correction.fit_correction_stream_s": s("correction.fit_correction_stream"),
        "correction.implicit_pairs_s": s("correction.implicit_pairs"),
        "correction.implicit_pairs.calls": calls("correction.implicit_pairs"),
        "correction.outer_rounds": tracer.under(
            "lsq.damped_least_squares", "correction.fit_correction_stream"
        )[0],
        "correction.pairs_used": counters["correction.pairs_used"],
        "geometry.correspondence_arrays_s": s("geometry.correspondence_arrays"),
        "geometry.correspondence_arrays.calls": calls("geometry.correspondence_arrays"),
        "geometry.correspondence_arrays.pairs": counters["geometry.correspondence_arrays.pairs"],
        "geometry.estimate_homography_s": s("geometry.estimate_homography"),
        "geometry.estimate_homography.calls": calls("geometry.estimate_homography"),
        "geometry.refine_homography_s": s("geometry.refine_homography"),
        "geometry.reprojection_metrics_s": s("geometry.reprojection_metrics"),
        "ransac.ransac_homography_s": s("ransac.ransac_homography"),
        "ransac.ransac_homography.calls": calls("ransac.ransac_homography"),
        "ransac.iterations": counters["ransac.iterations"],
        "ransac.inlier_ratio": (
            counters["ransac.inlier_ratio_sum"] / calls("ransac.ransac_homography")
            if calls("ransac.ransac_homography") else 0.0
        ),
        "lsq.damped_least_squares_s": s("lsq.damped_least_squares"),
        "lsq.damped_least_squares.calls": calls("lsq.damped_least_squares"),
        "lsq.iterations": counters["lsq.iterations"],
        "lsq.converged": counters["lsq.converged"],
        "serialize.write_sim_frames_s": s("serialize.write_sim_frames"),
        "serialize.write_pairs_jsonl_s": s("serialize.write_pairs_jsonl"),
        "serialize.write_ground_truth_s": s("serialize.write_ground_truth"),
        "serialize.read_frames_jsonl_s": s("serialize.read_frames_jsonl"),
        "serialize.read_pairs_jsonl_s": s("serialize.read_pairs_jsonl"),
        "serialize.bytes_written": counters["serialize.bytes_written"],
        "serialize.bytes_read": counters["serialize.bytes_read"],
        "cli.simulate_s": s("cli.cmd_simulate"),
        "cli.calibrate_s": s("cli.cmd_calibrate"),
        "cli.refine_s": s("cli.cmd_refine"),
        "cli.evaluate_s": s("cli.cmd_evaluate"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            v["self_s"] for k, v in summary.items() if k.startswith(module + ".")
        )
    return m


def missing_calls(tracer: Tracer, workload: str) -> list[str]:
    summary = tracer.summary()
    return sorted(n for n in EXPECTED_CALLS[workload] if summary.get(n, {}).get("calls", 0) == 0)


def _cpu_and_wall(fn: Callable) -> tuple[float, float, object]:
    c0, t0 = time.process_time(), time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, time.process_time() - c0, result


def _traced(tracer: Tracer, fn: Callable):
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


def trace_library(workload, seed, shape, tally, tracer):
    """Per scene: one traced set-up and visit, then an untraced ``run_full``
    right after it for the tracing overhead; then the ablation. Times here
    are raw wall seconds: the speed monitor does not run."""
    seeds = scene_seeds(workload, seed, shape)
    samples = Samples()
    mon = speed.Monitor()
    scenes, reports, traced, walls, cpus = [], [], [], [], []
    for scene_seed in seeds:
        scene = _traced(tracer, lambda: build_scene(scene_seed, shape, mon))
        report = _traced(tracer, lambda: library_visit(scene, tally, samples, tracer, mon))
        wall, cpu, untraced = _cpu_and_wall(
            lambda: tally.op(f"untraced run_full scene {scene.seed}", pipeline.run_full,
                             scene.frames, scene.oracle, scene.cfg, scene.gt_pairs)
        )
        scenes.append(scene)
        reports.append(report)
        if report is not None and untraced is not None:
            traced.append(samples.per_scene[scene.seed]["calib_s"][0][2])
            walls.append(wall)
            cpus.append(cpu)
    ablation = [
        ablation_aed(scene, report)
        for scene, report in zip(scenes, reports)
        if scene.seed in shape.panel and report is not None
    ]
    extra = {
        "process.cpu_s": statistics.fmean(cpus),
        "trace.overhead_s": statistics.fmean(traced) - statistics.fmean(walls),
        "aed_correction_from_coarse_px": statistics.fmean(ablation),
    }
    return extra, {"scene_seeds": seeds}


def trace_cli(workload, seed, shape, tally, tracer, work_dir):
    """Per scene: the four commands traced, then again untraced for the
    tracing overhead (their outputs must match byte for byte); then the
    ablation."""
    seeds = scene_seeds(workload, seed, shape)
    scenes = [CliScene(work_dir, s, shape) for s in seeds]
    mon = speed.Monitor()
    traced_calib, walls, cpus, ablation = [], [], [], []
    for scene in scenes:
        traced = _traced(tracer, lambda: scene.run_commands(tally, mon))
        times = scene.run_commands(tally, mon)
        if traced is None or times is None:
            continue
        traced_calib.append(sum(traced[c][0][2] for c in CALIB_COMMANDS))
        walls.append(sum(times[c][0][2] for c in CALIB_COMMANDS))
        cpus.append(sum(times[c][1] for c in CALIB_COMMANDS))
        if scene.seed in shape.panel:
            ablation.append(scene.ablation_aed())
    extra = {
        "process.cpu_s": statistics.fmean(cpus),
        "trace.overhead_s": statistics.fmean(traced_calib) - statistics.fmean(walls),
        "aed_correction_from_coarse_px": statistics.fmean(ablation),
    }
    return extra, {"scene_seeds": seeds}
