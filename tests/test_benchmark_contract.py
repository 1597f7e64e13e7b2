"""The benchmark in ``perfbench/`` wraps calibrefine functions by name and
requires its traced runs to reach some of them (``workloads.EXPECTED_CALLS``).
These tests read its target list, without editing it, so that a rename or a
call path that no longer reaches a required function fails here first."""
import importlib
import json
import math
import types
from dataclasses import replace
from pathlib import Path

import numpy as np

from calibrefine import cli, correction, pipeline, refine, serialize
from calibrefine.blocks import BlockGrid
from calibrefine.cli import main
from calibrefine.geometry import Frame, PairSet
from calibrefine.ransac import RansacConfig
from calibrefine.simulator import SceneConfig, generate, oracle_pairs

from conftest import assert_same_pairs

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    # executed from its source, so no bytecode cache is written beside it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    for module_name, fn_name, _ in load_tracer().TARGETS:
        module = importlib.import_module(f"calibrefine.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def count_calls(monkeypatch, module_name: str, fn_name: str) -> list:
    """Rebind the function in every calibrefine module that holds it, as the
    benchmark's tracer does; returns the list that each call appends its
    result to."""
    original = getattr(importlib.import_module(f"calibrefine.{module_name}"), fn_name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    for holder_name in ["calibrefine"] + [f"calibrefine.{m}" for m in load_tracer().MODULES]:
        holder = importlib.import_module(holder_name)
        for attr, value in list(vars(holder).items()):
            if value is original:
                monkeypatch.setattr(holder, attr, counted)
    return calls


def test_cli_refine_reaches_the_online_loop_functions(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scene": {"n_frames": 30, "n_objects": 8, "seed": 1}}))
    common = ["--config", str(config)]
    sim, coarse = tmp_path / "sim", tmp_path / "coarse.json"
    assert main(common + ["simulate", "--out", str(sim)]) == 0
    assert main(common + [
        "calibrate", "--frames", str(sim / "frames.jsonl"),
        "--oracle", str(sim / "oracle_pairs.jsonl"), "--out", str(coarse),
    ]) == 0

    ingest = count_calls(monkeypatch, "refine", "ingest_frame")
    match = count_calls(monkeypatch, "matching", "greedy_match")
    assert main(common + [
        "refine", "--frames", str(sim / "frames.jsonl"), "--matrix", str(coarse),
        "--mode", "iterative", "--out", str(tmp_path / "refined.json"),
    ]) == 0
    assert ingest and match


def test_cli_flow_reaches_every_traced_serialize_and_cli_function(tmp_path, monkeypatch):
    # The benchmark's traced cli run fails when a wrapped file or command
    # function records no call, e.g. when ``write_sim_frames`` stops writing
    # through ``write_frames_jsonl``.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scene": {"n_frames": 30, "n_objects": 8, "seed": 1}}))
    calls = {
        f"{module_name}.{fn_name}": count_calls(monkeypatch, module_name, fn_name)
        for module_name, fn_name, _ in load_tracer().TARGETS
        if module_name in ("serialize", "cli")
    }
    cli = importlib.import_module("calibrefine.cli")  # its ``main`` is now the counted one
    common = ["--config", str(config)]
    sim, coarse, refined = tmp_path / "sim", tmp_path / "coarse.json", tmp_path / "refined.json"
    assert cli.main(common + ["simulate", "--out", str(sim)]) == 0
    assert cli.main(common + [
        "calibrate", "--frames", str(sim / "frames.jsonl"),
        "--oracle", str(sim / "oracle_pairs.jsonl"), "--out", str(coarse),
    ]) == 0
    assert cli.main(common + [
        "refine", "--frames", str(sim / "frames.jsonl"), "--matrix", str(coarse),
        "--mode", "both", "--out", str(refined),
    ]) == 0
    assert cli.main([
        "evaluate", "--matrix", str(refined), "--pairs", str(sim / "gt_pairs.jsonl"),
        "--out", str(tmp_path / "report.json"),
    ]) == 0
    assert {"serialize.write_frames_jsonl", "cli.main"} <= calls.keys()
    assert [name for name, made in calls.items() if not made] == []


SIMULATOR_FUNCTIONS = ("generate", "oracle_pairs", "random_homography")


def test_library_generate_and_cli_simulate_reach_the_wrapped_simulator_functions(tmp_path, monkeypatch):
    # Every traced workload requires all three; ``generate`` must reach
    # ``random_homography`` through the module global, once per scene.
    calls = {name: count_calls(monkeypatch, "simulator", name) for name in SIMULATOR_FUNCTIONS}
    simulator = importlib.import_module("calibrefine.simulator")  # its names are now the counted ones
    simulator.generate(SceneConfig(seed=4, n_frames=20, n_objects=6))
    assert {name: len(made) for name, made in calls.items()} == {
        "generate": 1, "oracle_pairs": 0, "random_homography": 1,
    }

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scene": {"n_frames": 30, "n_objects": 8}, "seeds": [1, 2]}))
    assert main(["--config", str(config), "simulate", "--out", str(tmp_path / "sim")]) == 0
    assert {name: len(made) for name, made in calls.items()} == {
        "generate": 3, "oracle_pairs": 2 * 30, "random_homography": 3,
    }


BLOCK_FUNCTIONS = ("block_of", "block_sample", "half_block_diagonal")


def test_run_full_reaches_the_wrapped_block_functions(monkeypatch):
    # The benchmark's traced stream and dense runs require all three.
    scene = SceneConfig(seed=2, n_frames=60, n_objects=8)
    sim_frames, gt = generate(scene)
    by_id = {sf.frame.frame_id: sf for sf in sim_frames}
    cfg = pipeline.PipelineConfig(
        grid=BlockGrid(scene.image_width, scene.image_height),
        ransac=RansacConfig(seed=2),
        refine=refine.RefineConfig(recalib_interval=20),
    )
    calls = {name: count_calls(monkeypatch, "blocks", name) for name in BLOCK_FUNCTIONS}
    pipeline.run_full(
        [sf.frame for sf in sim_frames],
        lambda frame: oracle_pairs(by_id[frame.frame_id], gt, scene.oracle_error_rate, scene.seed),
        cfg,
        gt.correspondences(),
    )
    assert [name for name, made in calls.items() if not made] == []


CORRECTION_FUNCTIONS = ("fit_correction_stream", "reprojection_loss", "implicit_pairs")


def assert_correction_reached(calls: dict) -> None:
    """One fit that paired through the module global ``implicit_pairs``:
    once for its first pairing and once per accepted round after it."""
    (fit,) = calls["fit_correction_stream"]
    assert len(fit.loss_trace) >= 2
    assert len(calls["implicit_pairs"]) >= len(fit.loss_trace)
    assert calls["reprojection_loss"]


def test_run_full_and_cli_refine_reach_the_wrapped_correction_functions(tmp_path, monkeypatch):
    # Every traced workload requires all three; a fit that pairs through a
    # private function leaves ``implicit_pairs`` with no call.
    calls = {name: count_calls(monkeypatch, "correction", name) for name in CORRECTION_FUNCTIONS}
    scene = SceneConfig(seed=2, n_frames=60, n_objects=8)
    sim_frames, gt = generate(scene)
    by_id = {sf.frame.frame_id: sf for sf in sim_frames}
    cfg = pipeline.PipelineConfig(
        grid=BlockGrid(scene.image_width, scene.image_height),
        ransac=RansacConfig(seed=2),
        refine=refine.RefineConfig(recalib_interval=20),
    )
    pipeline.run_full(
        [sf.frame for sf in sim_frames],
        lambda frame: oracle_pairs(by_id[frame.frame_id], gt, scene.oracle_error_rate, scene.seed),
        cfg,
        gt.correspondences(),
    )
    assert_correction_reached(calls)

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scene": {"n_frames": 30, "n_objects": 8, "seed": 1}}))
    common = ["--config", str(config)]
    sim, coarse = tmp_path / "sim", tmp_path / "coarse.json"
    assert main(common + ["simulate", "--out", str(sim)]) == 0
    assert main(common + [
        "calibrate", "--frames", str(sim / "frames.jsonl"),
        "--oracle", str(sim / "oracle_pairs.jsonl"), "--out", str(coarse),
    ]) == 0
    for made in calls.values():
        made.clear()
    assert main(common + [
        "refine", "--frames", str(sim / "frames.jsonl"), "--matrix", str(coarse),
        "--mode", "both", "--out", str(tmp_path / "refined.json"),
    ]) == 0
    assert_correction_reached(calls)


def test_cli_calibrate_and_iterative_refine_reach_the_wrapped_block_functions(tmp_path, monkeypatch):
    # The benchmark's traced cli run requires all three.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scene": {"n_frames": 30, "n_objects": 8, "seed": 1}}))
    common = ["--config", str(config)]
    sim, coarse = tmp_path / "sim", tmp_path / "coarse.json"
    assert main(common + ["simulate", "--out", str(sim)]) == 0
    calls = {name: count_calls(monkeypatch, "blocks", name) for name in BLOCK_FUNCTIONS}
    assert main(common + [
        "calibrate", "--frames", str(sim / "frames.jsonl"),
        "--oracle", str(sim / "oracle_pairs.jsonl"), "--out", str(coarse),
    ]) == 0
    assert main(common + [
        "refine", "--frames", str(sim / "frames.jsonl"), "--matrix", str(coarse),
        "--mode", "iterative", "--out", str(tmp_path / "refined.json"),
    ]) == 0
    assert [name for name, made in calls.items() if not made] == []


def same_report(a, b) -> bool:
    return (a.aed, a.rmse, a.n) == (b.aed, b.rmse, b.n) and a.per_pair.tobytes() == b.per_pair.tobytes()


def test_library_call_shapes_of_the_benchmark_agree(tmp_path):
    # The stream and dense workloads feed ``coarse_fit`` the list made by
    # iterating each frame's oracle pairs, score files read back with
    # ``read_pairs_jsonl``, and require the online loop, run frame by frame,
    # to end on ``run_full``'s iterative matrix.
    scene = SceneConfig(seed=5, n_frames=130, n_objects=10)
    sim_frames, gt = generate(scene)
    by_id = {sf.frame.frame_id: sf for sf in sim_frames}

    def oracle(frame):
        return oracle_pairs(by_id[frame.frame_id], gt, scene.oracle_error_rate, scene.seed)

    frames = [sf.frame for sf in sim_frames]
    cfg = pipeline.PipelineConfig(
        grid=BlockGrid(scene.image_width, scene.image_height),
        ransac=RansacConfig(seed=5),
        refine=refine.RefineConfig(recalib_interval=40),
    )
    per_frame = [oracle(f) for f in frames[: cfg.coarse_frames]]
    listed, listed_inliers = pipeline.coarse_fit(
        [p for pairs in per_frame for p in pairs], cfg.grid, cfg.ransac, cfg.skip_parity
    )
    joined, joined_inliers = pipeline.coarse_fit(
        PairSet.concat(per_frame), cfg.grid, cfg.ransac, cfg.skip_parity
    )
    assert listed.h.m.tobytes() == joined.h.m.tobytes()
    assert_same_pairs(listed_inliers, joined_inliers)
    assert len(listed_inliers) >= 4

    report = pipeline.run_full(frames, oracle, cfg, gt.correspondences())
    assert report.h_coarse.m.tobytes() == listed.h.m.tobytes()
    refine_cfg = replace(cfg.refine, grid=cfg.grid, ransac=cfg.ransac, skip_parity=cfg.skip_parity)
    state = refine.CalibrationState.initial(listed.h, tuple(listed_inliers))
    for frame in frames:
        state = refine.ingest_frame(state, frame, refine_cfg)
        if state.frames_seen % refine_cfg.recalib_interval == 0:
            state = refine.checkpoint_recalibrate(state, refine_cfg)
    state = refine.checkpoint_recalibrate(state, refine_cfg)  # the partial last window
    assert state.h_best.m.tobytes() == report.h_iterative.m.tobytes()
    assert state.checkpoints == report.checkpoints

    path = tmp_path / "gt_pairs.jsonl"
    serialize.write_pairs_jsonl(path, gt.correspondences())
    for h in (report.h_coarse, report.h_iterative, report.h_star):
        assert same_report(
            pipeline.evaluate(h, serialize.read_pairs_jsonl(path)),
            pipeline.evaluate(h, gt.correspondences()),
        )


def test_the_benchmark_seeding_idiom_gives_run_fulls_matrices():
    # The stream and dense workloads seed the online loop from rows: the
    # three lines below are copied from ``build_scene``, which iterates each
    # frame's oracle pair set into one list of rows and keeps the inliers as
    # a tuple of rows. Both row forms go back through ``PairSet.of``.
    sim_frames, gt = generate(SceneConfig(seed=3, n_frames=120, n_objects=10))
    by_id = {sf.frame.frame_id: sf for sf in sim_frames}

    def oracle(frame):
        return oracle_pairs(by_id[frame.frame_id], gt, 0.02, 3)

    scene = types.SimpleNamespace(frames=[sf.frame for sf in sim_frames], h0=None, seed_pairs=())
    cfg = pipeline.PipelineConfig(
        grid=BlockGrid(1920, 1080),
        ransac=RansacConfig(seed=3),
        refine=refine.RefineConfig(recalib_interval=25),
    )
    coarse_input = [p for f in scene.frames[: cfg.coarse_frames] for p in oracle(f)]
    fit, inliers = pipeline.coarse_fit(coarse_input, cfg.grid, cfg.ransac, cfg.skip_parity)
    scene.h0, scene.seed_pairs = fit.h, tuple(inliers)

    report = pipeline.run_full(scene.frames, oracle, cfg, gt.correspondences())
    assert scene.h0.m.tobytes() == report.h_coarse.m.tobytes()
    assert_same_pairs(refine.CalibrationState.initial(scene.h0, scene.seed_pairs).accumulated, inliers)
    refine_cfg = replace(cfg.refine, grid=cfg.grid, ransac=cfg.ransac, skip_parity=cfg.skip_parity)
    state = refine.run(scene.frames, scene.h0, refine_cfg, scene.seed_pairs)
    assert state.h_best.m.tobytes() == report.h_iterative.m.tobytes()
    assert state.checkpoints == report.checkpoints


def test_the_cli_loop_idiom_reproduces_the_refine_outputs(tmp_path):
    # The cli workload reads the simulated frames back with
    # ``read_frames_jsonl``, feeds that result one ``Frame`` at a time to
    # ``ingest_frame`` and ``checkpoint_recalibrate`` on ``refine.run``'s
    # schedule and requires the ``refine`` command's checkpoint log; its
    # ablation fits the correction on the same result. The stream and dense
    # workloads hand the library lists of frames instead.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scene": {"n_frames": 130, "n_objects": 10}}))
    sim, out = tmp_path / "sim", tmp_path / "out"
    common = ["--config", str(config), "--seed", "6"]
    refine_argv = common + [
        "refine", "--frames", str(sim / "frames.jsonl"), "--matrix", str(out / "coarse.json"),
        "--mode", "both", "--out", str(out / "refined.json"),
    ]
    out.mkdir()
    assert main(common + ["simulate", "--out", str(sim)]) == 0
    assert main(common + [
        "calibrate", "--frames", str(sim / "frames.jsonl"),
        "--oracle", str(sim / "oracle_pairs.jsonl"), "--out", str(out / "coarse.json"),
    ]) == 0
    assert main(refine_argv) == 0
    run_cfg = cli.apply_overrides(cli.load_config(str(config)), cli.build_parser().parse_args(refine_argv))
    cfg = run_cfg.refine
    frames = serialize.read_frames_jsonl(sim / "frames.jsonl")
    h0 = serialize.load_homography(out / "coarse.json")

    state = refine.CalibrationState.initial(h0)
    for frame in frames:
        assert type(frame) is Frame
        state = refine.ingest_frame(state, frame, cfg)
        if state.frames_seen % cfg.recalib_interval == 0:
            state = refine.checkpoint_recalibrate(state, cfg)
    if state.frames_seen % cfg.recalib_interval:
        state = refine.checkpoint_recalibrate(state, cfg)
    logged = serialize.read_checkpoints_csv(out / "refined_checkpoints.csv")
    assert len(logged) == len(state.checkpoints) == 2
    for r, c in zip(logged, state.checkpoints):
        assert (r.frame_id, r.updated) == (c.frame_id, c.updated)
        for a, b in ((r.err_new, c.err_new), (r.err_best, c.err_best)):
            assert a == b or (math.isnan(a) and math.isnan(b))

    fit = correction.fit_correction_stream(state.h_best, frames, run_cfg.correction, lenient=True)
    traced = json.loads((out / "refined_loss_trace.json").read_text())
    assert serialize.homography_to_dict(fit.h_star)["h"] == traced["h_star"]
    assert (list(fit.loss_trace), fit.pairs_used) == (traced["loss_trace"], traced["pairs_used"])
    ablation = correction.fit_correction_stream(h0, frames, run_cfg.correction, lenient=True)
    listed = correction.fit_correction_stream(h0, list(frames), run_cfg.correction, lenient=True)
    assert ablation.h_star.m.tobytes() == listed.h_star.m.tobytes()
    assert (ablation.loss_trace, ablation.pairs_used) == (listed.loss_trace, listed.pairs_used)


def test_tracer_counter_hooks_read_the_library_results(monkeypatch):
    # The traced runs' counters read fields of what the wrapped functions take
    # and return: a type change there fails here instead of in the benchmark.
    # Coarse fit, seeds and online loop are set up as the stream workload does.
    scene = SceneConfig(seed=2, n_frames=150, n_objects=10)
    sim_frames, gt = generate(scene)
    by_id = {sf.frame.frame_id: sf for sf in sim_frames}

    def oracle(frame):
        return oracle_pairs(by_id[frame.frame_id], gt, scene.oracle_error_rate, scene.seed)

    frames = [sf.frame for sf in sim_frames]
    cfg = pipeline.PipelineConfig(
        grid=BlockGrid(scene.image_width, scene.image_height),
        ransac=RansacConfig(seed=2),
        refine=refine.RefineConfig(recalib_interval=40),
    )
    refine_cfg = replace(cfg.refine, grid=cfg.grid, ransac=cfg.ransac, skip_parity=cfg.skip_parity)
    fits = count_calls(monkeypatch, "ransac", "ransac_homography")
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        report = pipeline.run_full(frames, oracle, cfg, gt.correspondences())
        coarse_input = [p for f in frames[: cfg.coarse_frames] for p in oracle(f)]
        fit, inliers = pipeline.coarse_fit(coarse_input, cfg.grid, cfg.ransac, cfg.skip_parity)
        state = refine.CalibrationState.initial(fit.h, tuple(inliers))
        for frame in frames:
            state = refine.ingest_frame(state, frame, refine_cfg)
            if state.frames_seen % refine_cfg.recalib_interval == 0:
                state = refine.checkpoint_recalibrate(state, refine_cfg)
        state = refine.checkpoint_recalibrate(state, refine_cfg)  # the partial last window
    finally:
        tracer.uninstall()

    counters = tracer.counters
    records = report.checkpoints + state.checkpoints
    assert state.checkpoints == report.checkpoints  # the loop replays run_full's
    assert counters["refine.accumulated_pairs"] == len(state.accumulated) > len(inliers)
    assert counters["refine.checkpoints"] == len(records) == 8
    assert counters["refine.checkpoints_adopted"] == sum(r.updated for r in records) > 0
    assert len(fits) >= 3  # two coarse fits and at least one checkpoint fit
    assert counters["ransac.iterations"] == sum(f.iterations_run for f in fits)
    # on this path only ``evaluate`` splits pairs into arrays, once per stage
    assert counters["geometry.correspondence_arrays.pairs"] == 3 * report.eval_pair_count
