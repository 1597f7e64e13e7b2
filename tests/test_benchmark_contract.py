"""The benchmark in ``perfbench/`` wraps calibrefine functions by name and
requires its traced runs to reach some of them (``workloads.EXPECTED_CALLS``).
These tests read its target list, without editing it, so that a rename or a
call path that no longer reaches a required function fails here first."""
import importlib
import json
import types
from pathlib import Path

from calibrefine.cli import main

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
    benchmark's tracer does; returns the list that each call appends to."""
    original = getattr(importlib.import_module(f"calibrefine.{module_name}"), fn_name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

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
