import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from calibrefine.cli import load_config, main
from calibrefine import cli, serialize
from calibrefine.blocks import BlockGrid
from calibrefine.correction import CorrectionConfig
from calibrefine.geometry import Homography, PairSet
from calibrefine.matching import MatchGate
from calibrefine.pipeline import evaluate
from calibrefine.ransac import RansacConfig
from calibrefine.refine import RefineConfig
from calibrefine.simulator import SceneConfig


def write_config(path: Path, **scene_overrides) -> Path:
    cfg = {
        "scene": {"n_frames": 40, "n_objects": 8, "seed": 3, **scene_overrides},
        "ransac": {"seed": 3},
        "refine": {"recalib_interval": 20},
    }
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def sim_dir(tmp_path):
    cfg = write_config(tmp_path / "config.json")
    out = tmp_path / "sim"
    assert main(["--config", str(cfg), "simulate", "--out", str(out)]) == 0
    return cfg, out


class TestSimulate:
    def test_writes_expected_files(self, tmp_path, sim_dir, capsys):
        _, out = sim_dir
        for name in ("frames.jsonl", "oracle_pairs.jsonl", "ground_truth.json", "gt_pairs.jsonl"):
            assert (out / name).exists()
        frames = serialize.read_frames_jsonl(out / "frames.jsonl")
        assert len(frames) == 40

    def test_invalid_n_frames_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scene": {"n_frames": 0}}))
        code = main(["--config", str(cfg), "simulate", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "n_frames" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scene": {"frames": 10}}))
        code = main(["--config", str(cfg), "simulate", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "frames" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "simulate", "--out", str(out_a)]) == 0
        assert main(["--config", str(cfg), "simulate", "--out", str(out_b)]) == 0
        for name in ("frames.jsonl", "oracle_pairs.jsonl", "ground_truth.json", "gt_pairs.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # sha256 of the files ``simulate`` writes for two 60-frame scenes (recorded
    # with numpy 2.4 on x86-64). Unlike the rerun test above, these catch a
    # change of the scenes between commits: a reordered random draw or a
    # changed writer. Update them only when the scenes are meant to change.
    SCENE_DIGESTS = {
        0: {
            "frames.jsonl": "bc19b58c72927313ea143a888303176c0ba3930b827bdd234efdf616aa78491a",
            "oracle_pairs.jsonl": "b8098ef9892cc6867dbc4417650efafa8f61d42efc8184f27924a9e233fc7e23",
            "gt_pairs.jsonl": "e6e3460d389fee1a60c8a75c87fd093bc55987ba46def9f40f7d36fec45ffe76",
        },
        3: {
            "frames.jsonl": "a4df6d12d31e336b3e89f04661e512c1025006003dd7cb80ff42762c17d7521a",
            "oracle_pairs.jsonl": "da2f41086c510ee0c6517d1516952ace98609f99f788965235249ac4556e1513",
            "gt_pairs.jsonl": "51a56550e0a93ad1906606362d91e7576d110a40d25e2367c9c0e4bd1974b5fa",
        },
    }

    @pytest.mark.parametrize("seed", sorted(SCENE_DIGESTS))
    def test_scene_files_match_recorded_digests(self, tmp_path, seed):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scene": {"n_frames": 60}}))
        out = tmp_path / "sim"
        assert main(["--config", str(cfg), "--seed", str(seed), "simulate", "--out", str(out)]) == 0
        for name, digest in self.SCENE_DIGESTS[seed].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_seed_sweep_writes_subdirs(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps({"scene": {"n_frames": 10, "n_objects": 4}, "seeds": [1, 2]})
        )
        out = tmp_path / "sweep"
        assert main(["--config", str(cfg), "simulate", "--out", str(out)]) == 0
        assert (out / "seed_1" / "frames.jsonl").exists()
        assert (out / "seed_2" / "frames.jsonl").exists()

    def test_parallel_sweep_matches_serial(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps({"scene": {"n_frames": 10, "n_objects": 4}, "seeds": [1, 2]})
        )
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["--config", str(cfg), "simulate", "--out", str(serial)]) == 0
        assert main(["--config", str(cfg), "--jobs", "2", "simulate", "--out", str(parallel)]) == 0
        for seed in (1, 2):
            a = (serial / f"seed_{seed}" / "frames.jsonl").read_bytes()
            b = (parallel / f"seed_{seed}" / "frames.jsonl").read_bytes()
            assert a == b

    def test_workers_capped_at_the_number_of_seeds(self, tmp_path, monkeypatch):
        workers = []

        class InProcessPool:
            """Records ``max_workers`` and maps in this process: no process is started."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps({"scene": {"n_frames": 10, "n_objects": 4}, "seeds": [1, 2]})
        )
        out = tmp_path / "sweep"
        assert main(["--config", str(cfg), "--jobs", "64", "simulate", "--out", str(out)]) == 0
        assert workers == [2]
        assert (out / "seed_2" / "frames.jsonl").exists()


class TestCalibrate:
    def test_calibrate_and_evaluate_flow(self, tmp_path, sim_dir, capsys):
        cfg, out = sim_dir
        matrix = tmp_path / "coarse.json"
        code = main(
            [
                "--config",
                str(cfg),
                "calibrate",
                "--frames",
                str(out / "frames.jsonl"),
                "--oracle",
                str(out / "oracle_pairs.jsonl"),
                "--out",
                str(matrix),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "aed=" in printed and "rmse=" in printed
        h = serialize.load_homography(matrix)
        h_true = serialize.load_homography(out / "ground_truth.json")
        assert np.max(np.abs(h.m - h_true.m)) < 0.05

    def test_empty_oracle_exits_2(self, tmp_path, sim_dir, capsys):
        cfg, out = sim_dir
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(
            [
                "--config",
                str(cfg),
                "calibrate",
                "--frames",
                str(out / "frames.jsonl"),
                "--oracle",
                str(empty),
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 2

    def test_missing_file_exits_3(self, tmp_path, sim_dir):
        cfg, out = sim_dir
        code = main(
            [
                "--config",
                str(cfg),
                "calibrate",
                "--frames",
                str(tmp_path / "nope.jsonl"),
                "--oracle",
                str(out / "oracle_pairs.jsonl"),
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 3

    def test_clustered_pairs_exit_4(self, tmp_path, sim_dir):
        cfg, out = sim_dir
        frames = serialize.read_frames_jsonl(out / "frames.jsonl")
        pairs = serialize.read_pairs_jsonl(out / "oracle_pairs.jsonl")
        # squeeze every camera endpoint into one block: sampling leaves < 4 pairs
        step = 5.0 + 0.01 * np.arange(len(pairs))
        clustered = PairSet(pairs.xy, np.column_stack([step, step]), pairs.frame_ids, pairs.source)
        bad = tmp_path / "clustered.jsonl"
        serialize.write_pairs_jsonl(bad, clustered)
        code = main(
            [
                "--config",
                str(cfg),
                "calibrate",
                "--frames",
                str(out / "frames.jsonl"),
                "--oracle",
                str(bad),
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 4
        assert frames  # inputs themselves were fine

    @pytest.mark.parametrize(
        "flags, grid, named",
        [(["--blocks", "2"], {}, "grid 2x2 keeps 2 blocks"), ([], {"blocks_x": 1, "blocks_y": 4}, "grid 1x4 keeps 2 blocks")],
    )
    def test_grid_keeping_fewer_than_4_blocks_exits_2(self, tmp_path, sim_dir, capsys, flags, grid, named):
        cfg, out = sim_dir
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({**json.loads(cfg.read_text()), "grid": grid}))
        common = ["--config", str(config), *flags]
        matrix = tmp_path / "m.json"
        code = main(common + [
            "calibrate", "--frames", str(out / "frames.jsonl"),
            "--oracle", str(out / "oracle_pairs.jsonl"), "--out", str(matrix),
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not matrix.exists()
        # the online loop holds up to 3 pairs per block, so refine takes the grid
        assert main(common + [
            "refine", "--frames", str(out / "frames.jsonl"), "--matrix", str(out / "ground_truth.json"),
            "--mode", "iterative", "--out", str(tmp_path / "refined.json"),
        ]) == 0

    def test_pair_of_unknown_frame_exits_2(self, tmp_path, sim_dir, capsys):
        cfg, out = sim_dir
        # frames.jsonl holds frames 0-39: ids 45 and then 41 are unknown
        pairs = serialize.read_pairs_jsonl(out / "oracle_pairs.jsonl")
        frame_ids = pairs.frame_ids.copy()
        frame_ids[[3, 7]] = [45, 41]
        bad = tmp_path / "unknown.jsonl"
        serialize.write_pairs_jsonl(bad, PairSet(pairs.xy, pairs.uv, frame_ids, pairs.source))
        code = main(
            [
                "--config", str(cfg),
                "calibrate",
                "--frames", str(out / "frames.jsonl"),
                "--oracle", str(bad),
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: oracle pair references unknown frame_id 45\n"
        assert not (tmp_path / "m.json").exists()

    def test_malformed_pairs_exit_2(self, tmp_path, sim_dir):
        cfg, out = sim_dir
        bad = tmp_path / "bad_pairs.jsonl"
        bad.write_text(json.dumps({"frame_id": 0, "lidar": [1.0], "pixel": [2.0, 3.0]}) + "\n")
        code = main(
            [
                "--config",
                str(cfg),
                "calibrate",
                "--frames",
                str(out / "frames.jsonl"),
                "--oracle",
                str(bad),
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 2


class TestRefine:
    def run_calibrate(self, cfg, out, tmp_path):
        matrix = tmp_path / "coarse.json"
        assert (
            main(
                [
                    "--config",
                    str(cfg),
                    "calibrate",
                    "--frames",
                    str(out / "frames.jsonl"),
                    "--oracle",
                    str(out / "oracle_pairs.jsonl"),
                    "--out",
                    str(matrix),
                ]
            )
            == 0
        )
        return matrix

    @pytest.mark.parametrize("mode", ["iterative", "correction", "both"])
    def test_modes_write_their_sidecars(self, tmp_path, sim_dir, mode):
        cfg, out = sim_dir
        matrix = self.run_calibrate(cfg, out, tmp_path)
        refined = tmp_path / f"refined_{mode}.json"
        code = main(
            [
                "--config",
                str(cfg),
                "refine",
                "--frames",
                str(out / "frames.jsonl"),
                "--matrix",
                str(matrix),
                "--mode",
                mode,
                "--out",
                str(refined),
            ]
        )
        assert code == 0
        assert refined.exists()
        if mode in ("iterative", "both"):
            assert refined.with_name(refined.stem + "_checkpoints.csv").exists()
        if mode in ("correction", "both"):
            assert refined.with_name(refined.stem + "_loss_trace.json").exists()

    def test_lenient_flag_keeps_matrix_when_no_pairs(self, tmp_path, sim_dir):
        cfg, out = sim_dir
        # a matrix translated far off-screen: nothing matches within the gate
        h_true = serialize.load_homography(out / "ground_truth.json")
        from calibrefine.geometry import compose
        from conftest import translation_homography

        hopeless = compose(translation_homography(3000.0, 3000.0), h_true)
        matrix = tmp_path / "hopeless.json"
        serialize.save_homography(matrix, hopeless)
        args = [
            "--config", str(cfg),
            "refine",
            "--frames", str(out / "frames.jsonl"),
            "--matrix", str(matrix),
            "--mode", "correction",
            "--out", str(tmp_path / "r.json"),
        ]
        assert main(args) == 4  # strict: refinement not applicable
        assert main(args + ["--lenient"]) == 0
        kept = serialize.load_homography(tmp_path / "r.json")
        assert kept == hopeless

    def test_refinement_improves_held_out(self, tmp_path, sim_dir):
        cfg, out = sim_dir
        matrix = self.run_calibrate(cfg, out, tmp_path)
        refined = tmp_path / "refined.json"
        assert (
            main(
                [
                    "--config",
                    str(cfg),
                    "refine",
                    "--frames",
                    str(out / "frames.jsonl"),
                    "--matrix",
                    str(matrix),
                    "--mode",
                    "both",
                    "--out",
                    str(refined),
                ]
            )
            == 0
        )
        gt_pairs = serialize.read_pairs_jsonl(out / "gt_pairs.jsonl")
        before = evaluate(serialize.load_homography(matrix), gt_pairs).aed
        after = evaluate(serialize.load_homography(refined), gt_pairs).aed
        assert after <= before + 1e-9


class TestEvaluate:
    def test_zero_residual_pairs(self, tmp_path, sim_dir, capsys):
        cfg, out = sim_dir
        h_true = serialize.load_homography(out / "ground_truth.json")
        matrix = tmp_path / "true.json"
        serialize.save_homography(matrix, h_true)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--matrix",
                str(matrix),
                "--pairs",
                str(out / "gt_pairs.jsonl"),
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["aed"] < 1e-9
        assert report_path.with_name(report_path.stem + "_hist.csv").exists()

    def test_ground_truth_file_is_a_matrix_that_scores_zero(self, tmp_path, sim_dir):
        _, out = sim_dir
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--matrix", str(out / "ground_truth.json"),
                "--pairs", str(out / "gt_pairs.jsonl"),
                "--out", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["n"] > 0
        assert report["aed"] == 0.0

    def test_empty_pairs_exit_2(self, tmp_path):
        matrix = tmp_path / "m.json"
        serialize.save_homography(matrix, Homography.identity())
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(
            ["evaluate", "--matrix", str(matrix), "--pairs", str(empty), "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_cli_report_matches_library_bitwise(self, tmp_path, sim_dir):
        cfg, out = sim_dir
        h_true = serialize.load_homography(out / "ground_truth.json")
        matrix = tmp_path / "m.json"
        serialize.save_homography(matrix, h_true)
        report_path = tmp_path / "report.json"
        main(
            [
                "evaluate",
                "--matrix",
                str(matrix),
                "--pairs",
                str(out / "oracle_pairs.jsonl"),
                "--out",
                str(report_path),
            ]
        )
        pairs = serialize.read_pairs_jsonl(out / "oracle_pairs.jsonl")
        expected = evaluate(serialize.load_homography(matrix), pairs)
        lib_path = tmp_path / "lib_report.json"
        serialize.write_residual_report(lib_path, expected)
        assert lib_path.read_bytes() == report_path.read_bytes()


class TestInputValidation:
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("refine", "recalib_interval", 2.5),
            ("refine", "recalib_interval", True),
            ("ransac", "max_iterations", 2.5),
            ("correction", "max_outer_rounds", 2.5),
        ],
    )
    def test_non_integer_config_value_exits_2(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code = main(["--config", str(cfg), "simulate", "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{section}.{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("refine", "gate", True),
            ("refine", "gate", "40"),
            ("correction", "gate", "40"),
            ("correction", "init_damping", True),
            ("scene", "pixel_noise_sigma", False),
            ("ransac", "inlier_threshold", "3"),
        ],
    )
    def test_non_number_float_config_value_exits_2(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code = main(["--config", str(cfg), "simulate", "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{section}.{key} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, text, message",
        [
            ("max_iterations", "0", "max_iterations must be >= 1, got 0"),
            ("max_iterations", "-3", "max_iterations must be >= 1, got -3"),
            ("init_damping", "-1.0", "init_damping must be finite and > 0, got -1.0"),
            ("init_damping", "0", "init_damping must be finite and > 0, got 0"),
            ("init_damping", "1e400", "init_damping must be finite and > 0, got inf"),
            ("gate", "1e400", "max_distance must be finite and > 0, got inf"),
        ],
    )
    def test_out_of_range_correction_value_exits_2(self, tmp_path, sim_dir, capsys, key, text, message):
        # JSON reads 1e400 as inf. Each value used to run the correction and
        # write a matrix: no solver iteration, a damping that never backs
        # off, or no gate at all.
        _, out = sim_dir
        cfg = tmp_path / "bad.json"
        cfg.write_text(f'{{"correction": {{"{key}": {text}}}}}')
        refined = tmp_path / "r.json"
        code = main(
            [
                "--config", str(cfg),
                "refine",
                "--frames", str(out / "frames.jsonl"),
                "--matrix", str(out / "ground_truth.json"),
                "--mode", "correction",
                "--out", str(refined),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not refined.exists()

    @pytest.mark.parametrize(
        "scene, message",
        [
            (
                '"max_projective": 1.0',
                "error: invalid input: no homography in 20000 trials that puts the central 60 m square "
                "in the 1920x1080 image is conditioned below 10000",
            ),
            (
                '"image_width": 40, "image_height": 30',
                "error: invalid input: no homography in 20000 trials puts the central 60 m square "
                "in the 40x30 image",
            ),
            ('"max_projective": 1e400', "max_projective must be finite and >= 0, got inf"),
            ('"pixel_noise_sigma": 1e400', "pixel_noise_sigma must be finite and >= 0, got inf"),
        ],
        ids=["projective-1", "image-40x30", "projective-inf", "pixel-noise-inf"],
    )
    def test_unsatisfiable_scene_exits_2(self, tmp_path, capsys, scene, message):
        # The first two used to end in a RuntimeError traceback after 20000
        # homography trials, 1e400 (inf in JSON) as max_projective in an
        # OverflowError, and as pixel_noise_sigma in a message that named
        # camera_centers.
        cfg = tmp_path / "bad.json"
        cfg.write_text(f'{{"scene": {{"n_frames": 5, {scene}}}}}')
        out = tmp_path / "x"
        code = main(["--config", str(cfg), "simulate", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "frames.jsonl").exists()

    def test_integer_values_load_for_float_fields(self, tmp_path):
        cfg = tmp_path / "ints.json"
        cfg.write_text(json.dumps({"refine": {"gate": 25}, "ransac": {"inlier_threshold": 2}}))
        loaded = load_config(cfg)
        assert loaded.refine.gate == MatchGate(25.0)
        assert loaded.refine.ransac.inlier_threshold == 2

    @pytest.mark.parametrize(
        "section, key, value",
        [
            pytest.param("refine", "grid", {"blocks_x": 4}, id="grid-value0"),
            pytest.param("refine", "ransac", {"seed": 1}, id="ransac-value1"),
            pytest.param("refine", "skip_parity", False, id="skip_parity-False"),
            # the image size is the scene's; the grid section may not restate it
            pytest.param("grid", "image_width", 400, id="grid-image_width"),
            pytest.param("grid", "image_height", 300, id="grid-image_height"),
        ],
    )
    def test_refine_section_rejects_keys_of_other_sections(
        self, tmp_path, capsys, section, key, value
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code = main(["--config", str(cfg), "simulate", "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"unknown key '{key}' in section '{section}'" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", jobs, "simulate", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_out_of_order_frames_file_exits_2(self, tmp_path, sim_dir, capsys):
        cfg, out = sim_dir
        frames = serialize.read_frames_jsonl(out / "frames.jsonl")
        shuffled = tmp_path / "shuffled.jsonl"
        serialize.write_frames_jsonl(shuffled, [frames[0], frames[4], frames[3]] + frames[5:])
        matrix = out / "ground_truth.json"
        code = main(
            [
                "--config", str(cfg),
                "refine",
                "--frames", str(shuffled),
                "--matrix", str(matrix),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "frame_id 3 after frame_id 4" in capsys.readouterr().err

    def test_singular_matrix_file_exits_2(self, tmp_path, sim_dir, capsys):
        _, out = sim_dir
        matrix = tmp_path / "singular.json"
        matrix.write_text(json.dumps({"h": [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]}))
        code = main(
            [
                "evaluate",
                "--matrix", str(matrix),
                "--pairs", str(out / "gt_pairs.jsonl"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            {"frame_id": 0},
            {"frame_id": 0, "lidar": 5, "camera": []},
            {"frame_id": 0, "lidar": [[1.0, 2.0, 3.0]], "camera": []},
            {"frame_id": 0, "lidar": [], "camera": [["a", 2.0]]},
            {"frame_id": 0, "lidar": [[float("nan"), 2.0]], "camera": []},
            {"frame_id": 0, "lidar": [], "camera": [[1.0, float("inf")]]},
            {"frame_id": 1.7, "lidar": [], "camera": []},
            {"frame_id": True, "lidar": [], "camera": []},
            '{"frame_id": 0, "lidar": [',
            # coordinates must be JSON numbers, not strings or booleans
            {"frame_id": 0, "lidar": [["1.5", 2.0]], "camera": []},
            {"frame_id": 0, "lidar": [], "camera": [[1.0, True]]},
            # an integer too large for a float
            {"frame_id": 0, "lidar": [[10**400, 2.0]], "camera": []},
            # frame ids are non-negative
            {"frame_id": -1, "lidar": [[1.0, 2.0]], "camera": []},
        ],
    )
    def test_malformed_frame_record_exits_2(self, tmp_path, sim_dir, capsys, record):
        cfg, out = sim_dir
        frames = tmp_path / "frames.jsonl"
        frames.write_text((record if isinstance(record, str) else json.dumps(record)) + "\n")
        matrix = out / "ground_truth.json"
        code = main(
            [
                "--config", str(cfg),
                "refine",
                "--frames", str(frames),
                "--matrix", str(matrix),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert f"{frames}:1: malformed record" in capsys.readouterr().err

    def test_negative_frame_id_exits_2_in_lenient_correction(self, tmp_path, sim_dir, capsys):
        # the lenient correction would otherwise keep the matrix and exit 0
        cfg, out = sim_dir
        frames = tmp_path / "frames.jsonl"
        frames.write_text(json.dumps({"frame_id": -1, "lidar": [[1.0, 2.0]], "camera": []}) + "\n")
        code = main(
            [
                "--config", str(cfg),
                "refine",
                "--frames", str(frames),
                "--matrix", str(out / "ground_truth.json"),
                "--mode", "correction", "--lenient",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert f"{frames}:1: malformed record: frame_id must be non-negative" in capsys.readouterr().err

    def test_pair_record_without_pixel_exits_2(self, tmp_path, sim_dir, capsys):
        _, out = sim_dir
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"lidar": [1, 2]}) + "\n")
        matrix = out / "ground_truth.json"
        code = main(
            ["evaluate", "--matrix", str(matrix), "--pairs", str(pairs), "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert f"{pairs}:1: malformed record: missing key 'pixel'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            {"lidar": [1.0, 2.0, 3.0], "pixel": [1.0, 2.0]},
            {"lidar": [1.0, 2.0], "pixel": ["a", 2.0]},
            {"lidar": [float("nan"), 2.0], "pixel": [1.0, 2.0]},
            {"lidar": [1.0, 2.0], "pixel": [float("-inf"), 2.0]},
            {"lidar": [1.0, 2.0], "pixel": [1.0, 2.0], "source": "psychic"},
            {"frame_id": 1.7, "lidar": [1.0, 2.0], "pixel": [1.0, 2.0]},
            {"frame_id": True, "lidar": [1.0, 2.0], "pixel": [1.0, 2.0]},
            '{"lidar": [1.0, 2.0], "pixel"',
            # coordinates must be JSON numbers, not strings or booleans
            {"lidar": ["1.5", 2.0], "pixel": [1.0, 2.0]},
            {"lidar": [1.0, 2.0], "pixel": [1.0, True]},
            # an integer too large for a float
            {"lidar": [10**400, 2.0], "pixel": [1.0, 2.0]},
            # frame ids are non-negative 64-bit integers
            {"frame_id": -1, "lidar": [1.0, 2.0], "pixel": [1.0, 2.0]},
            {"frame_id": 2**63, "lidar": [1.0, 2.0], "pixel": [1.0, 2.0]},
        ],
    )
    def test_malformed_pair_record_exits_2(self, tmp_path, sim_dir, capsys, record):
        _, out = sim_dir
        pairs = tmp_path / "pairs.jsonl"
        good = json.dumps({"frame_id": 0, "lidar": [1.0, 2.0], "pixel": [3.0, 4.0]})
        bad = record if isinstance(record, str) else json.dumps(record)
        pairs.write_text(good + "\n" + bad + "\n")
        code = main(
            [
                "evaluate",
                "--matrix", str(out / "ground_truth.json"),
                "--pairs", str(pairs),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert f"{pairs}:2: malformed record" in capsys.readouterr().err

    def test_matrix_file_without_h_exits_2(self, tmp_path, sim_dir, capsys):
        _, out = sim_dir
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({"x": 1}))
        code = main(
            [
                "evaluate",
                "--matrix", str(matrix),
                "--pairs", str(out / "gt_pairs.jsonl"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert f"{matrix}: malformed record: missing key 'h'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"h": [[1.0, 0.0], [0.0, 1.0]', "Expecting"),
            (json.dumps({"h": [[1.0, 0.0], [0.0, 1.0]]}), "homography must be 3x3"),
        ],
        ids=["not-json", "2x2"],
    )
    def test_malformed_matrix_file_names_the_file_and_exits_2(
        self, tmp_path, sim_dir, capsys, text, reason
    ):
        _, out = sim_dir
        matrix = tmp_path / "m.json"
        matrix.write_text(text)
        code = main(
            [
                "evaluate",
                "--matrix", str(matrix),
                "--pairs", str(out / "gt_pairs.jsonl"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert f"{matrix}: malformed record: {reason}" in capsys.readouterr().err


class TestExampleConfig:
    EXAMPLE = Path(__file__).resolve().parents[1] / "config.example.json"

    def test_holds_every_key_and_loads_to_the_defaults(self):
        def names(cls):
            return {f.name for f in fields(cls)}

        # the keys each section accepts: its dataclass's fields, less those
        # another section sets (the scene's image size, refine's grid and
        # RANSAC), plus the grid section's skip_parity; the top-level
        # "seeds" has no default value, as leaving it out means one scene
        accepted = {
            "scene": names(SceneConfig),
            "grid": names(BlockGrid) - {"image_width", "image_height"} | {"skip_parity"},
            "ransac": names(RansacConfig),
            "refine": names(RefineConfig) - {"grid", "ransac", "skip_parity"},
            "correction": names(CorrectionConfig),
        }
        example = json.loads(self.EXAMPLE.read_text())
        assert {section: set(raw) for section, raw in example.items()} == accepted
        assert load_config(self.EXAMPLE) == load_config(None)


class TestLogLevel:
    # In a subprocess: in-process, pytest's log handlers make basicConfig a no-op.
    @pytest.mark.parametrize(
        "setting, logs_info", [("info", True), ("basic_format", False), ("no_such_level", False)]
    )
    def test_level_names_resolve_and_other_values_mean_warning(
        self, tmp_path, sim_dir, setting, logs_info
    ):
        cfg, out = sim_dir
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "CALIBREFINE_LOG": setting,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        proc = subprocess.run(
            [sys.executable, "-m", "calibrefine", "--config", str(cfg), "refine",
             "--frames", str(out / "frames.jsonl"), "--matrix", str(out / "ground_truth.json"),
             "--mode", "iterative", "--out", str(tmp_path / "refined.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert ("INFO:calibrefine:iterative:" in proc.stderr) == logs_info
