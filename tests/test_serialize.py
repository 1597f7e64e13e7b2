import math

import numpy as np
import pytest

from calibrefine import serialize
from calibrefine.errors import SingularResult
from calibrefine.geometry import (
    Correspondence,
    Frame,
    Homography,
    PixelPoint,
    PlanePoint,
    Source,
    compose,
)
from calibrefine.refine import CheckpointRecord
from calibrefine.simulator import SceneConfig, generate

from conftest import well_conditioned_homography


class TestHomographyIO:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        h = well_conditioned_homography(rng)
        path = tmp_path / "h.json"
        serialize.save_homography(path, h)
        assert serialize.load_homography(path) == h

    def test_parser_recanonicalizes_any_scale(self, tmp_path):
        h = Homography([[2.0, 0, 5.0], [0, 2.0, -3.0], [0, 0, 1.0]])
        path = tmp_path / "h.json"
        path.write_text('{"h": [[200.0, 0, 500.0], [0, 200.0, -300.0], [0, 0, 100.0]]}')
        loaded = serialize.load_homography(path)
        assert np.allclose(loaded.m, h.m, atol=1e-15)
        assert np.linalg.norm(loaded.m) == pytest.approx(1.0, abs=1e-12)


class TestFramesAndPairsIO:
    def test_frames_round_trip(self, tmp_path):
        frames = [
            Frame(0, (PlanePoint(1.5, -2.25),), (PixelPoint(10.0, 20.0), PixelPoint(0.1, 0.2))),
            Frame(1, (), ()),
        ]
        path = tmp_path / "frames.jsonl"
        serialize.write_frames_jsonl(path, frames)
        assert serialize.read_frames_jsonl(path) == frames

    def test_pairs_round_trip_with_source(self, tmp_path):
        pairs = [
            Correspondence(PlanePoint(0.5, 1.5), PixelPoint(3.25, 4.75), 7, Source.ORACLE),
            Correspondence(PlanePoint(-1.0, 2.0), PixelPoint(8.0, 9.0), 8, Source.GREEDY_MATCHED),
        ]
        path = tmp_path / "pairs.jsonl"
        serialize.write_pairs_jsonl(path, pairs)
        assert serialize.read_pairs_jsonl(path) == pairs

    def test_ground_truth_round_trip(self, tmp_path):
        _, gt = generate(SceneConfig(seed=2, n_frames=5, n_objects=3))
        path = tmp_path / "gt.json"
        serialize.write_ground_truth(path, gt)
        assert serialize.load_homography(path) == gt.h_true
        matrix = tmp_path / "h.json"
        serialize.save_homography(matrix, gt.h_true)
        assert path.read_bytes() == matrix.read_bytes()


class TestCheckpointCsv:
    def test_round_trip_including_skipped(self, tmp_path):
        records = [
            CheckpointRecord(99, 1.25, 2.5, True),
            CheckpointRecord(199, 3.5, 3.25, False),
            CheckpointRecord(299, math.nan, math.nan, False, skipped=True),
        ]
        path = tmp_path / "checkpoints.csv"
        serialize.write_checkpoints_csv(path, records)
        loaded = serialize.read_checkpoints_csv(path)
        assert [r.frame_id for r in loaded] == [99, 199, 299]
        assert [r.updated for r in loaded] == [True, False, False]
        assert [r.skipped for r in loaded] == [False, False, True]
        assert loaded[0].err_new == 1.25 and loaded[1].err_best == 3.25
        assert math.isnan(loaded[2].err_new)

    def test_header_matches_contract(self, tmp_path):
        path = tmp_path / "checkpoints.csv"
        serialize.write_checkpoints_csv(path, [])
        assert path.read_text().splitlines()[0] == "frame_id,err_new,err_best,updated"


class TestComposeGuard:
    def test_singular_product_is_rejected(self):
        # both factors clear the tolerance; their product does not
        a = Homography(np.diag([1.0, 1.0, 4e-12]))
        with pytest.raises(SingularResult):
            compose(a, a)
