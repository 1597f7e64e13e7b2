import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibrefine import serialize
from calibrefine.errors import SingularResult
from calibrefine.geometry import (
    Frame,
    Homography,
    PairSet,
    Source,
    compose,
)
from calibrefine.refine import CheckpointRecord
from calibrefine.simulator import SceneConfig, generate

from conftest import assert_same_pairs, well_conditioned_homography


def assert_same_frames(read, written):
    """Same ids and bit-identical arrays (this tells -0.0 from 0.0)."""
    assert [f.frame_id for f in read] == [f.frame_id for f in written]
    for a, b in zip(read, written):
        for name in ("lidar_centers", "camera_centers"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


# Finite floats over the whole range: hypothesis draws -0.0, subnormals and
# values near +-1.8e308 among them.
_xy = st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False))
_frame_points = st.tuples(st.lists(_xy, max_size=4), st.lists(_xy, max_size=4))
_EDGES = [(-0.0, 0.0), (5e-324, -2.2250738585072014e-308), (1e308, -1e308)]
_pair_row = st.tuples(_xy, _xy, st.integers(0, 2**62), st.sampled_from(Source))


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
            Frame(
                0,
                [[1.5, -2.25]],
                [[10.0, 20.0], [0.1, 0.2]],
            ),
            Frame(1, np.empty((0, 2)), np.empty((0, 2))),
        ]
        path = tmp_path / "frames.jsonl"
        serialize.write_frames_jsonl(path, frames)
        assert path.read_text().splitlines() == [
            '{"camera": [[10.0, 20.0], [0.1, 0.2]], "frame_id": 0, "lidar": [[1.5, -2.25]]}',
            '{"camera": [], "frame_id": 1, "lidar": []}',
        ]
        assert_same_frames(serialize.read_frames_jsonl(path), frames)

    @settings(max_examples=100)
    @given(stream=st.lists(_frame_points, max_size=5))
    @example(stream=[])
    @example(stream=[([], []), (_EDGES, _EDGES[::-1]), ([], [])])
    def test_frames_round_trip_is_bit_exact(self, stream):
        frames = [Frame(2 * i, lidar, camera) for i, (lidar, camera) in enumerate(stream)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "frames.jsonl"
            serialize.write_frames_jsonl(path, frames)
            assert_same_frames(serialize.read_frames_jsonl(path), frames)

    def test_pairs_round_trip_with_source(self, tmp_path):
        pairs = PairSet(
            [[0.5, 1.5], [-1.0, 2.0]],
            [[3.25, 4.75], [8.0, 9.0]],
            [7, 8],
            [Source.ORACLE, Source.GREEDY_MATCHED],
        )
        path = tmp_path / "pairs.jsonl"
        serialize.write_pairs_jsonl(path, pairs)
        assert path.read_text().splitlines() == [
            '{"frame_id": 7, "lidar": [0.5, 1.5], "pixel": [3.25, 4.75], "source": "oracle"}',
            '{"frame_id": 8, "lidar": [-1.0, 2.0], "pixel": [8.0, 9.0], "source": "greedy_matched"}',
        ]
        assert_same_pairs(serialize.read_pairs_jsonl(path), pairs)

    @settings(max_examples=100)
    @given(rows=st.lists(_pair_row, max_size=6))
    @example(rows=[])
    @example(rows=[(e, e[::-1], i, s) for i, (e, s) in enumerate(zip(_EDGES, Source))])
    def test_pairs_round_trip_is_bit_exact(self, rows):
        lidar, pixel, frame_ids, sources = zip(*rows) if rows else ([], [], [], [])
        pairs = PairSet(lidar, pixel, frame_ids, sources)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pairs.jsonl"
            serialize.write_pairs_jsonl(path, pairs)
            # each line is the record as json.dumps writes it; no pairs, no lines
            assert path.read_text() == "".join(
                json.dumps(
                    {"frame_id": f, "lidar": list(xy), "pixel": list(uv), "source": s.value},
                    sort_keys=True,
                )
                + "\n"
                for xy, uv, f, s in rows
            )
            assert_same_pairs(serialize.read_pairs_jsonl(path), pairs)

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
