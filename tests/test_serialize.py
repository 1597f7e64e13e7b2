import json
import math
import re
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

from conftest import assert_same_frames, assert_same_pairs, well_conditioned_homography


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


CHUNK = serialize._CHUNK_LINES


def per_line_read(path) -> PairSet:
    """The reference: the per-line loop that read pair files before they
    were parsed in chunks, one ``json.loads`` and one check per line."""
    coordinates, frame_ids, sources = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                lidar = d["lidar"]
                pixel = d["pixel"]
                if len(lidar) != 2 or len(pixel) != 2:
                    raise ValueError("lidar/pixel must each hold 2 values")
                if not {*map(type, lidar + pixel)} <= {int, float}:
                    raise TypeError("coordinates must be JSON numbers")
                row = [float(v) for v in lidar + pixel]
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"coordinates must be finite, got {row}")
                frame_id = d.get("frame_id", 0)
                if type(frame_id) is not int:
                    raise TypeError(f"frame_id must be an integer, got {frame_id!r}")
                if not 0 <= frame_id < 2**63:
                    raise ValueError(f"frame_id must be in [0, 2**63), got {frame_id}")
                source = Source(d.get("source", "manual"))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ValueError(f"{path}:{n}: malformed record: {what}") from exc
            coordinates.append(row)
            frame_ids.append(frame_id)
            sources.append(source)
    table = np.array(coordinates, dtype=float).reshape(-1, 4)
    return PairSet(table[:, :2], table[:, 2:], frame_ids, sources)


def read_or_refusal(read, path):
    """``read(path)``, or the message of the ``ValueError`` it raised."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def assert_reads_as_per_line_loop(path):
    got, want = read_or_refusal(serialize.read_pairs_jsonl, path), read_or_refusal(per_line_read, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_pairs(got, want)


def pair_lines(n: int) -> list[str]:
    """The writer's lines for ``n`` pairs with distinct values."""
    rng = np.random.default_rng(n)
    pairs = PairSet(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)) * 100, np.arange(n),
                    [list(Source)[i % 3] for i in range(n)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.jsonl"
        serialize.write_pairs_jsonl(path, pairs)
        return path.read_text().splitlines()


# The bad records of the CLI's malformed-pair test, as file lines.
_MALFORMED_PAIRS = [
    json.dumps(record) if isinstance(record, dict) else record
    for record in [
        {"lidar": [1.0, 2.0, 3.0], "pixel": [1.0, 2.0]},
        {"lidar": [1.0, 2.0], "pixel": ["a", 2.0]},
        {"lidar": [float("nan"), 2.0], "pixel": [1.0, 2.0]},
        {"lidar": [1.0, 2.0], "pixel": [float("-inf"), 2.0]},
        {"lidar": [1.0, 2.0], "pixel": [1.0, 2.0], "source": "psychic"},
        {"frame_id": 1.7, "lidar": [1.0, 2.0], "pixel": [1.0, 2.0]},
        {"frame_id": True, "lidar": [1.0, 2.0], "pixel": [1.0, 2.0]},
        '{"lidar": [1.0, 2.0], "pixel"',
        {"lidar": ["1.5", 2.0], "pixel": [1.0, 2.0]},
        {"lidar": [1.0, 2.0], "pixel": [1.0, True]},
        {"lidar": [10**400, 2.0], "pixel": [1.0, 2.0]},
        {"frame_id": -1, "lidar": [1.0, 2.0], "pixel": [1.0, 2.0]},
        {"frame_id": 2**63, "lidar": [1.0, 2.0], "pixel": [1.0, 2.0]},
    ]
]
# Lines the reader accepts that the writer never writes.
_LENIENT_PAIRS = [
    "",
    "  \t ",
    '{"lidar": [1, 2], "pixel": [3, 4]}',
    '  {"frame_id": 5, "lidar": [1.5, 2.5], "pixel": [3.5, 4.5], "note": [{"a": 1}]}  ',
    '{"frame_id": 9223372036854775807, "lidar": [9007199254740993, 1e308], "pixel": [-0.0, 5e-324],'
    ' "source": "oracle"}',
]
# One record split over two lines, then one line with two records: as many
# records as lines, which only the line-shape test refuses.
_SPLIT_RECORD = [
    '{"lidar": [1.0, 2.0], "pixel": [3.0',
    '4.0], "frame_id": 0}',
    '{"lidar": [1.0, 2.0], "pixel": [3.0, 4.0]}, {"lidar": [1.0, 2.0], "pixel": [3.0, 4.0]}',
]


class TestPairChunks:
    @settings(max_examples=20)
    @given(rows=st.lists(_pair_row, min_size=1, max_size=5))
    def test_round_trip_across_chunks_is_bit_exact(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pairs.jsonl"
            for n in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1):
                lidar, pixel, frame_ids, sources = zip(*(rows * n)[:n]) if n else ([], [], [], [])
                pairs = PairSet(lidar, pixel, frame_ids, sources)
                serialize.write_pairs_jsonl(path, pairs)
                assert_same_pairs(serialize.read_pairs_jsonl(path), pairs)
                assert_same_pairs(per_line_read(path), pairs)

    @settings(max_examples=60)
    @given(
        head=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 2]),
        blanks=st.integers(0, 3),
        tail=st.lists(st.sampled_from(_MALFORMED_PAIRS + _LENIENT_PAIRS + _SPLIT_RECORD), max_size=4),
    )
    @example(head=0, blanks=0, tail=_SPLIT_RECORD)
    @example(head=CHUNK + 2, blanks=2, tail=_SPLIT_RECORD)
    def test_read_matches_per_line_loop(self, head, blanks, tail):
        good = pair_lines(head + 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pairs.jsonl"
            path.write_text("\n".join(good[:head] + [""] * blanks + tail + good[head:]) + "\n")
            assert_reads_as_per_line_loop(path)

    @pytest.mark.parametrize("bad", _MALFORMED_PAIRS)
    def test_malformed_record_in_a_later_chunk(self, tmp_path, bad):
        good = pair_lines(CHUNK + 8)
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n".join(good[: CHUNK + 3] + ["", "  "] + [bad] + good[CHUNK + 3:]) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{CHUNK + 6}: malformed record: "):
            serialize.read_pairs_jsonl(path)
        assert_reads_as_per_line_loop(path)

    def test_writer_files_never_reach_the_per_line_check(self, tmp_path, monkeypatch):
        calls = []
        per_line = serialize._pair_record
        monkeypatch.setattr(serialize, "_pair_record", lambda *a: calls.append(a) or per_line(*a))
        path = tmp_path / "pairs.jsonl"
        good = pair_lines(2 * CHUNK + 1)
        path.write_text("\n".join(good) + "\n")
        assert len(serialize.read_pairs_jsonl(path)) == 2 * CHUNK + 1
        assert calls == []
        # an unknown key sends its chunk, and only it, through the check
        path.write_text("\n".join(good[:CHUNK] + [good[CHUNK][:-1] + ', "note": 1}'] + good[CHUNK + 1:]) + "\n")
        assert len(serialize.read_pairs_jsonl(path)) == 2 * CHUNK + 1
        assert len(calls) == CHUNK


class TestLenientPairRecords:
    """Inputs the pair reader accepts that its writer never writes."""

    def test_blank_lines_are_skipped_across_a_chunk_boundary(self, tmp_path):
        good = pair_lines(CHUNK + 2)
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n".join(good[: CHUNK - 1] + ["", " \t", ""] + good[CHUNK - 1:]) + "\n\n")
        expected = tmp_path / "expected.jsonl"
        expected.write_text("\n".join(good) + "\n")
        assert_same_pairs(serialize.read_pairs_jsonl(path), serialize.read_pairs_jsonl(expected))

    @pytest.mark.parametrize(
        "record, row",
        [
            # unknown keys are ignored
            ({"frame_id": 3, "lidar": [1.0, 2.0], "pixel": [3.0, 4.0], "source": "oracle", "note": "x"},
             (1.0, 2.0, 3.0, 4.0, 3, Source.ORACLE)),
            # a missing frame_id reads as 0
            ({"lidar": [1.0, 2.0], "pixel": [3.0, 4.0], "source": "greedy_matched"},
             (1.0, 2.0, 3.0, 4.0, 0, Source.GREEDY_MATCHED)),
            # a missing source reads as "manual"
            ({"frame_id": 7, "lidar": [1.0, 2.0], "pixel": [3.0, 4.0]},
             (1.0, 2.0, 3.0, 4.0, 7, Source.MANUAL)),
        ],
    )
    def test_record_defaults(self, tmp_path, record, row):
        path = tmp_path / "pairs.jsonl"
        good = pair_lines(CHUNK + 1)
        path.write_text("\n".join(good[:CHUNK] + [json.dumps(record)] + good[CHUNK:]) + "\n")
        pairs = serialize.read_pairs_jsonl(path)
        assert len(pairs) == CHUNK + 2 and list(pairs[[CHUNK]]) == [row]


def per_line_read_frames(path) -> list[Frame]:
    """The reference: the per-line loop that read frame files before their
    chunks were checked as arrays, one ``json.loads`` and one ``Frame`` per
    line."""
    frames = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                frame_id = d["frame_id"]
                if type(frame_id) is not int:
                    raise TypeError(f"frame_id must be an integer, got {frame_id!r}")
                frame = Frame(frame_id=frame_id, lidar_centers=d["lidar"], camera_centers=d["camera"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ValueError(f"{path}:{n}: malformed record: {what}") from exc
            if frames and frame.frame_id <= frames[-1].frame_id:
                raise ValueError(
                    f"{path}:{n}: frame_id {frame.frame_id} after frame_id {frames[-1].frame_id}; "
                    "ids must strictly increase"
                )
            frames.append(frame)
    return frames


def assert_reads_as_per_line_frames(path):
    got = read_or_refusal(serialize.read_frames_jsonl, path)
    want = read_or_refusal(per_line_read_frames, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_frames(got, want)


def frame_lines(n: int) -> list[str]:
    """The writer's lines for ``n`` frames with ids 10, 20, ..., holding 0-4
    points per sensor."""
    rng = np.random.default_rng(n)
    frames = [
        Frame(10 * (i + 1), rng.normal(size=(rng.integers(5), 2)), rng.normal(size=(rng.integers(5), 2)) * 100)
        for i in range(n)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frames.jsonl"
        serialize.write_frames_jsonl(path, frames)
        return path.read_text().splitlines()


# Frame records the reader refuses and records it accepts that the writer
# never writes. FID stands for an id above the line before, PREV for that
# line's own id.
_MALFORMED_FRAMES = [
    '{"frame_id": FID, "lidar": [[true, 2.0]], "camera": []}',
    '{"frame_id": FID, "lidar": [["1.5", 2.0]], "camera": []}',
    '{"frame_id": FID, "lidar": [], "camera": [[null, 2.0]]}',
    '{"frame_id": FID, "lidar": [[1e400, 2.0]], "camera": []}',
    '{"frame_id": FID, "lidar": [[NaN, 2.0]], "camera": []}',
    '{"frame_id": FID, "lidar": [], "camera": [[1.0, -Infinity]]}',
    '{"frame_id": FID, "lidar": [[1' + "0" * 400 + ', 2.0]], "camera": []}',
    '{"frame_id": FID, "lidar": [[1.0, 2.0, 3.0]], "camera": []}',
    '{"frame_id": FID, "lidar": [[1.0]], "camera": []}',
    '{"frame_id": FID, "lidar": [[1.0, 2.0], [3.0, 4.0, 5.0]], "camera": []}',
    '{"frame_id": FID, "lidar": [1.0, 2.0], "camera": []}',
    '{"frame_id": FID, "lidar": [[[1.0, 2.0]]], "camera": []}',
    '{"frame_id": FID, "lidar": [{"x": 1.0, "y": 2.0}], "camera": []}',
    '{"frame_id": FID, "lidar": "ab", "camera": []}',
    '{"frame_id": -1, "lidar": [], "camera": []}',
    '{"frame_id": 9223372036854775808, "lidar": [], "camera": []}',
    '{"frame_id": FID.0, "lidar": [], "camera": []}',
    '{"frame_id": true, "lidar": [], "camera": []}',
    '{"frame_id": PREV, "lidar": [], "camera": []}',
    '{"frame_id": 0, "lidar": [], "camera": []}',
    '{"lidar": [], "camera": []}',
    '{"frame_id": FID, "lidar": []}',
    '{"frame_id": FID, "lidar": [], "camera": []',
    "[1, 2]",
    "7",
    "null",
]
_LENIENT_FRAMES = [
    "",
    "  \t ",
    '{"frame_id": FID, "lidar": [[1, 2]], "camera": [[3, 4.5]]}',
    '  {"frame_id": FID, "lidar": [], "camera": [], "note": [{"a": 1}]}  ',
    '{"camera": [[9007199254740993, 1e308]], "frame_id": FID, "lidar": [[-0.0, 5e-324]]}',
    '{"frame_id": FID, "lidar": [[1e308, 1e308], [-1e308, -1e308]], "camera": []}',
    '{"frame_id": FID, "lidar": [[1' + "0" * 300 + ', 2]], "camera": []}',
]


def frame_file(path: Path, head: int, blanks: int, tail: list[str], total: int) -> None:
    """``total`` writer lines with ``blanks`` blank lines and then ``tail``
    after the first ``head`` of them, each FID and PREV in the tail
    replaced by an id (the good lines' ids are 10 apart)."""
    good = frame_lines(total)
    before = 10 * head
    lines = []
    for k, line in enumerate(tail):
        lines.append(line.replace("FID", str(before + k + 1)).replace("PREV", str(before + k)))
    path.write_text("\n".join(good[:head] + [""] * blanks + lines + good[head:]) + "\n")


class TestFrameChunks:
    @settings(max_examples=60)
    @given(
        head=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 2, 2 * CHUNK]),
        blanks=st.integers(0, 3),
        tail=st.lists(st.sampled_from(_MALFORMED_FRAMES + _LENIENT_FRAMES), max_size=4),
    )
    @example(head=CHUNK, blanks=0, tail=['{"frame_id": PREV, "lidar": [], "camera": []}'])
    @example(head=CHUNK - 1, blanks=1, tail=_LENIENT_FRAMES[2:5])
    @example(head=2 * CHUNK, blanks=2, tail=['{"frame_id": FID, "lidar": [[NaN, 2.0]], "camera": []}'])
    def test_read_matches_per_line_loop(self, head, blanks, tail):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "frames.jsonl"
            frame_file(path, head, blanks, tail, 2 * CHUNK + 3)
            assert_reads_as_per_line_frames(path)

    @pytest.mark.parametrize("bad", _MALFORMED_FRAMES)
    def test_malformed_record_in_a_later_chunk(self, tmp_path, bad):
        path = tmp_path / "frames.jsonl"
        frame_file(path, CHUNK + 3, 2, [bad], CHUNK + 8)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{CHUNK + 6}: "):
            serialize.read_frames_jsonl(path)
        assert_reads_as_per_line_frames(path)

    def test_writer_files_never_reach_the_per_line_check(self, tmp_path, monkeypatch):
        calls = []
        per_line = serialize._frame_record
        monkeypatch.setattr(serialize, "_frame_record", lambda *a: calls.append(a) or per_line(*a))
        path = tmp_path / "frames.jsonl"
        good = frame_lines(2 * CHUNK + 1)
        path.write_text("\n".join(good) + "\n")
        assert len(serialize.read_frames_jsonl(path)) == 2 * CHUNK + 1
        assert calls == []
        # an unknown key sends its chunk, and only it, through the check
        path.write_text("\n".join(good[:CHUNK] + [good[CHUNK][:-1] + ', "note": 1}'] + good[CHUNK + 1:]) + "\n")
        assert_reads_as_per_line_frames(path)
        assert len(calls) == CHUNK

    def test_generated_scene_round_trips(self, tmp_path):
        # 150 frames of 200 objects: generate builds them in 4 blocks of 40
        sim_frames, _ = generate(SceneConfig(seed=5, n_frames=150, n_objects=200))
        frames = [sf.frame for sf in sim_frames]
        copies = [Frame(f.frame_id, f.lidar_centers, f.camera_centers) for f in frames]
        assert_same_frames(frames, copies)
        path = tmp_path / "frames.jsonl"
        serialize.write_sim_frames(path, sim_frames)
        assert_same_frames(serialize.read_frames_jsonl(path), copies)
        assert_same_frames(per_line_read_frames(path), copies)


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
