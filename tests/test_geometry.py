import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from calibrefine.errors import (
    DegenerateConfiguration,
    DegenerateProjection,
    EmptySet,
    InsufficientPairs,
    NonConvergenceWarning,
    SingularMatrixError,
)
from calibrefine.geometry import (
    Frame,
    FrameStream,
    Homography,
    PairSet,
    ResidualReport,
    Source,
    compose,
    correspondence_arrays,
    estimate_homography,
    refine_homography,
    reprojection_metrics,
)

from conftest import (
    assert_as_checked,
    assert_same_frames,
    assert_same_pairs,
    exact_pairs,
    naive_metrics,
    pair_set,
    project_one,
    translation_homography,
    well_conditioned_homography,
)


class TestProject:
    def test_identity(self):
        u, v = project_one(Homography.identity(), 3.0, 4.0)
        assert u == pytest.approx(3.0, abs=1e-12)
        assert v == pytest.approx(4.0, abs=1e-12)

    def test_pure_scaling(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        u, v = project_one(h, 3.0, 4.0)
        assert u == pytest.approx(6.0, abs=1e-12)
        assert v == pytest.approx(8.0, abs=1e-12)

    def test_perspective_division(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [0.1, 0, 1]])
        u, v = project_one(h, 1.0, 0.0)
        assert u == pytest.approx(1.0 / 1.1, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_projection_raises(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [0.1, 0, 1]])  # w = 0 at x = -10
        with pytest.raises(DegenerateProjection):
            project_one(h, -10.0, 5.0)

    @pytest.mark.parametrize("lam", [-2.0, 0.5])
    def test_scale_invariance_power_of_two_is_exact(self, lam):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = well_conditioned_homography(rng)
            scaled = Homography(lam * h.m)
            assert np.array_equal(scaled.m, h.m)

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            h = well_conditioned_homography(rng)
            scaled = Homography(10.0 * h.m)
            for x, y in exact_pairs(h, rng, 5).xy.tolist():
                a = project_one(h, x, y)
                b = project_one(scaled, x, y)
                assert abs(a[0] - b[0]) < 1e-9 and abs(a[1] - b[1]) < 1e-9


class TestHomographyType:
    def test_canonical_form(self):
        h = Homography([[2.0, 0, 0], [0, 2.0, 0], [0, 0, 1.0]])
        assert np.linalg.norm(h.m) == pytest.approx(1.0, abs=1e-12)
        assert h.m[2, 2] >= 0

    def test_canonicalization_idempotent_bitwise(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            h = well_conditioned_homography(rng)
            again = Homography(h.m)
            assert np.array_equal(again.m, h.m)

    @settings(max_examples=500)
    @given(
        entries=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
            min_size=9,
            max_size=9,
        ),
        scale=st.floats(1e-100, 1e100),
    )
    def test_canonicalization_idempotent_bitwise_hypothesis(self, entries, scale):
        try:
            h = Homography(np.array(entries).reshape(3, 3) * scale)
        except SingularMatrixError:
            assume(False)
        assert np.array_equal(Homography(h.m).m, h.m)

    def test_sign_convention_negative_h33(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [0, 0, -1.0]])
        assert h.m[2, 2] > 0

    def test_sign_convention_zero_h33(self):
        h = Homography([[0, 0, -1], [0, -1, 0], [-1, 0, 0]])
        flat = h.m.ravel()
        assert h.m[2, 2] == 0
        assert flat[np.flatnonzero(flat)[0]] > 0

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            Homography(np.ones((3, 3)))

    @pytest.mark.parametrize(
        "matrix",
        [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], [[True, 0, 0], [0, 1, 0], [0, 0, 1]],
         np.eye(3, dtype=bool), np.eye(3).astype(str)],
        ids=["strings", "bool", "bool-array", "string-array"],
    )
    def test_rejects_strings_and_booleans_as_entries(self, matrix):
        with pytest.raises(ValueError, match="homography entries must hold integers or floats"):
            Homography(matrix)
        assert Homography([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == Homography(np.eye(3, dtype=np.int32))

    def test_singular_with_subnormal_entry_rejected_without_runtime_warning(self):
        m = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.1125369292536007e-308, 1.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularMatrixError):
                Homography(m)

    def test_non_finite_rejected(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            Homography(m)

    def test_point_invariants(self):
        with pytest.raises(ValueError):
            pair_set([[math.inf, 0.0]], [[0.0, 0.0]])
        with pytest.raises(ValueError):
            pair_set([[0.0, 0.0]], [[0.0, math.nan]])
        with pytest.raises(ValueError):
            pair_set([[0.0, 0.0]], [[0.0, 0.0]], frame_id=-1)


class TestFrame:
    @pytest.mark.parametrize(
        "points",
        [
            [[1.0, math.nan]],
            [[math.inf, 2.0]],
            [[1.0, 2.0], [-math.inf, 0.0]],
            [[1.0, 2.0, 3.0]],
            [1.0, 2.0],
            [[[1.0, 2.0]]],
            np.empty((0, 3)),
        ],
        ids=["nan", "inf", "-inf", "three-columns", "flat", "three-dims", "empty-three-columns"],
    )
    def test_rejects_non_finite_and_misshaped_points(self, points):
        with pytest.raises(ValueError):
            Frame(0, points, [])
        with pytest.raises(ValueError):
            Frame(0, [], points)

    @pytest.mark.parametrize(
        "points",
        [[["7", "8"]], [[True, 3.0]], [(1.0, 2.0), (np.bool_(True), 3.0)], np.array([["7", "8"]]),
         np.array([[True, False]]), np.array([[1.0, 2.0]], dtype=object)],
        ids=["string", "bool", "numpy-bool", "string-array", "bool-array", "object-array"],
    )
    def test_rejects_strings_and_booleans_as_numbers(self, points):
        for lidar, camera in ((points, []), ([], points)):
            with pytest.raises(ValueError, match="must hold integers or floats"):
                Frame(0, lidar, camera)

    def test_integer_and_float_coordinates_of_any_width_pass(self):
        frame = Frame(0, [(np.int64(1), np.float32(2.0)), (3, 4.5)], np.array([[5, 6]], dtype=np.uint8))
        assert frame.lidar_centers.tolist() == [[1.0, 2.0], [3.0, 4.5]]
        assert frame.camera_centers.tolist() == [[5.0, 6.0]]

    def test_holds_read_only_float_copies(self):
        lidar = np.array([[1.0, 2.0], [3.0, 4.0]])
        frame = Frame(3, lidar, [[5, 6]])
        lidar[0, 0] = -1.0
        assert frame.lidar_centers.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert frame.camera_centers.dtype == np.float64
        assert Frame(4, [], ()).lidar_centers.shape == (0, 2)
        for points in (frame.lidar_centers, frame.camera_centers):
            with pytest.raises(ValueError):
                points[0, 0] = 0.0

    def test_rejects_negative_frame_id(self):
        for frame_id in (-1, np.int64(-1), 2**63, np.uint64(2**63)):
            with pytest.raises(ValueError, match="frame_id must be non-negative"):
                Frame(frame_id, [[1.0, 2.0]], [])

    @pytest.mark.parametrize(
        "frame_id", [True, np.bool_(False), 1.5, 2.0, np.float64(2.0), "3", None],
        ids=["bool", "numpy-bool", "float", "integral-float", "numpy-float", "string", "none"],
    )
    def test_rejects_a_frame_id_that_is_not_an_integer(self, frame_id):
        with pytest.raises(ValueError, match="frame_id must be an integer, got "):
            Frame(frame_id, [[1.0, 2.0]], [])

    @pytest.mark.parametrize("frame_id", [np.int64(7), np.uint8(7), np.int32(7)])
    def test_stores_a_numpy_integer_frame_id_as_an_int(self, frame_id):
        assert type(Frame(frame_id, [], []).frame_id) is int
        assert Frame(frame_id, [], []).frame_id == 7


_coordinates = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324]), st.floats(allow_nan=False, allow_infinity=False)
)
_frame_ids = st.one_of(st.just(2**63 - 1), st.integers(0, 2**63 - 1))


_points = st.lists(st.tuples(_coordinates, _coordinates), max_size=4)

# One defect, placed in one frame of a stream, and the message Frame gives it.
_BAD_FRAMES = [
    {"frame_id": -1},
    {"frame_id": 2**63},
    {"frame_id": True},
    {"frame_id": 1.5},
    {"frame_id": np.float64(2.0)},
    {"lidar": [[1.0, math.nan]]},
    {"lidar": [[math.inf, 2.0], [1.0, 2.0]]},
    {"camera": [[1.0, -math.inf]]},
    {"lidar": [[True, 2.0]]},
    {"camera": [[1.0, "2"]]},
    {"camera": [[1.0, None]]},
    {"lidar": [[np.bool_(True), 2.0]]},
]


_streams = st.lists(st.tuples(_frame_ids, _points, _points), max_size=6)


class TestFrameStream:
    @settings(max_examples=100)
    @given(_streams)
    @example([])
    @example([(0, [], []), (2**63 - 1, [(-0.0, 5e-324)], [(1e308, -1e308), (0.0, -0.0)])])
    def test_of_is_the_inverse_of_iteration(self, stream):
        frames = [Frame(fid, lidar, camera) for fid, lidar, camera in stream]
        built = FrameStream.of(frames)
        assert_same_frames(list(built), frames)
        assert FrameStream.of(built) is built
        assert built.frame_ids.dtype == np.int64 and built.frame_ids.tolist() == [f.frame_id for f in frames]
        # numpy integer ids, as a stream's id column holds them, read as ints
        columns = built.lidar_xy, built.camera_uv, [len(f.lidar_centers) for f in frames], built.camera_counts
        assert_same_frames(FrameStream(np.array(built.frame_ids, dtype=np.uint64), *columns), frames)
        assert_same_frames(FrameStream(built.frame_ids.tolist(), *columns), frames)

    @settings(max_examples=200)
    @given(_streams, st.integers(-9, 9), st.one_of(st.none(), st.integers(-9, 9)))
    def test_indexing_equals_indexing_the_list_of_frames(self, stream, a, b):
        frames = [Frame(fid, lidar, camera) for fid, lidar, camera in stream]
        built = FrameStream.of(frames)
        if -len(frames) <= a < len(frames):
            assert_same_frames([built[a]], [frames[a]])
        else:
            with pytest.raises(IndexError):
                built[a]
        view = built[a:b]
        assert isinstance(view, FrameStream)
        assert_same_frames(list(view), frames[a:b])
        # a view's maps index its own frames, as a stream built from them would
        again = FrameStream.of(frames[a:b])
        for name in ("frame_ids", "camera_counts", "lidar_frame", "camera_frame"):
            assert getattr(view, name).tolist() == getattr(again, name).tolist()
        assert_same_frames(list(view[1:]), frames[a:b][1:])

    def test_slices_take_no_step(self):
        stream = FrameStream.of([Frame(i, [], []) for i in range(3)])
        assert len(stream[::1]) == 3
        with pytest.raises(ValueError, match="takes no step"):
            stream[::2]

    def test_compares_by_identity(self):
        frames = [Frame(0, [[1.0, 2.0]], [])]
        stream = FrameStream.of(frames)
        assert stream == stream and stream != FrameStream.of(frames)
        assert {stream: 1}[stream] == 1

    @pytest.mark.parametrize("where", [0, 2])
    @pytest.mark.parametrize("defect", _BAD_FRAMES, ids=lambda d: repr(d)[:40])
    def test_refuses_what_frame_refuses_with_its_message(self, defect, where):
        stream = [{"frame_id": i, "lidar": [[i, 1.0]], "camera": [[2.0, i], [3.0, 4.0]]} for i in range(3)]
        stream[where] = {**stream[where], **defect}
        with pytest.raises(ValueError) as per_frame:
            [Frame(d["frame_id"], d["lidar"], d["camera"]) for d in stream]
        with pytest.raises(ValueError) as at_once:
            FrameStream(
                [d["frame_id"] for d in stream],
                [p for d in stream for p in d["lidar"]],
                [p for d in stream for p in d["camera"]],
                [len(d["lidar"]) for d in stream],
                [len(d["camera"]) for d in stream],
            )
        assert str(at_once.value) == str(per_frame.value)

    @pytest.mark.parametrize("ids", [np.array([0, -1, 2]), np.array([0, 2**63], dtype=np.uint64)])
    def test_refuses_id_arrays_with_frames_message(self, ids):
        with pytest.raises(ValueError) as per_frame:
            [Frame(i, [], []) for i in ids]
        with pytest.raises(ValueError) as at_once:
            FrameStream(ids, [], [], [0, 0, 0], [0, 0, 0])
        assert str(at_once.value) == str(per_frame.value)

    @pytest.mark.parametrize("points", [[[1.0, 2.0, 3.0]], [1.0, 2.0], [[[1.0, 2.0]]], np.empty((0, 3))])
    def test_refuses_misshaped_points(self, points):
        with pytest.raises(ValueError, match="must be a \\(K, 2\\) array"):
            FrameStream([0], points, [], [len(points)], [0])
        with pytest.raises(ValueError, match="must be a \\(K, 2\\) array"):
            FrameStream([0], [], points, [0], [len(points)])

    @pytest.mark.parametrize(
        "ids, lidar_counts, camera_counts, message",
        [
            ([0, 1], [1, 1], [1, 1], "do not partition"),
            ([0, 1], [2, 1], [1, 0], "do not partition"),
            ([0, 1], [3, -1], [1, 0], "do not partition"),
            ([0, 1], [1, 1], [1], "do not partition"),
            ([0, 1], [2], [1], "2 frame ids for 1 frame counts"),
            ([0], [2, 0], [1, 0], "1 frame ids for 2 frame counts"),
            # fractional counts were once floored: [1.5, 0.5] read as [1, 0]
            ([0, 1], [1.5, 0.5], [1, 0], "must be integers"),
            ([0, 1], [np.nan, 2.0], [1, 0], "must be integers"),
            ([0, 1], [np.inf, 2.0], [1, 0], "must be integers"),
        ],
    )
    def test_counts_must_partition_the_rows_one_per_frame(self, ids, lidar_counts, camera_counts, message):
        with pytest.raises(ValueError, match=message):
            FrameStream(ids, [[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]], lidar_counts, camera_counts)

    @pytest.mark.parametrize(
        "lidar_counts, camera_counts",
        [([1, 1], [1, 1]), ([2, 2], [1, 1]), ([3], [1, 1]), ([4, -1], [1, 1]), ([3, 0], [3, -1])],
    )
    def test_counts_must_partition_three_and_two_rows(self, lidar_counts, camera_counts):
        with pytest.raises(ValueError, match="frame counts do not partition"):
            FrameStream([0, 1], np.zeros((3, 2)), np.zeros((2, 2)), lidar_counts, camera_counts)

    def test_integral_float_counts_are_read_as_integers(self):
        stream = FrameStream([0, 1], np.zeros((2, 2)), np.zeros((2, 2)), [2.0, 0.0], [1, 1])
        assert stream.camera_counts.tolist() == [1, 1]
        assert stream.lidar_frame.tolist() == [0, 0] and stream.camera_frame.tolist() == [0, 1]

    def test_frames_are_read_only_views_of_one_checked_copy(self):
        lidar, camera = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), np.array([[7.0, 8.0]])
        ids = np.array([3, 8])
        stream = FrameStream(ids, lidar, camera, [1, 2], [0, 1])
        lidar[:] = camera[:] = 0.0  # the caller's arrays were copied
        ids[:] = 0
        frames = list(stream)
        assert [f.frame_id for f in frames] == [3, 8]
        assert [f.lidar_centers.tolist() for f in frames] == [[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]]
        assert [f.camera_centers.shape for f in frames] == [(0, 2), (1, 2)]
        views = [*frames, stream[1], *stream[1:]]
        for frame in views:
            assert np.shares_memory(frame.lidar_centers, stream.lidar_xy)
        for column in [getattr(s, name) for s in (stream, stream[1:]) for name in FrameStream.__slots__]:
            with pytest.raises(ValueError):
                column[...] = 0
        for points in [p for f in views for p in (f.lidar_centers, f.camera_centers)]:
            with pytest.raises(ValueError):
                points[:] = -1.0
            with pytest.raises(ValueError):
                points.flags.writeable = True


def two_pairs(**columns) -> PairSet:
    return PairSet(**{
        "xy": [[0.5, -1.0], [2.0, 3.0]],
        "uv": [[10.0, 20.0], [-0.0, 5e-324]],
        "frame_ids": [4, 9],
        "source": [Source.ORACLE, Source.MANUAL],
        **columns,
    })


class TestPairSet:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(*[_coordinates] * 4, _frame_ids, st.sampled_from(Source)), max_size=6))
    @example([])
    @example([
        (0.5, -1.0, 10.0, 20.0, 4, Source.ORACLE),
        (2.0, 3.0, -0.0, 5e-324, 2**63 - 1, Source.MANUAL),
    ])
    def test_iteration_yields_rows_and_an_integer_index_is_refused(self, rows):
        pairs = PairSet(
            np.reshape([r[:2] for r in rows], (-1, 2)),
            np.reshape([r[2:4] for r in rows], (-1, 2)),
            np.array([r[4] for r in rows], dtype=np.int64),
            [r[5] for r in rows],
        )
        listed = list(pairs)
        assert repr(listed) == repr(rows)  # repr tells -0.0 from 0.0
        for row in listed:
            assert [type(c) for c in row] == [float] * 4 + [int, Source] and type(row) is tuple
        assert_same_pairs(PairSet.of(listed), pairs)
        assert PairSet.of(pairs) is pairs
        for k in (0, -1, np.int64(0)):
            with pytest.raises(TypeError, match="an index array, a mask or a slice"):
                pairs[k]
        for k in range(len(pairs)):
            assert list(pairs[[k]]) == [listed[k]]
            for column, bad in ((0, math.nan), (1, True), (2, "1.5"), (3, -math.inf), (4, -1), (5, "oracle")):
                broken = list(listed[k])
                broken[column] = bad
                with pytest.raises(ValueError):
                    PairSet.of(listed[:k] + [tuple(broken)] + listed[k + 1 :])

    def test_index_array_and_slice_yield_pair_sets(self):
        pairs = two_pairs()
        for index in (np.array([1, 0, 1]), [1], slice(1, None), np.array([False, True]), []):
            picked = pairs[index]
            assert isinstance(picked, PairSet)
            rows = np.arange(2)[index]
            assert list(picked) == [list(pairs)[i] for i in rows]

    def test_one_source_stands_for_every_row(self):
        pairs = two_pairs(source=Source.GREEDY_MATCHED)
        assert pairs.source.tolist() == [Source.GREEDY_MATCHED] * 2

    def test_holds_read_only_copies(self):
        xy = np.array([[0.5, -1.0], [2.0, 3.0]])
        frame_ids = np.array([4, 9])
        pairs = two_pairs(xy=xy, frame_ids=frame_ids)
        xy[0, 0] = frame_ids[0] = 7
        assert pairs.xy[0, 0] == 0.5 and pairs.frame_ids[0] == 4
        assert pairs.frame_ids.dtype == np.int64
        for column in (pairs.xy, pairs.uv, pairs.frame_ids, pairs.source):
            assert not column.flags.writeable

    def test_empty(self):
        pairs = PairSet([], [], [], [])
        assert len(pairs) == 0 and not pairs and list(pairs) == []
        assert pairs.xy.shape == pairs.uv.shape == (0, 2)
        assert len(PairSet.concat([])) == 0

    def test_concat_keeps_row_order(self):
        a, b = two_pairs(), two_pairs(frame_ids=[11, 12], source=Source.ORACLE)
        joined = PairSet.concat([a, PairSet([], [], [], []), b])
        assert list(joined) == list(a) + list(b)

    def test_concat_holds_what_the_constructor_checks(self):
        a, b = two_pairs(), two_pairs(frame_ids=[11, 12], source=Source.ORACLE)
        for parts in ([], [a], [PairSet([], [], [], [])], [a, PairSet([], [], [], []), b[[1]], b]):
            assert_as_checked(PairSet.concat(parts))

    @pytest.mark.parametrize(
        "part",
        [[(0.5, -1.0, 10.0, 20.0, 4, Source.ORACLE)], (0.5, -1.0, 10.0, 20.0, 4, Source.ORACLE), None],
        ids=["rows", "one-row", "none"],
    )
    def test_concat_refuses_parts_that_are_not_pair_sets(self, part):
        with pytest.raises(TypeError, match="PairSets only"):
            PairSet.concat([two_pairs(), part])

    @pytest.mark.parametrize(
        "columns",
        [
            {"xy": [[0.5, math.nan], [2.0, 3.0]]},
            {"uv": [[10.0, 20.0], [math.inf, 0.0]]},
            {"xy": [[0.5, -1.0, 0.0], [2.0, 3.0, 0.0]]},
            {"uv": [[10.0, 20.0]]},
            {"frame_ids": [4]},
            {"frame_ids": [4, -1]},
            {"frame_ids": [4.0, 9.0]},
            {"frame_ids": [True, False]},
            {"frame_ids": [4, 2**63]},
            {"source": [Source.ORACLE]},
            {"source": ["oracle", "manual"]},
            {"xy": [["0.5", -1.0], [2.0, 3.0]]},
            {"uv": [[True, 20.0], [-0.0, 5e-324]]},
            {"xy": np.array([[0.5, -1.0], [2.0, 3.0]]).astype(str)},
            {"uv": np.array([[True, False], [False, True]])},
            {"xy": np.array([[0.5, -1.0], [2.0, 3.0]], dtype=object)},
        ],
        ids=["nan", "inf", "three-columns", "short-uv", "short-ids", "negative-id",
             "float-ids", "bool-ids", "uint64-ids", "short-source", "source-strings",
             "string-coordinate", "bool-coordinate", "string-array", "bool-array", "object-array"],
    )
    def test_rejects_invalid_columns(self, columns):
        with pytest.raises(ValueError):
            two_pairs(**columns)

    def test_correspondence_arrays_returns_the_columns(self):
        pairs = two_pairs()
        xy, uv = correspondence_arrays(pairs)
        assert xy is pairs.xy and uv is pairs.uv


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(10)
        h = well_conditioned_homography(rng)
        assert np.allclose(compose(h, Homography.identity()).m, h.m, atol=1e-15)

    def test_inverse_pair_gives_identity(self):
        a = Homography(np.diag([2.0, 2.0, 1.0]))
        b = Homography(np.diag([0.5, 0.5, 1.0]))
        assert np.allclose(compose(a, b).m, Homography.identity().m, atol=1e-15)

    def test_translations_add(self):
        h = compose(translation_homography(3.0, 0.0), translation_homography(0.0, 4.0))
        u, v = project_one(h, 0.0, 0.0)
        assert u == pytest.approx(3.0, abs=1e-12)
        assert v == pytest.approx(4.0, abs=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (well_conditioned_homography(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert np.allclose(left.m, right.m, atol=1e-12)

    def test_matches_projection_chain(self):
        rng = np.random.default_rng(12)
        outer = well_conditioned_homography(rng)
        inner = translation_homography(1.0, -2.0)
        combined = compose(outer, inner)
        for x, y in exact_pairs(combined, rng, 10).xy.tolist():
            direct = project_one(combined, x, y)
            chained = project_one(outer, *project_one(inner, x, y))
            assert math.hypot(direct[0] - chained[0], direct[1] - chained[1]) < 1e-8


class TestReprojectionMetrics:
    def test_exact_pairs_zero(self):
        rng = np.random.default_rng(13)
        h = well_conditioned_homography(rng)
        report = reprojection_metrics(h, *correspondence_arrays(exact_pairs(h, rng, 20)))
        assert report.aed == pytest.approx(0.0, abs=1e-9)
        assert report.rmse == pytest.approx(0.0, abs=1e-9)

    def test_three_four_five_single_pair(self):
        h = Homography.identity()
        pairs = pair_set([[0, 0]], [[3.0, 4.0]])
        report = reprojection_metrics(h, *correspondence_arrays(pairs))
        assert report.aed == pytest.approx(5.0, abs=1e-12)
        assert report.rmse == pytest.approx(5.0, abs=1e-12)
        assert report.n == 1

    def test_mixed_residuals(self):
        h = Homography.identity()
        pairs = pair_set([[1, 1], [2, 2]], [[1.0, 1.0], [8.0, 10.0]])  # residuals 0 and 10
        report = reprojection_metrics(h, *correspondence_arrays(pairs))
        assert report.aed == pytest.approx(5.0, abs=1e-12)
        assert report.rmse == pytest.approx(math.sqrt(50.0), abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            reprojection_metrics(Homography.identity(), np.empty((0, 2)), np.empty((0, 2)))

    def test_matches_naive_loop_and_power_mean(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            h = well_conditioned_homography(rng)
            pairs = exact_pairs(h, rng, int(rng.integers(1, 30)))
            pairs = pair_set(pairs.xy, pairs.uv + rng.normal(0, 3, size=pairs.uv.shape))
            report = reprojection_metrics(h, *correspondence_arrays(pairs))
            res, aed, rmse = naive_metrics(h, pairs)
            assert report.aed == pytest.approx(aed, abs=1e-12)
            assert report.rmse == pytest.approx(rmse, abs=1e-12)
            assert np.allclose(report.per_pair, res, atol=1e-12)
            assert report.rmse >= report.aed - 1e-12

    def test_equal_residuals_make_aed_equal_rmse(self):
        h = Homography.identity()
        pairs = pair_set([[0, 0], [10, 10]], [[3.0, 4.0], [14.0, 13.0]])
        report = reprojection_metrics(h, *correspondence_arrays(pairs))
        assert report.rmse == pytest.approx(report.aed, abs=1e-9)

    def test_rmse_of_huge_residual_is_finite_without_warning(self):
        # 1e300 squared overflows; the RMSE itself, 1e300 / sqrt(2), does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ResidualReport.from_residuals([1e300, 1.0])
        assert report.rmse == pytest.approx(1e300 / math.sqrt(2.0), rel=1e-15)


class TestEstimateHomography:
    def test_fixed_points_give_identity(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        pairs = pair_set(pts, pts)
        h = estimate_homography(*correspondence_arrays(pairs))
        assert np.allclose(h.m, Homography.identity().m, atol=1e-10)

    def test_translation_recovered(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        pairs = pair_set(pts, [(x + 10.0, y + 5.0) for x, y in pts])
        h = estimate_homography(*correspondence_arrays(pairs))
        expected = translation_homography(10.0, 5.0)
        assert np.allclose(h.m, expected.m, atol=1e-10)

    def test_round_trip_twenty_pairs(self):
        rng = np.random.default_rng(15)
        h = well_conditioned_homography(rng)
        recovered = estimate_homography(*correspondence_arrays(exact_pairs(h, rng, 20)))
        assert np.max(np.abs(recovered.m - h.m)) < 1e-8

    def test_minimal_sample_reproduces_pairs(self):
        rng = np.random.default_rng(16)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 4)
        fitted = estimate_homography(*correspondence_arrays(pairs))
        report = reprojection_metrics(fitted, *correspondence_arrays(pairs))
        assert np.all(report.per_pair <= 1e-8)

    def test_insufficient_pairs(self):
        rng = np.random.default_rng(17)
        h = well_conditioned_homography(rng)
        with pytest.raises(InsufficientPairs):
            estimate_homography(*correspondence_arrays(exact_pairs(h, rng, 3)))

    def test_collinear_points_degenerate(self):
        pairs = pair_set([(i, i) for i in range(6)], [(i, i) for i in range(6)])
        with pytest.raises(DegenerateConfiguration):
            estimate_homography(*correspondence_arrays(pairs))

    def test_coincident_points_degenerate(self):
        pairs = pair_set([(1.0, 2.0)] * 5, [(3.0, 4.0)] * 5)
        with pytest.raises(DegenerateConfiguration):
            estimate_homography(*correspondence_arrays(pairs))

    @pytest.mark.parametrize("n", [5, 6, 8, 13, 50, 300])
    def test_thin_svd_gives_the_full_svds_matrix_to_the_bit(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        cases = []
        for k in range(50):
            if k % 2:
                xy, uv = rng.uniform(-5.0, 5.0, (n, 2)), rng.uniform(0.0, 1920.0, (n, 2))
            else:
                pairs = exact_pairs(well_conditioned_homography(rng), rng, n)
                xy, uv = pairs.xy, pairs.uv + rng.normal(0.0, 1e-3, (n, 2))
            cases.append((xy, uv))
        thin = [estimate_homography(xy, uv).m for xy, uv in cases]
        svd = np.linalg.svd
        calls = []

        def full_svd(a, full_matrices=True):
            calls.append(full_matrices)
            return svd(a, full_matrices=True)

        monkeypatch.setattr(np.linalg, "svd", full_svd)
        full = [estimate_homography(xy, uv).m for xy, uv in cases]
        assert calls == [False] * len(cases)
        assert [m.tobytes() for m in thin] == [m.tobytes() for m in full]

    def test_memory_grows_linearly_with_the_pairs(self):
        # The full SVD of the (4000, 9) design builds a (4000, 4000) U,
        # 122 MiB, that is never read.
        rng = np.random.default_rng(2000)
        pairs = exact_pairs(well_conditioned_homography(rng), rng, 2000)
        tracemalloc.start()
        try:
            estimate_homography(pairs.xy, pairs.uv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestRefineHomography:
    def test_optimal_start_is_fixed_point(self):
        rng = np.random.default_rng(18)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergenceWarning)
            refined = refine_homography(*correspondence_arrays(pairs), h)
        assert reprojection_metrics(refined, *correspondence_arrays(pairs)).aed < 1e-9

    def test_recovers_from_pixel_shift(self):
        rng = np.random.default_rng(19)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 50)
        h0 = compose(translation_homography(0.5, 0.0), h)
        refined = refine_homography(*correspondence_arrays(pairs), h0)
        assert np.max(np.abs(refined.m - h.m)) < 1e-6

    def test_noisy_pairs_never_worse_than_start(self):
        rng = np.random.default_rng(20)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 60)
        pairs = pair_set(pairs.xy, pairs.uv + rng.normal(0, 1.0, size=pairs.uv.shape))
        h0 = compose(translation_homography(2.0, -1.0), h)
        refined = refine_homography(*correspondence_arrays(pairs), h0)
        assert (
            reprojection_metrics(refined, *correspondence_arrays(pairs)).aed
            <= reprojection_metrics(h0, *correspondence_arrays(pairs)).aed
        )

    def test_insufficient_pairs(self):
        with pytest.raises(InsufficientPairs):
            refine_homography(np.empty((0, 2)), np.empty((0, 2)), Homography.identity())

    def test_iteration_cap_warns_and_returns_best_iterate(self):
        rng = np.random.default_rng(21)
        h = well_conditioned_homography(rng)
        pairs = exact_pairs(h, rng, 40)
        pairs = pair_set(pairs.xy, pairs.uv + rng.normal(0, 2.0, size=pairs.uv.shape))
        h0 = compose(translation_homography(25.0, -30.0), h)
        with pytest.warns(NonConvergenceWarning):
            refined = refine_homography(*correspondence_arrays(pairs), h0, max_iterations=1)
        assert (
            reprojection_metrics(refined, *correspondence_arrays(pairs)).aed
            <= reprojection_metrics(h0, *correspondence_arrays(pairs)).aed
        )
