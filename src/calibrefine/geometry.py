"""Homogeneous 2D projective geometry: the pair-set and frame types, the
homography type, projection, composition, reprojection-error metrics, the
DLT / least-squares estimators and the one inlier rule (``inlier_score``,
``refit_inliers``) that everything else builds on. Points are
``(N, 2)`` float arrays; the one pair type is ``PairSet``, whose single rows
are plain ``(x, y, u, v, frame_id, source)`` tuples.

Conventions: the ground plane is metric (x, y in meters), the image plane is
pixels (u, v). A homography maps ground points to pixels via
``[u*w, v*w, w] = H [x, y, 1]``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DegenerateProjection,
    EmptySet,
    InsufficientPairs,
    NonConvergenceWarning,
    SingularMatrixError,
    SingularResult,
)
from .lsq import damped_least_squares

#: Absolute threshold on the homogeneous coordinate w below which a
#: projection is treated as mapping to infinity.
W_EPSILON = 1e-12

#: Minimum |det| of a canonically scaled matrix to count as non-singular.
SINGULARITY_TOL = 1e-12

# Frobenius norms within this distance of 1.0 are treated as already
# canonical; this keeps canonicalization idempotent at the bit level.
_NORM_SLACK = 4.0 * np.finfo(float).eps


class Source(Enum):
    """How a correspondence was produced."""

    ORACLE = "oracle"
    GREEDY_MATCHED = "greedy_matched"
    MANUAL = "manual"


_NUMBER_TYPES = (int, float, np.integer, np.floating)


def _require_numbers(name: str, rows) -> None:
    """Refuse rows whose entries are not all integers or floats: an array by
    its dtype, so bool, string and object arrays are refused, and any other
    sequence of rows by the type of each entry, so bools and strings are."""
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind not in "iuf":
            raise ValueError(f"{name} must hold integers or floats, got dtype {rows.dtype}")
        return
    for kind in {*map(type, chain.from_iterable(rows))}:
        if kind is bool or not issubclass(kind, _NUMBER_TYPES):
            raise ValueError(f"{name} must hold integers or floats, got {kind.__name__}")


def _point_array(name: str, points) -> np.ndarray:
    """A read-only (K, 2) float copy of finite integer or float points; an
    empty list is (0, 2)."""
    array = np.array(points, dtype=float)
    if array.shape == (0,):
        array = array.reshape(0, 2)  # an empty list of points
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"{name} must be a (K, 2) array, got shape {array.shape}")
    _require_numbers(name, points)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    array.flags.writeable = False
    return array


def _integers(name: str, values) -> np.ndarray:
    """``values`` as an intp array; ``ValueError`` unless each is an integer."""
    given = np.asarray(values)
    with np.errstate(invalid="ignore"):
        array = given.astype(np.intp)
    if not np.array_equal(array, given):
        raise ValueError(f"{name} must be integers")
    return array


def _frame_id(value) -> int:
    """A frame id as a Python int in ``[0, 2**63)``: an integer of any
    width, not a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"frame_id must be an integer, got {value!r}")
    value = int(value)
    if not 0 <= value < 2**63:
        raise ValueError(f"frame_id must be non-negative and below 2**63, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class Frame:
    """Time-synchronized object centers from both sensors for one timestamp,
    under a ``frame_id`` in ``[0, 2**63)``, the range of the int64 frame ids
    of a ``PairSet``: ``lidar_centers`` holds (K, 2) ground points (x, y) and
    ``camera_centers`` (M, 2) pixels (u, v), as read-only float arrays."""

    frame_id: int
    lidar_centers: np.ndarray
    camera_centers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame_id", _frame_id(self.frame_id))
        for name in ("lidar_centers", "camera_centers"):
            object.__setattr__(self, name, _point_array(name, getattr(self, name)))


@dataclass(frozen=True, eq=False)
class PairSet:
    """Correspondences held as columns: ``xy`` the (N, 2) ground points,
    ``uv`` the (N, 2) pixels, ``frame_ids`` the (N,) frame of each pair and
    ``source`` the (N,) ``Source`` of each (one ``Source`` stands for all
    rows), as read-only arrays checked once when built.

    Iteration yields each row as a plain ``(x, y, u, v, frame_id, source)``
    tuple of Python floats, an int and a ``Source``; an index array, a mask
    or a slice yields a ``PairSet``.
    """

    xy: np.ndarray
    uv: np.ndarray
    frame_ids: np.ndarray
    source: np.ndarray

    def __post_init__(self):
        xy, uv = _point_array("xy", self.xy), _point_array("uv", self.uv)
        frame_ids = np.array(self.frame_ids)
        if frame_ids.size and frame_ids.dtype.kind != "i":
            raise ValueError(f"frame_ids must be 64-bit integers, got dtype {frame_ids.dtype}")
        frame_ids = frame_ids.astype(np.int64, copy=False)
        n = len(xy)
        if frame_ids.shape != (n,) or uv.shape != (n, 2):
            raise ValueError(
                f"xy, uv and frame_ids must hold one row per pair, got shapes "
                f"{xy.shape}, {uv.shape} and {frame_ids.shape}"
            )
        if (frame_ids < 0).any():
            raise ValueError(f"frame_id must be non-negative, got {frame_ids.min()}")
        if isinstance(self.source, Source):
            source = np.full(n, self.source, dtype=object)
        else:
            source = np.empty(len(self.source), dtype=object)
            source[:] = self.source
            if source.shape != (n,) or not {*map(type, source.tolist())} <= {Source}:
                raise ValueError("source must hold one Source per pair")
        for name, column in (("xy", xy), ("uv", uv), ("frame_ids", frame_ids), ("source", source)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def of(cls, pairs: "PairSet | Iterable[tuple]") -> "PairSet":
        """The pair set of ``(x, y, u, v, frame_id, source)`` rows, in order,
        checked once as columns: the inverse of iteration. A ``PairSet`` is
        returned as it is."""
        if isinstance(pairs, PairSet):
            return pairs
        x, y, u, v, frame_ids, source = tuple(zip(*pairs, strict=True)) or ((),) * 6
        return cls([*zip(x, y)], [*zip(u, v)], frame_ids, source)

    @classmethod
    def concat(cls, sets: Iterable["PairSet"]) -> "PairSet":
        """The rows of several pair sets, in order."""
        sets = list(sets)
        return cls(
            np.concatenate([np.empty((0, 2))] + [s.xy for s in sets]),
            np.concatenate([np.empty((0, 2))] + [s.uv for s in sets]),
            np.concatenate([np.empty(0, np.int64)] + [s.frame_ids for s in sets]),
            np.concatenate([np.empty(0, object)] + [s.source for s in sets]),
        )

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            raise TypeError("a PairSet takes an index array, a mask or a slice, not an integer")
        return PairSet(self.xy[index], self.uv[index], self.frame_ids[index], self.source[index])

    def __iter__(self):
        (x, y), (u, v) = self.xy.T.tolist(), self.uv.T.tolist()
        return zip(x, y, u, v, self.frame_ids.tolist(), self.source.tolist())


class FrameStream:
    """Frames as read-only arrays: the ``(F,)`` int64 ``frame_ids``, the
    ``(N, 2)`` ``lidar_xy`` and ``(M, 2)`` ``camera_uv`` rows of every frame
    in frame order, the ``(F,)`` ``camera_counts`` and each row's frame
    index, ``lidar_frame`` and ``camera_frame``. Built from ``(frame_ids,
    lidar_xy, camera_uv, lidar_counts, camera_counts)`` and checked once, as
    ``Frame`` checks one frame and with its messages; the counts must be
    integers that partition the rows, one per frame. ``stream[i]`` is a
    ``Frame`` and ``stream[a:b]`` a ``FrameStream``, views made without a
    copy or a re-check; iteration yields the ``Frame``s."""

    __slots__ = ("frame_ids", "lidar_xy", "camera_uv", "camera_counts", "lidar_frame", "camera_frame")

    def __init__(self, frame_ids, lidar_xy, camera_uv, lidar_counts, camera_counts) -> None:
        ids = [*map(_frame_id, frame_ids)]  # each id as Frame checks it, with its messages
        lidar = _point_array("lidar_centers", lidar_xy)
        camera = _point_array("camera_centers", camera_uv)
        lidar_counts, camera_counts = (_integers("frame counts", c) for c in (lidar_counts, camera_counts))
        if (
            len(lidar_counts) != len(camera_counts)
            or (lidar_counts.sum(), camera_counts.sum()) != (len(lidar), len(camera))
            or (lidar_counts < 0).any()
            or (camera_counts < 0).any()
        ):
            raise ValueError("frame counts do not partition the point arrays")
        if len(lidar_counts) != len(ids):
            raise ValueError(f"{len(ids)} frame ids for {len(lidar_counts)} frame counts")
        frames = np.arange(len(ids))
        lidar_frame, camera_frame = frames.repeat(lidar_counts), frames.repeat(camera_counts)
        self._hold(np.array(ids, dtype=np.int64), lidar, camera, camera_counts, lidar_frame, camera_frame)

    def _hold(self, *columns: np.ndarray) -> "FrameStream":
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            setattr(self, name, column)
        return self

    @classmethod
    def of(cls, frames: "FrameStream | Iterable[Frame]") -> "FrameStream":
        """The stream of ``Frame``s, concatenated in order; a ``FrameStream``
        is returned as it is."""
        if isinstance(frames, FrameStream):
            return frames
        frames = list(frames)
        lidar, camera = [f.lidar_centers for f in frames], [f.camera_centers for f in frames]
        ids, empty = [f.frame_id for f in frames], np.empty((0, 2))
        lidar_xy, camera_uv = np.concatenate([empty, *lidar]), np.concatenate([empty, *camera])
        return cls(ids, lidar_xy, camera_uv, [*map(len, lidar)], [*map(len, camera)])

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __getitem__(self, index):
        frames = range(len(self))[index]  # an index out of range raises as a list's
        if isinstance(frames, int):
            return next(iter(self[frames : frames + 1]))
        if frames.step != 1:
            raise ValueError(f"a FrameStream slice takes no step, got {index.step}")
        first, stop = frames.start, frames.start + len(frames)
        a, b = self.lidar_frame.searchsorted((first, stop))
        c, d = self.camera_frame.searchsorted((first, stop))
        return object.__new__(FrameStream)._hold(
            self.frame_ids[first:stop], self.lidar_xy[a:b], self.camera_uv[c:d],
            self.camera_counts[first:stop], self.lidar_frame[a:b] - first, self.camera_frame[c:d] - first,
        )

    def __iter__(self):
        bounds = np.arange(len(self) + 1)
        la, ca = (rows.searchsorted(bounds).tolist() for rows in (self.lidar_frame, self.camera_frame))
        for frame_id, a, b, c, d in zip(self.frame_ids.tolist(), la, la[1:], ca, ca[1:]):
            frame = object.__new__(Frame)  # points this stream checked: no __post_init__
            vars(frame).update(frame_id=frame_id, lidar_centers=self.lidar_xy[a:b],
                               camera_centers=self.camera_uv[c:d])
            yield frame


def _frobenius(matrix: np.ndarray) -> float:
    """The Frobenius norm as ``np.linalg.norm`` computes it, without its
    wrapper: the square root of the dot of the entries in memory order."""
    flat = matrix.ravel("K")
    return math.sqrt(flat.dot(flat))


def _canonical(matrix: np.ndarray) -> np.ndarray:
    norm = _frobenius(matrix)
    if norm == 0.0 or not math.isfinite(norm):
        raise SingularMatrixError("matrix norm is zero or non-finite")
    # Dividing out the nearest power of two is exact, so matrices that differ
    # only by a power-of-two scale canonicalize to identical bits; the
    # remaining norm is then 1 within slack for already-canonical input,
    # which keeps canonicalization idempotent.
    matrix = matrix / math.ldexp(1.0, round(math.log2(norm)))
    residual = _frobenius(matrix)
    if abs(residual - 1.0) > _NORM_SLACK:
        matrix = matrix / residual
    h33 = matrix[2, 2]
    if h33 != 0.0:
        if h33 < 0.0:
            matrix = -matrix
    else:
        flat = matrix.ravel()
        lead = flat[np.flatnonzero(flat)[0]]
        if lead < 0.0:
            matrix = -matrix
    return matrix


class Homography:
    """Non-singular 3x3 projective map from the ground plane to the image.

    The stored matrix is canonically scaled: Frobenius norm 1 with
    ``h33 >= 0`` (first nonzero entry positive when ``h33 == 0``), so two
    projectively equal matrices compare equal entrywise.
    """

    __slots__ = ("m",)

    def __init__(self, matrix: Iterable) -> None:
        m = np.array(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"homography must be 3x3, got shape {m.shape}")
        _require_numbers("homography entries", matrix)
        if not np.isfinite(m).all():
            raise ValueError("homography entries must be finite")
        m = _canonical(m)
        with np.errstate(divide="ignore"):
            det = np.linalg.det(m)
        if abs(det) <= SINGULARITY_TOL:
            raise SingularMatrixError("matrix is singular within tolerance")
        m.flags.writeable = False
        self.m = m

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Homography):
            return NotImplemented
        return bool(np.array_equal(self.m, other.m))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        rows = ", ".join("[" + ", ".join(f"{v:.6g}" for v in row) + "]" for row in self.m)
        return f"Homography([{rows}])"


def transform_points(matrix: np.ndarray, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply a raw 3x3 matrix to (N, 2) points; returns ((N, 2) uv, (N,) w).

    No degeneracy check: rows with tiny ``w`` come back as inf/nan and the
    caller decides what that means.
    """
    xy = np.asarray(xy, dtype=float)
    x, y = xy[:, 0], xy[:, 1]
    w = matrix[2, 0] * x + matrix[2, 1] * y + matrix[2, 2]
    uv = np.empty((len(xy), 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(matrix[0, 0] * x + matrix[0, 1] * y + matrix[0, 2], w, out=uv[:, 0])
        np.divide(matrix[1, 0] * x + matrix[1, 1] * y + matrix[1, 2], w, out=uv[:, 1])
    return uv, w


def project_points(h: Homography, xy: np.ndarray) -> np.ndarray:
    """Project (N, 2) ground points to pixels, raising on any degenerate row."""
    uv, w = transform_points(h.m, xy)
    if np.any(np.abs(w) <= W_EPSILON):
        raise DegenerateProjection("point maps to infinity under this homography")
    return uv


def compose(outer: Homography, inner: Homography) -> Homography:
    """Return the canonical product ``outer @ inner``."""
    try:
        return Homography(outer.m @ inner.m)
    except SingularMatrixError as exc:
        raise SingularResult("composition produced a singular matrix") from exc


def projection_mask(matrix: np.ndarray, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project (N, 2) ground points through a raw 3x3 matrix.

    Returns the (N, 2) pixels and the (N,) mask of the rows that map to a
    finite pixel, not to infinity; the pixels of the other rows are
    meaningless.
    """
    uv, w = transform_points(matrix, xy)
    return uv, (np.abs(w) > W_EPSILON) & np.isfinite(uv).all(axis=1)


def projectable(matrix: np.ndarray, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project (N, 2) ground points through a raw 3x3 matrix and drop the
    rows that map to infinity or to a non-finite pixel.

    Returns the (K, 2) pixels of the kept rows and their (K,) row indices.
    """
    uv, ok = projection_mask(matrix, xy)
    kept = np.flatnonzero(ok)
    return uv[kept], kept


def correspondence_arrays(pairs: PairSet) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (N, 2) ground and (N, 2) pixel columns of a pair set."""
    return pairs.xy, pairs.uv


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Per-pair reprojection residuals plus their two summary statistics."""

    per_pair: np.ndarray
    aed: float
    rmse: float
    n: int

    @classmethod
    def from_residuals(cls, residuals: np.ndarray) -> "ResidualReport":
        residuals = np.array(residuals, dtype=float)
        residuals.flags.writeable = False
        with np.errstate(over="ignore"):
            rmse = float(np.sqrt(np.mean(residuals**2)))
        if not math.isfinite(rmse) and residuals.size and np.isfinite(residuals).all():
            # the squares overflowed although the RMSE itself is finite:
            # scale by the largest residual first
            top = float(np.max(np.abs(residuals)))
            rmse = top * float(np.sqrt(np.mean((residuals / top) ** 2)))
        return cls(
            per_pair=residuals,
            aed=float(residuals.mean()),
            rmse=rmse,
            n=int(residuals.size),
        )


def reprojection_metrics(h: Homography, xy: np.ndarray, uv: np.ndarray) -> ResidualReport:
    """Euclidean residuals of paired (N, 2) ground and pixel points under
    ``h`` with AED and RMSE summaries."""
    if len(xy) == 0:
        raise EmptySet("reprojection metrics need at least one pair")
    uv_hat = project_points(h, xy)
    residuals = np.hypot(uv_hat[:, 0] - uv[:, 0], uv_hat[:, 1] - uv[:, 1])
    return ResidualReport.from_residuals(residuals)


def _hartley_normalization(points: np.ndarray) -> np.ndarray:
    """Similarity transform taking (N, 2) float points to centroid 0, mean
    distance sqrt(2). The means and distances are numpy's ``mean`` and
    ``linalg.norm`` written out, the same float operations without the
    wrappers' per-call cost."""
    n = len(points)
    centroid = np.add.reduce(points, axis=0) / n
    d = points - centroid
    mean_dist = float(np.add.reduce(np.sqrt(np.add.reduce(d * d, axis=1))) / n)
    if mean_dist <= 0.0:
        raise DegenerateConfiguration("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def estimate_homography(xy: np.ndarray, uv: np.ndarray) -> Homography:
    """Direct linear transform with Hartley normalization on paired (N, 2)
    ground and pixel points.

    Solves the 2N x 9 system for the smallest singular direction and raises
    ``DegenerateConfiguration`` when the pairs cannot pin down all eight
    degrees of freedom (e.g. collinear points).
    """
    n = len(xy)
    if n < 4:
        raise InsufficientPairs(f"need >= 4 pairs, got {n}")
    t_xy = _hartley_normalization(xy)
    t_uv = _hartley_normalization(uv)
    xn = xy @ t_xy[:2, :2].T + t_xy[:2, 2]
    un = uv @ t_uv[:2, :2].T + t_uv[:2, 2]

    design = np.zeros((2 * n, 9))
    x, y = xn[:, 0], xn[:, 1]
    u, v = un[:, 0], un[:, 1]
    design[0::2, 3] = -x
    design[0::2, 4] = -y
    design[0::2, 5] = -1.0
    design[0::2, 6] = v * x
    design[0::2, 7] = v * y
    design[0::2, 8] = v
    design[1::2, 0] = x
    design[1::2, 1] = y
    design[1::2, 2] = 1.0
    design[1::2, 6] = -u * x
    design[1::2, 7] = -u * y
    design[1::2, 8] = -u

    _, sing, vt = np.linalg.svd(design)
    if sing[7] <= 1e-10 * sing[0]:
        raise DegenerateConfiguration("design matrix rank < 8; points are degenerate")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_uv) @ h_norm @ t_xy
    try:
        return Homography(h)
    except SingularMatrixError as exc:
        raise DegenerateConfiguration("estimated matrix is singular") from exc


def projection_jacobian(xy: np.ndarray, uv_hat: np.ndarray, w: np.ndarray, columns) -> np.ndarray:
    """Jacobian of the interleaved (du, dv) residuals of (N, 2) ground points
    wrt the matrix entries listed in ``columns`` (row-major indices 0-8),
    from their projection: the (N, 2) pixels ``uv_hat`` and (N,) ``w`` that
    ``transform_points`` gave.

    Returns a (2N, len(columns)) array in Fortran order, the layout of a
    column selection from the full Jacobian, so that ``J^T J`` and ``J^T r``
    come out the same to the bit.
    """
    n = len(xy)
    jac = np.empty((2 * n, len(columns)), order="F")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_w = 1.0 / w
        x, y = xy[:, 0], xy[:, 1]
        # Row 0 of the matrix moves only u and row 1 only v, each by
        # (x, y, 1) / w; row 2 moves both, by -(u, v) times that, computed
        # as ((-u) * x) * (1 / w): another order of the same product would
        # move the last bits of every fit.
        scaled = (x * inv_w, y * inv_w, inv_w)
        neg_uv = -uv_hat
        for k, entry in enumerate(columns):
            row, col = divmod(entry, 3)
            pairs = jac[:, k].reshape(n, 2)  # a view: the column is contiguous
            if row < 2:
                pairs[:, row] = scaled[col]
                pairs[:, 1 - row] = 0.0
            else:
                np.multiply(neg_uv, (x, y, inv_w)[col][:, None], out=pairs)
                if col < 2:
                    pairs *= inv_w[:, None]
    return jac


def projection_residuals(params: np.ndarray, xy: np.ndarray, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved (du, dv) residuals of the matrix with row-major entries
    ``params`` on paired (N, 2) ground and pixel points, and their Jacobian
    wrt all 9 entries."""
    uv_hat, w = transform_points(params.reshape(3, 3), xy)
    return (uv_hat - uv).ravel(), projection_jacobian(xy, uv_hat, w, range(9))


def refine_homography(
    xy: np.ndarray,
    uv: np.ndarray,
    h0: Homography,
    max_iterations: int = 100,
    init_damping: float = 1e-3,
    cost_tol: float = 1e-10,
) -> Homography:
    """Locally minimize the summed squared reprojection error of paired
    (N, 2) ground and pixel points, starting at h0.

    The projective scale gauge is fixed by freezing the largest-magnitude
    entry of h0; the remaining 8 entries are optimized with damped
    least-squares. Never returns a matrix worse than h0 on the pairs; warns
    with ``NonConvergenceWarning`` if the iteration cap is hit first.
    """
    if len(xy) < 4:
        raise InsufficientPairs(f"need >= 4 pairs, got {len(xy)}")
    p0 = h0.m.ravel().copy()
    gauge = int(np.argmax(np.abs(p0)))
    free = [i for i in range(9) if i != gauge]

    uv0, w0 = transform_points(h0.m, xy)
    if np.any(np.abs(w0) <= W_EPSILON) or not np.all(np.isfinite(uv0)):
        raise DegenerateProjection("a pair projects degenerately under h0")

    full = p0.copy()
    start = [(uv0, w0)]  # the solver's first call is at h0, projected just now

    def fun(free_params: np.ndarray):
        if start:
            uv_hat, w = start.pop()
        else:
            full[free] = free_params
            uv_hat, w = transform_points(full.reshape(3, 3), xy)
        return (uv_hat - uv).ravel(), lambda: projection_jacobian(xy, uv_hat, w, free)

    result = damped_least_squares(
        fun,
        p0[free],
        max_iterations=max_iterations,
        init_damping=init_damping,
        cost_tol=cost_tol,
    )
    if not result.converged:
        warnings.warn(
            "refine_homography hit max_iterations; returning best iterate",
            NonConvergenceWarning,
            stacklevel=2,
        )
    full[free] = result.params
    return Homography(full.reshape(3, 3))


def inlier_score(matrix: np.ndarray, xy: np.ndarray, uv: np.ndarray, threshold: float):
    """Score a raw 3x3 matrix on paired (N, 2) ground and pixel points.

    Returns ``(key, mask, residuals)``: the key ``(-inlier count, inlier
    AED)``, lower is better, with AED ``inf`` for a matrix without inliers;
    the (N,) ``residual <= threshold`` inlier mask, in which NaN residuals
    compare False; and the (N,) residuals of every pair.
    """
    uv_hat, _ = transform_points(matrix, xy)
    with np.errstate(invalid="ignore"):
        residuals = np.hypot(uv_hat[:, 0] - uv[:, 0], uv_hat[:, 1] - uv[:, 1])
    mask = residuals <= threshold
    count = int(np.count_nonzero(mask))
    aed = float(np.add.reduce(residuals[mask]) / count) if count else math.inf
    return (-count, aed), mask, residuals


def refit_inliers(h: Homography, xy: np.ndarray, uv: np.ndarray, threshold: float):
    """Re-estimate ``h`` on its inliers (LO-RANSAC's local optimization):
    refit it with ``refine_homography`` on the pairs within ``threshold``
    and keep the refit only if its ``inlier_score`` key is no worse. Returns
    the kept matrix, its inlier mask and its residuals on every pair;
    ``InsufficientPairs`` below 4 inliers. A refit that hits its iteration
    cap is used without a warning."""
    key, mask, residuals = inlier_score(h.m, xy, uv, threshold)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        refit = refine_homography(xy[mask], uv[mask], h)
    key_r, mask_r, residuals_r = inlier_score(refit.m, xy, uv, threshold)
    if key_r <= key:
        return refit, mask_r, residuals_r
    return h, mask, residuals
