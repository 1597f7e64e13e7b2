"""Homogeneous 2D projective geometry: the point, pair, pair-set and frame
types, the homography type, projection, composition, reprojection-error
metrics, and the DLT / least-squares estimators that everything else builds
on.

Conventions: the ground plane is metric (x, y in meters), the image plane is
pixels (u, v). A homography maps ground points to pixels via
``[u*w, v*w, w] = H [x, y, 1]``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

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


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} components must be finite, got {values}")


@dataclass(frozen=True)
class PlanePoint:
    """A point on the 2D ground plane, in meters."""

    x: float
    y: float

    def __post_init__(self):
        _require_finite("PlanePoint", self.x, self.y)


@dataclass(frozen=True)
class PixelPoint:
    """An image-plane point in pixels; may lie outside image bounds."""

    u: float
    v: float

    def __post_init__(self):
        _require_finite("PixelPoint", self.u, self.v)


class Source(Enum):
    """How a correspondence was produced."""

    ORACLE = "oracle"
    GREEDY_MATCHED = "greedy_matched"
    MANUAL = "manual"


@dataclass(frozen=True)
class Correspondence:
    """One ground-plane point paired with one pixel-plane point."""

    lidar: PlanePoint
    pixel: PixelPoint
    frame_id: int = 0
    source: Source = Source.MANUAL

    def __post_init__(self):
        if self.frame_id < 0:
            raise ValueError(f"frame_id must be non-negative, got {self.frame_id}")


def _point_array(name: str, points) -> np.ndarray:
    """A read-only (K, 2) float copy of finite points; an empty list is (0, 2)."""
    points = np.array(points, dtype=float)
    if points.shape == (0,):
        points = points.reshape(0, 2)  # an empty list of points
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"{name} must be a (K, 2) array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError(f"{name} must be finite")
    points.flags.writeable = False
    return points


@dataclass(frozen=True, eq=False)
class Frame:
    """Time-synchronized object centers from both sensors for one timestamp,
    under a non-negative ``frame_id``: ``lidar_centers`` holds (K, 2) ground
    points (x, y) and ``camera_centers`` (M, 2) pixels (u, v), as read-only
    float arrays."""

    frame_id: int
    lidar_centers: np.ndarray
    camera_centers: np.ndarray

    def __post_init__(self):
        if self.frame_id < 0:
            raise ValueError(f"frame_id must be non-negative, got {self.frame_id}")
        for name in ("lidar_centers", "camera_centers"):
            object.__setattr__(self, name, _point_array(name, getattr(self, name)))


@dataclass(frozen=True, eq=False)
class PairSet:
    """Correspondences held as columns: ``xy`` the (N, 2) ground points,
    ``uv`` the (N, 2) pixels, ``frame_ids`` the (N,) frame of each pair and
    ``source`` the (N,) ``Source`` of each (one ``Source`` stands for all
    rows), as read-only arrays checked once when built.

    A sequence of correspondences: an integer index, and iteration, yield a
    ``Correspondence``; an index array or a slice yields a ``PairSet``.
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
    def of(cls, pairs: "PairSet | Sequence[Correspondence]") -> "PairSet":
        """The pair set of a correspondence sequence, in order; a ``PairSet``
        is returned as it is."""
        if isinstance(pairs, PairSet):
            return pairs
        return cls(
            np.column_stack([[c.lidar.x for c in pairs], [c.lidar.y for c in pairs]]),
            np.column_stack([[c.pixel.u for c in pairs], [c.pixel.v for c in pairs]]),
            [c.frame_id for c in pairs],
            [c.source for c in pairs],
        )

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
            (x, y), (u, v) = self.xy[index].tolist(), self.uv[index].tolist()
            return Correspondence(
                PlanePoint(x, y), PixelPoint(u, v), int(self.frame_ids[index]), self.source[index]
            )
        return PairSet(self.xy[index], self.uv[index], self.frame_ids[index], self.source[index])

    def __iter__(self):
        for (x, y), (u, v), frame_id, source in zip(
            self.xy.tolist(), self.uv.tolist(), self.frame_ids.tolist(), self.source.tolist()
        ):
            yield Correspondence(PlanePoint(x, y), PixelPoint(u, v), frame_id, source)


def stream_arrays(frames: Iterable[Frame]) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
    """A stream's LiDAR and camera centers, each concatenated in frame order
    into one (N, 2) array, and each frame's number of rows in them. The
    frames are read once, so any iterable will do."""
    frames = list(frames)
    lidar = [f.lidar_centers for f in frames]
    camera = [f.camera_centers for f in frames]
    return (
        np.concatenate(lidar) if lidar else np.empty((0, 2)),
        np.concatenate(camera) if camera else np.empty((0, 2)),
        [len(xy) for xy in lidar],
        [len(uv) for uv in camera],
    )


def _canonical(matrix: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(matrix))
    if norm == 0.0 or not math.isfinite(norm):
        raise SingularMatrixError("matrix norm is zero or non-finite")
    # Dividing out the nearest power of two is exact, so matrices that differ
    # only by a power-of-two scale canonicalize to identical bits; the
    # remaining norm is then 1 within slack for already-canonical input,
    # which keeps canonicalization idempotent.
    matrix = matrix / math.ldexp(1.0, round(math.log2(norm)))
    residual = float(np.linalg.norm(matrix))
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
        if not np.all(np.isfinite(m)):
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = (matrix[0, 0] * x + matrix[0, 1] * y + matrix[0, 2]) / w
        v = (matrix[1, 0] * x + matrix[1, 1] * y + matrix[1, 2]) / w
    return np.column_stack([u, v]), w


def project_points(h: Homography, xy: np.ndarray) -> np.ndarray:
    """Project (N, 2) ground points to pixels, raising on any degenerate row."""
    uv, w = transform_points(h.m, xy)
    if np.any(np.abs(w) <= W_EPSILON):
        raise DegenerateProjection("point maps to infinity under this homography")
    return uv


def project(h: Homography, p: PlanePoint) -> PixelPoint:
    """Project a single ground-plane point to the image plane."""
    uv = project_points(h, np.array([[p.x, p.y]]))
    return PixelPoint(float(uv[0, 0]), float(uv[0, 1]))


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


def correspondence_arrays(
    pairs: PairSet | Sequence[Correspondence],
) -> tuple[np.ndarray, np.ndarray]:
    """Split correspondences into (N, 2) ground and (N, 2) pixel arrays: the
    read-only columns of ``PairSet.of(pairs)``."""
    pairs = PairSet.of(pairs)
    return pairs.xy, pairs.uv


@dataclass(frozen=True)
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
    """Similarity transform taking points to centroid 0, mean distance sqrt(2)."""
    centroid = points.mean(axis=0)
    mean_dist = float(np.mean(np.linalg.norm(points - centroid, axis=1)))
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


def projection_residuals(params: np.ndarray, xy: np.ndarray, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved (du, dv) residuals of the matrix with row-major entries
    ``params`` on paired (N, 2) ground and pixel points, and their Jacobian
    wrt all 9 entries."""
    m = params.reshape(3, 3)
    uv_hat, w = transform_points(m, xy)
    r = (uv_hat - uv).ravel()

    n = xy.shape[0]
    jac = np.zeros((2 * n, 9))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_w = 1.0 / w
        x, y = xy[:, 0], xy[:, 1]
        u_hat, v_hat = uv_hat[:, 0], uv_hat[:, 1]
        jac[0::2, 0] = x * inv_w
        jac[0::2, 1] = y * inv_w
        jac[0::2, 2] = inv_w
        jac[0::2, 6] = -u_hat * x * inv_w
        jac[0::2, 7] = -u_hat * y * inv_w
        jac[0::2, 8] = -u_hat * inv_w
        jac[1::2, 3] = x * inv_w
        jac[1::2, 4] = y * inv_w
        jac[1::2, 5] = inv_w
        jac[1::2, 6] = -v_hat * x * inv_w
        jac[1::2, 7] = -v_hat * y * inv_w
        jac[1::2, 8] = -v_hat * inv_w
    return r, jac


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

    full = p0.copy()

    def fun(free_params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        full[free] = free_params
        r, jac = projection_residuals(full, xy, uv)
        return r, jac[:, free]

    uv0, w0 = transform_points(h0.m, xy)
    if np.any(np.abs(w0) <= W_EPSILON) or not np.all(np.isfinite(uv0)):
        raise DegenerateProjection("a pair projects degenerately under h0")

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
