"""The small-set kernels against their earlier bodies, copied verbatim below.

Those bodies called numpy's wrapper functions (``np.linalg.norm``,
``np.mean``, ``np.column_stack``, ``np.isfinite`` on a Python float) where
the kernels now write the same float operations out. Every result must agree
to the byte, and every refusal must be the same exception with the same
message, both with RuntimeWarnings raised as errors and with them ignored.
"""
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calibrefine import geometry, ransac
from calibrefine.errors import (
    DegenerateConfiguration,
    InsufficientPairs,
    NonConvergenceWarning,
    SingularMatrixError,
)
from calibrefine.geometry import (
    _NORM_SLACK,
    SINGULARITY_TOL,
    Homography,
    _require_numbers,
    estimate_homography,
    inlier_score,
    refine_homography,
    transform_points,
)
from calibrefine.lsq import _MAX_DAMPING, _TINY, LeastSquaresResult, damped_least_squares

from conftest import well_conditioned_homography

# ---------------------------------------------------------------------------
# The earlier bodies. Only the names are changed: each calls the reference
# copies of the others, and Homography's constructor returns its matrix.


def reference_canonical(matrix: np.ndarray) -> np.ndarray:
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


def reference_homography(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"homography must be 3x3, got shape {m.shape}")
    _require_numbers("homography entries", matrix)
    if not np.all(np.isfinite(m)):
        raise ValueError("homography entries must be finite")
    m = reference_canonical(m)
    with np.errstate(divide="ignore"):
        det = np.linalg.det(m)
    if abs(det) <= SINGULARITY_TOL:
        raise SingularMatrixError("matrix is singular within tolerance")
    m.flags.writeable = False
    return m


def reference_transform_points(matrix: np.ndarray, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xy = np.asarray(xy, dtype=float)
    x, y = xy[:, 0], xy[:, 1]
    w = matrix[2, 0] * x + matrix[2, 1] * y + matrix[2, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = (matrix[0, 0] * x + matrix[0, 1] * y + matrix[0, 2]) / w
        v = (matrix[1, 0] * x + matrix[1, 1] * y + matrix[1, 2]) / w
    return np.column_stack([u, v]), w


def reference_hartley_normalization(points: np.ndarray) -> np.ndarray:
    """Similarity transform taking points to centroid 0, mean distance sqrt(2)."""
    centroid = points.mean(axis=0)
    mean_dist = float(np.mean(np.linalg.norm(points - centroid, axis=1)))
    if mean_dist <= 0.0:
        raise DegenerateConfiguration("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def reference_estimate_homography(xy: np.ndarray, uv: np.ndarray) -> np.ndarray:
    n = len(xy)
    if n < 4:
        raise InsufficientPairs(f"need >= 4 pairs, got {n}")
    t_xy = reference_hartley_normalization(xy)
    t_uv = reference_hartley_normalization(uv)
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
        return reference_homography(h)
    except SingularMatrixError as exc:
        raise DegenerateConfiguration("estimated matrix is singular") from exc


def reference_inlier_score(matrix: np.ndarray, xy: np.ndarray, uv: np.ndarray, threshold: float):
    uv_hat, _ = reference_transform_points(matrix, xy)
    with np.errstate(invalid="ignore"):
        residuals = np.hypot(uv_hat[:, 0] - uv[:, 0], uv_hat[:, 1] - uv[:, 1])
    mask = residuals <= threshold
    count = int(mask.sum())
    aed = float(residuals[mask].mean()) if count else math.inf
    return (-count, aed), mask, residuals


def reference_damped_least_squares(
    fun,
    p0: np.ndarray,
    max_iterations: int = 100,
    init_damping: float = 1e-3,
    cost_tol: float = 1e-10,
    step_tol: float = 1e-12,
) -> LeastSquaresResult:
    p = np.asarray(p0, dtype=float).copy()
    r, jacobian = fun(p)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise ValueError("initial residuals are not finite")

    damping = init_damping
    converged = cost == 0.0
    iterations = 0
    eye = np.eye(p.size)
    normal = None  # (J^T J, -J^T r) at p, built when an iteration needs it

    while not converged and iterations < max_iterations:
        iterations += 1
        if normal is None:
            jac = jacobian()
            normal = jac.T @ jac, -(jac.T @ r)
        jtj, neg_grad = normal
        try:
            step = np.linalg.solve(jtj + damping * eye, neg_grad)
        except np.linalg.LinAlgError:
            damping = min(damping * 10.0, _MAX_DAMPING)
            continue
        if np.linalg.norm(step) <= step_tol * (1.0 + np.linalg.norm(p)):
            converged = True
            break
        trial = p + step
        r_trial, jacobian_trial = fun(trial)
        trial_cost = float(r_trial @ r_trial)
        if np.isfinite(trial_cost) and trial_cost < cost:
            rel_decrease = (cost - trial_cost) / max(cost, _TINY)
            p, r, jacobian, cost = trial, r_trial, jacobian_trial, trial_cost
            normal = None
            damping = max(damping / 10.0, 1e-15)
            if rel_decrease < cost_tol or cost == 0.0:
                converged = True
        else:
            damping *= 10.0
            if damping > _MAX_DAMPING:
                break

    return LeastSquaresResult(params=p, cost=cost, iterations=iterations, converged=converged)


def reference_minimal_sample_stream(n_pairs: int, seed: int):
    rng = np.random.Generator(np.random.Philox(seed))
    while True:
        yield tuple(int(i) for i in rng.choice(n_pairs, size=ransac.MINIMAL_SAMPLE, replace=False))


# ---------------------------------------------------------------------------


def _bits(value):
    """A value as comparable bits: arrays by dtype, shape, flags and bytes,
    floats by their hex form (so NaN equals NaN and -0.0 differs from 0.0)."""
    if isinstance(value, Homography):
        return _bits(value.m)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.flags.writeable, value.tobytes()
    if isinstance(value, LeastSquaresResult):
        return _bits((value.params, value.cost, value.iterations, value.converged))
    if isinstance(value, (tuple, list)):
        return tuple(map(_bits, value))
    if isinstance(value, float):
        return type(value), value.hex()
    return type(value), value


def outcome(mode: str, fn, *args):
    """``fn(*args)`` as bits, or its exception's type and message, with
    RuntimeWarnings raised (``"error"``) or ignored (``"ignore"``)."""
    with warnings.catch_warnings():
        warnings.simplefilter(mode, RuntimeWarning)
        try:
            return _bits(fn(*args))
        except Exception as exc:
            return type(exc), str(exc)


def both(fn, reference, *args):
    """The outcomes of ``fn`` and ``reference`` in both warning modes."""
    return (
        [outcome(mode, fn, *args) for mode in ("error", "ignore")],
        [outcome(mode, reference, *args) for mode in ("error", "ignore")],
    )


_SPECIAL = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 0.0, -0.0]
_finite = st.floats(-100.0, 100.0)
# one coordinate in eight special
_coord = st.one_of(*[_finite] * 7, st.sampled_from(_SPECIAL))


@st.composite
def point_sets(draw, n):
    """``n`` points, drawn freely (NaN, +-inf and 1e300 included), finite,
    all coincident, or collinear, sometimes with one coordinate replaced by
    a special value."""
    kind = draw(st.sampled_from(["drawn", "finite", "finite", "finite", "coincident", "collinear"]))
    if kind == "drawn":
        points = [(draw(_coord), draw(_coord)) for _ in range(n)]
    elif kind == "finite":
        points = [(draw(_finite), draw(_finite)) for _ in range(n)]
    elif kind == "coincident":
        points = [(draw(_coord), draw(_coord))] * n
    else:
        (x0, y0), (dx, dy) = (draw(_finite), draw(_finite)), (draw(_finite), draw(_finite))
        points = [(x0 + t * dx, y0 + t * dy) for t in (draw(_finite) for _ in range(n))]
    points = np.array(points, dtype=float).reshape(n, 2)
    if draw(st.integers(0, 3)) == 0:
        points[draw(st.integers(0, n - 1)), draw(st.integers(0, 1))] = draw(st.sampled_from(_SPECIAL))
    return points


@st.composite
def matrices(draw):
    """3x3 matrices: well-conditioned ones scaled by powers of two, 1e300 or
    1e-300, with a zero h33, negated or transposed to Fortran order, and
    matrices of freely drawn entries."""
    if draw(st.booleans()):
        m = np.array([[draw(_coord) for _ in range(3)] for _ in range(3)])
    else:
        m = well_conditioned_homography(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))).m.copy()
        m *= draw(st.sampled_from([1.0, -1.0, 2.0**-40, 2.0**60, 3.0, 1e300, 1e-300, -7.5]))
        if draw(st.booleans()):
            m[2, 2] = 0.0
    return m.T if draw(st.booleans()) else m


def _pixels(draw, xy, n):
    """Pixels for ``xy``: drawn like ground points, or the projection of
    ``xy`` through a well-conditioned matrix, with noise."""
    if draw(st.booleans()):
        return draw(point_sets(n))
    h = well_conditioned_homography(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    with np.errstate(all="ignore"):
        uv, _ = reference_transform_points(h.m, xy)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return uv + rng.normal(0.0, draw(st.sampled_from([0.0, 1e-3, 1.0])), uv.shape)


def _horizon(matrix: np.ndarray, xs) -> np.ndarray:
    """Ground points on the horizon of ``matrix``, where w is (near) zero."""
    with np.errstate(all="ignore"):
        return np.array([(x, -(matrix[2, 0] * x + matrix[2, 2]) / matrix[2, 1]) for x in xs]).reshape(-1, 2)


class TestKernelsEqualTheirReferences:
    @settings(max_examples=400, deadline=None)
    @given(matrix=matrices())
    def test_canonical_and_homography(self, matrix):
        new, old = both(geometry._canonical, reference_canonical, matrix)
        assert new == old
        new, old = both(Homography, reference_homography, matrix)
        assert new == old

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.sampled_from([4, 4, 5, 9, 21]))
    def test_estimate_homography(self, data, n):
        xy = data.draw(point_sets(n))
        uv = _pixels(data.draw, xy, n)
        new, old = both(estimate_homography, reference_estimate_homography, xy, uv)
        assert new == old
        new, old = both(geometry._hartley_normalization, reference_hartley_normalization, xy)
        assert new == old

    def test_nan_sample_raises_linalg_error_from_the_svd(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, math.nan]])
        uv = np.array([[0.0, 0.0], [9.0, 1.0], [1.0, 8.0], [7.0, 7.0]])
        for fn in (estimate_homography, reference_estimate_homography):
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                fn(xy, uv)

    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        matrix=matrices(),
        n=st.integers(0, 30),
        n_horizon=st.integers(0, 3),
        threshold=st.sampled_from([3.0, 0.0, 1e-300, 1e300, math.inf]),
    )
    def test_transform_points_and_inlier_score(self, data, matrix, n, n_horizon, threshold):
        horizon_x = data.draw(st.lists(_finite, min_size=n_horizon, max_size=n_horizon))
        xy = np.concatenate([
            data.draw(point_sets(n)) if n else np.empty((0, 2)),
            _horizon(matrix, horizon_x),
        ])
        uv = _pixels(data.draw, xy, len(xy)) if len(xy) else np.empty((0, 2))
        if len(xy) and data.draw(st.booleans()):
            # residuals equal to the threshold, exactly on it
            with np.errstate(all="ignore"):
                uv = reference_transform_points(matrix, xy)[0] + np.array([threshold, 0.0])
        new, old = both(transform_points, reference_transform_points, matrix, xy)
        assert new == old
        new, old = both(inlier_score, reference_inlier_score, matrix, xy, uv, threshold)
        assert new == old

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(4, 25), start=st.sampled_from([0.0, 1e-3, 0.3, 1e3]))
    def test_refine_homography_step_test(self, data, n, start):
        """``refine_homography`` through either minimizer: the same matrix,
        or the same refusal or warning."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        truth = well_conditioned_homography(rng)
        xy = rng.uniform(-5.0, 5.0, size=(n, 2))
        if data.draw(st.booleans()):
            xy = data.draw(point_sets(n))
        with np.errstate(all="ignore"):
            uv = reference_transform_points(truth.m, xy)[0] + rng.normal(0.0, 0.5, (n, 2))
        try:
            h0 = Homography(truth.m + start * rng.normal(size=(3, 3)))
        except (SingularMatrixError, ValueError):
            return
        max_iterations = data.draw(st.sampled_from([1, 3, 100]))

        def refit():
            with warnings.catch_warnings():
                warnings.simplefilter("error", NonConvergenceWarning)
                return refine_homography(xy, uv, h0, max_iterations=max_iterations)

        new = [outcome(mode, refit) for mode in ("error", "ignore")]
        with mock.patch.object(geometry, "damped_least_squares", reference_damped_least_squares):
            old = [outcome(mode, refit) for mode in ("error", "ignore")]
        assert new == old

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.lists(st.lists(_finite, min_size=3, max_size=3), min_size=1, max_size=6),
        b=st.lists(_coord, min_size=6, max_size=6),
        p0=st.lists(_finite, min_size=3, max_size=3),
        scale=st.sampled_from([1e-3, 1.0, 1.0, 1.0, 1e3, 1e150, 1e300]),
        exp=st.booleans(),
        step_tol=st.sampled_from([1e-12, 1e-12, 0.0, 1.0, math.inf]),
    )
    def test_damped_least_squares(self, a, b, p0, scale, exp, step_tol):
        """Linear and exponential residuals, whose costs and trial costs can
        overflow to inf or turn NaN, from start points of any size."""
        a = np.array(a)
        b = np.array(b[: len(a)])
        p0 = np.array(p0) * scale

        def fun(p):
            with np.errstate(all="ignore"):
                z = a @ p
                if exp:
                    r = np.exp(z) - b
                    return r, lambda: a * np.exp(z)[:, None]
                return z - b, lambda: a

        new, old = both(
            lambda: damped_least_squares(fun, p0, step_tol=step_tol),
            lambda: reference_damped_least_squares(fun, p0, step_tol=step_tol),
        )
        assert new == old

    @settings(max_examples=50)
    @given(n_pairs=st.integers(4, 40), seed=st.integers(0, 2**64 - 1))
    def test_minimal_sample_stream(self, n_pairs, seed):
        new = ransac.minimal_sample_stream(n_pairs, seed)
        old = reference_minimal_sample_stream(n_pairs, seed)
        for _ in range(20):
            sample, expected = next(new), next(old)
            assert sample == expected
            assert all(type(i) is int for i in sample)
