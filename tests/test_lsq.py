import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from calibrefine import geometry
from calibrefine.errors import DegenerateProjection, NonConvergenceWarning
from calibrefine.geometry import Homography, refine_homography, transform_points
from calibrefine.lsq import damped_least_squares

from conftest import exact_pairs, well_conditioned_homography


def quadratic(target):
    def fun(p):
        return p - target, lambda: np.eye(len(target))

    return fun


def rosenbrock(p):
    r = np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])
    return r, lambda: np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])


class TestDampedLeastSquares:
    def test_converges_on_linear_problem(self):
        target = np.array([3.0, -2.0, 0.5])
        result = damped_least_squares(quadratic(target), np.zeros(3))
        assert result.converged
        assert np.allclose(result.params, target, atol=1e-6)

    def test_zero_cost_start_is_converged_immediately(self):
        target = np.array([1.0, 2.0])
        result = damped_least_squares(quadratic(target), target.copy())
        assert result.converged
        assert result.iterations == 0

    def test_iteration_cap_reported(self):
        # strong curvature mismatch: rosenbrock-style residuals
        result = damped_least_squares(rosenbrock, np.array([-1.5, 2.0]), max_iterations=2)
        assert not result.converged
        assert result.iterations == 2

    def test_cost_never_increases(self):
        def fun(p):
            r = np.array([np.sin(p[0]) + 0.5 * p[0], p[1] ** 3 - 1.0])
            return r, lambda: np.array([[np.cos(p[0]) + 0.5, 0.0], [0.0, 3.0 * p[1] ** 2]])

        start = np.array([2.0, 2.0])
        r0, _ = fun(start)
        result = damped_least_squares(fun, start, max_iterations=50)
        assert result.cost <= float(r0 @ r0)

    def test_non_finite_start_rejected(self):
        def fun(p):
            return np.array([np.inf]), lambda: np.ones((1, 1))

        with pytest.raises(ValueError):
            damped_least_squares(fun, np.zeros(1))


class JacobianLog:
    """Wraps a residual function: records every evaluation's cost, and which
    evaluations had their Jacobian built, how often."""

    def __init__(self, fun):
        self.fun = fun
        self.costs: list[float] = []
        self.built: list[int] = []

    def __call__(self, p):
        r, jacobian = self.fun(p)
        index = len(self.costs)
        self.costs.append(float(r @ r))

        def counted():
            self.built.append(index)
            return jacobian()

        return r, counted

    def kept(self) -> list[int]:
        """The evaluations the minimizer keeps: the start and every trial
        that lowers the best cost so far."""
        kept, best = [0], self.costs[0]
        for k, cost in enumerate(self.costs[1:], 1):
            if np.isfinite(cost) and cost < best:
                kept.append(k)
                best = cost
        return kept


class TestJacobianCount:
    @pytest.mark.parametrize("max_iterations", [1, 2, 5, 100])
    def test_built_once_per_kept_iterate_and_never_for_a_rejected_trial(self, max_iterations):
        log = JacobianLog(rosenbrock)
        result = damped_least_squares(log, np.array([-1.5, 2.0]), max_iterations=max_iterations)
        kept = log.kept()
        assert len(log.built) == len(set(log.built))  # at most once each
        assert set(log.built) <= set(kept)  # never for a rejected trial
        assert len(log.built) <= len(kept)  # accepted steps + 1
        assert result.iterations >= 1 and log.built[0] == 0

    def test_rejected_steps_reuse_the_kept_jacobian(self):
        # The far start makes the undamped steps overshoot, so the run holds
        # rejected trials between its accepted ones.
        log = JacobianLog(rosenbrock)
        damped_least_squares(log, np.array([-30.0, 40.0]), init_damping=1e-12)
        kept = log.kept()
        assert len(log.costs) > len(kept)  # some trial was rejected
        assert set(log.built) <= set(kept) and len(log.built) == len(set(log.built))

    def test_not_built_when_no_iteration_needs_it(self):
        target = np.array([1.0, 2.0])
        log = JacobianLog(quadratic(target))
        damped_least_squares(log, target.copy())  # zero cost: converged at the start
        assert log.built == []

        log = JacobianLog(quadratic(target))
        result = damped_least_squares(log, np.zeros(2), max_iterations=1)
        # one iteration, one accepted step, and no iteration left to use it
        assert result.iterations == 1 and len(log.kept()) == 2
        assert log.built == [0]


# The solver as it was before it built Jacobians lazily, kept as the
# bit-level reference: the 9-column Jacobian in C order, then its free
# columns copied out, built again for every trial step.


def _reference_residuals(params, xy, uv):
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


@dataclass
class ReferenceRun:
    params: np.ndarray
    cost: float
    iterations: int
    converged: bool
    rejected: int  # trial steps that did not lower the cost
    kept_used: int  # kept iterates at which an iteration started


def _reference_solver(fun, p0, max_iterations, init_damping, cost_tol, step_tol=1e-12):
    p = np.asarray(p0, dtype=float).copy()
    r, jac = fun(p)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise ValueError("initial residuals are not finite")

    damping = init_damping
    converged = cost == 0.0
    iterations = rejected = kept_used = 0
    fresh = True
    eye = np.eye(p.size)

    while not converged and iterations < max_iterations:
        iterations += 1
        kept_used += fresh
        fresh = False
        grad = jac.T @ r
        try:
            step = np.linalg.solve(jac.T @ jac + damping * eye, -grad)
        except np.linalg.LinAlgError:
            damping = min(damping * 10.0, 1e15)
            continue
        if np.linalg.norm(step) <= step_tol * (1.0 + np.linalg.norm(p)):
            converged = True
            break
        trial = p + step
        r_trial, jac_trial = fun(trial)
        trial_cost = float(r_trial @ r_trial)
        if np.isfinite(trial_cost) and trial_cost < cost:
            rel_decrease = (cost - trial_cost) / max(cost, 1e-300)
            p, r, jac, cost = trial, r_trial, jac_trial, trial_cost
            fresh = True
            damping = max(damping / 10.0, 1e-15)
            if rel_decrease < cost_tol or cost == 0.0:
                converged = True
        else:
            rejected += 1
            damping *= 10.0
            if damping > 1e15:
                break

    return ReferenceRun(p, cost, iterations, converged, rejected, kept_used)


def _reference_refine(xy, uv, h0, max_iterations, init_damping=1e-3, cost_tol=1e-10):
    p0 = h0.m.ravel().copy()
    gauge = int(np.argmax(np.abs(p0)))
    free = [i for i in range(9) if i != gauge]
    full = p0.copy()

    def fun(free_params):
        full[free] = free_params
        r, jac = _reference_residuals(full, xy, uv)
        return r, jac[:, free]

    run = _reference_solver(fun, p0[free], max_iterations, init_damping, cost_tol)
    full[free] = run.params
    return Homography(full.reshape(3, 3)), run


def _refine_logged(xy, uv, h0, max_iterations):
    """``refine_homography``, with the solver's result and the columns of
    each Jacobian it built."""
    results, built = [], []
    solver, writer = geometry.damped_least_squares, geometry.projection_jacobian

    def logged_solver(*args, **kwargs):
        results.append(solver(*args, **kwargs))
        return results[-1]

    def counted_writer(*args):
        built.append(args[3])
        return writer(*args)

    with mock.patch.object(geometry, "damped_least_squares", logged_solver), mock.patch.object(
        geometry, "projection_jacobian", counted_writer
    ):
        refined = refine_homography(xy, uv, h0, max_iterations=max_iterations)
    (result,) = results
    return refined, result, built


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _problem(seed: int, n: int, noise: float, offset: float, warp: float):
    """Noisy pairs of a random homography and a start moved off it by a
    pixel shift of ``offset`` and a relative entry perturbation ``warp``,
    both scaled to the pixels' spread."""
    rng = np.random.default_rng(seed)
    h = well_conditioned_homography(rng)
    pairs = exact_pairs(h, rng, n)
    xy, uv = pairs.xy, pairs.uv
    spread = float(uv.std()) + 1e-12
    uv = uv + rng.normal(0.0, noise * spread, uv.shape)
    shift = np.eye(3)
    shift[:2, 2] = offset * spread * rng.uniform(-1.0, 1.0, 2)
    h0 = Homography(shift @ h.m * (1.0 + warp * rng.normal(0.0, 1.0, (3, 3))))
    return xy, uv, h0


class TestRefineHomographyBitIdentity:
    """``refine_homography`` returns the same matrix, and its solver the
    same parameters, cost, iteration count and flag, bit for bit, as the
    solver that built the full Jacobian at every trial."""

    def check(self, xy, uv, h0, max_iterations) -> ReferenceRun:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            try:
                want_h, want = _reference_refine(xy, uv, h0, max_iterations)
            except (DegenerateProjection, ValueError):
                assume(False)
            got_h, got, built = _refine_logged(xy, uv, h0, max_iterations)
        assert _bits(got_h.m) == _bits(want_h.m)
        assert _bits(got.params) == _bits(want.params)
        assert _bits(got.cost) == _bits(want.cost)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        # one Jacobian per kept iterate that an iteration started from, all
        # of the 8 free columns
        assert len(built) == want.kept_used
        assert all(len(columns) == 8 for columns in built)
        return want

    @settings(max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 400),
        noise=st.sampled_from([0.0, 1e-4, 1e-2, 0.1]),
        offset=st.sampled_from([0.0, 0.01, 0.3, 2.0]),
        warp=st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.0]),
        max_iterations=st.integers(1, 100),
    )
    def test_matches_the_full_jacobian_solver(self, seed, n, noise, offset, warp, max_iterations):
        xy, uv, h0 = _problem(seed, n, noise, offset, warp)
        self.check(xy, uv, h0, max_iterations)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_through_rejected_steps(self, seed):
        xy, uv, h0 = _problem(seed, 300, 1e-2, 0.3, 1.0)
        want = self.check(xy, uv, h0, 100)
        assert want.rejected > 0


class SharedJacobian:
    """Wraps a residual function so that every ``jacobian()`` returns one
    array, refilled, and every call of the wrapper fills that array with
    NaN first: a solver that read a Jacobian after its next call would
    read NaN."""

    def __init__(self, fun, shape):
        self.fun = fun
        self.buffer = np.full(shape, np.nan, order="F")
        self.returned: set[int] = set()

    def __call__(self, p):
        self.buffer.fill(np.nan)
        r, jacobian = self.fun(p)

        def refill():
            self.buffer.fill(np.nan)
            self.buffer[...] = jacobian()
            self.returned.add(id(self.buffer))
            return self.buffer

        return r, refill


def _projection_fun(xy, uv, h0, out=None):
    """``refine_homography``'s residual function on the 8 free entries,
    writing each Jacobian into ``out`` when given one."""
    p0 = h0.m.ravel().copy()
    free = [i for i in range(9) if i != int(np.argmax(np.abs(p0)))]
    full = p0.copy()

    def fun(free_params):
        full[free] = free_params
        uv_hat, w = transform_points(full.reshape(3, 3), xy)
        return (uv_hat - uv).ravel(), lambda: geometry.projection_jacobian(xy, uv_hat, w, free, out)

    return fun, p0[free]


def _same_result(a, b) -> bool:
    return (_bits(a.params), _bits(a.cost), a.iterations, a.converged) == (
        _bits(b.params),
        _bits(b.cost),
        b.iterations,
        b.converged,
    )


class TestSharedJacobianBuffer:
    """``jacobian()`` may return the same array on every call: the solver
    reads each Jacobian only before its next call."""

    @pytest.mark.parametrize("start", [(-1.5, 2.0), (-30.0, 40.0)])
    def test_shared_buffer_gives_the_fresh_arrays_result(self, start):
        fresh = damped_least_squares(rosenbrock, np.array(start), init_damping=1e-12)
        shared = SharedJacobian(rosenbrock, (2, 2))
        got = damped_least_squares(shared, np.array(start), init_damping=1e-12)
        assert _same_result(got, fresh) and len(shared.returned) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_fit_through_rejected_steps(self, seed):
        xy, uv, h0 = _problem(seed, 300, 1e-2, 0.3, 1.0)
        fun, p0 = _projection_fun(xy, uv, h0)
        fresh = damped_least_squares(fun, p0)
        log = JacobianLog(fun)
        damped_least_squares(log, p0)
        assert len(log.costs) > len(log.kept())  # some trial was rejected

        shared = SharedJacobian(fun, (2 * len(xy), 8))
        assert _same_result(damped_least_squares(shared, p0), fresh)
        buffer = np.full((2 * len(xy), 8), np.nan, order="F")
        written, p0 = _projection_fun(xy, uv, h0, buffer)
        assert _same_result(damped_least_squares(written, p0), fresh)

    @pytest.mark.parametrize("columns", [range(9), [0, 1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 8]])
    def test_projection_jacobian_into_a_nan_buffer_equals_a_fresh_one(self, columns):
        xy, uv, h0 = _problem(7, 50, 1e-2, 0.3, 0.05)
        uv_hat, w = transform_points(h0.m, xy)
        fresh = geometry.projection_jacobian(xy, uv_hat, w, columns)
        buffer = np.full((2 * len(xy), len(columns)), np.nan, order="F")
        got = geometry.projection_jacobian(xy, uv_hat, w, columns, out=buffer)
        assert got is buffer
        assert got.flags.f_contiguous and _bits(got) == _bits(fresh)
        assert _bits(got.T @ got) == _bits(fresh.T @ fresh)
