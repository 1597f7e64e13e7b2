import numpy as np
import pytest

from calibrefine.lsq import damped_least_squares


def quadratic(target):
    def fun(p):
        return p - target, np.eye(len(target))

    return fun


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
        def fun(p):
            r = np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])
            jac = np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])
            return r, jac

        result = damped_least_squares(fun, np.array([-1.5, 2.0]), max_iterations=2)
        assert not result.converged
        assert result.iterations == 2

    def test_cost_never_increases(self):
        def fun(p):
            r = np.array([np.sin(p[0]) + 0.5 * p[0], p[1] ** 3 - 1.0])
            jac = np.array([[np.cos(p[0]) + 0.5, 0.0], [0.0, 3.0 * p[1] ** 2]])
            return r, jac

        start = np.array([2.0, 2.0])
        r0, _ = fun(start)
        result = damped_least_squares(fun, start, max_iterations=50)
        assert result.cost <= float(r0 @ r0)

    def test_non_finite_start_rejected(self):
        def fun(p):
            return np.array([np.inf]), np.ones((1, 1))

        with pytest.raises(ValueError):
            damped_least_squares(fun, np.zeros(1))
