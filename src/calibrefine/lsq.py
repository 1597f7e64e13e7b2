"""Damped (Levenberg-style) least-squares minimizer behind ``geometry.refine_homography``.

The residual function is called as ``r, jacobian = fun(p)``: ``r`` are the
residuals at ``p`` and ``jacobian()`` builds their Jacobian there. The
minimizer builds a Jacobian, and the normal equations from it, only at the
iterates it keeps, so a rejected trial step costs one residual evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

ResidualFn = Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]]

_TINY = 1e-300
_MAX_DAMPING = 1e15


@dataclass(frozen=True, eq=False)
class LeastSquaresResult:
    params: np.ndarray
    cost: float
    iterations: int
    converged: bool


def damped_least_squares(
    fun: ResidualFn,
    p0: np.ndarray,
    max_iterations: int = 100,
    init_damping: float = 1e-3,
    cost_tol: float = 1e-10,
    step_tol: float = 1e-12,
) -> LeastSquaresResult:
    """Minimize ``sum(r**2)`` for ``r, jacobian = fun(p)`` starting at ``p0``,
    where ``jacobian()`` returns the Jacobian of ``r`` at that ``p``.

    Steps solve ``(J^T J + lambda I) dp = -J^T r``; lambda is divided by 10
    on accepted steps and multiplied by 10 on rejected ones. Only improving
    steps are accepted, so the returned cost never exceeds the initial one.
    ``jacobian()`` is called at most once per kept iterate (the start and
    each accepted step), and only when a further iteration needs it; a
    rejected step reuses ``J^T J`` and ``J^T r``. The solver reads each
    Jacobian only to form those two, before it calls ``fun`` or
    ``jacobian()`` again, so every ``jacobian()`` may return the same array,
    refilled.
    """
    p = np.asarray(p0, dtype=float).copy()
    r, jacobian = fun(p)
    cost = float(r @ r)
    if not math.isfinite(cost):
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
        # the norms as np.linalg.norm computes them, without its wrapper
        if math.sqrt(step.dot(step)) <= step_tol * (1.0 + math.sqrt(p.dot(p))):
            converged = True
            break
        trial = p + step
        r_trial, jacobian_trial = fun(trial)
        trial_cost = float(r_trial @ r_trial)
        if math.isfinite(trial_cost) and trial_cost < cost:
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
