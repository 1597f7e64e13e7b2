"""Damped (Levenberg-style) least-squares minimizer behind ``geometry.refine_homography``."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

ResidualFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_TINY = 1e-300
_MAX_DAMPING = 1e15


@dataclass(frozen=True)
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
    """Minimize ``sum(r**2)`` for ``r, J = fun(p)`` starting at ``p0``.

    Steps solve ``(J^T J + lambda I) dp = -J^T r``; lambda is divided by 10
    on accepted steps and multiplied by 10 on rejected ones. Only improving
    steps are accepted, so the returned cost never exceeds the initial one.
    """
    p = np.asarray(p0, dtype=float).copy()
    r, jac = fun(p)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise ValueError("initial residuals are not finite")

    damping = init_damping
    converged = cost == 0.0
    iterations = 0
    eye = np.eye(p.size)

    while not converged and iterations < max_iterations:
        iterations += 1
        grad = jac.T @ r
        try:
            step = np.linalg.solve(jac.T @ jac + damping * eye, -grad)
        except np.linalg.LinAlgError:
            damping = min(damping * 10.0, _MAX_DAMPING)
            continue
        if np.linalg.norm(step) <= step_tol * (1.0 + np.linalg.norm(p)):
            converged = True
            break
        trial = p + step
        r_trial, jac_trial = fun(trial)
        trial_cost = float(r_trial @ r_trial)
        if np.isfinite(trial_cost) and trial_cost < cost:
            rel_decrease = (cost - trial_cost) / max(cost, _TINY)
            p, r, jac, cost = trial, r_trial, jac_trial, trial_cost
            damping = max(damping / 10.0, 1e-15)
            if rel_decrease < cost_tol or cost == 0.0:
                converged = True
        else:
            damping *= 10.0
            if damping > _MAX_DAMPING:
                break

    return LeastSquaresResult(params=p, cost=cost, iterations=iterations, converged=converged)
