"""Solver-independent reference minima, computed once per run before any
timed phase.

The piecewise-linear families are solved exactly as linear programs with
scipy's HiGHS simplex on dense copies of the inputs; the reference value is
then re-evaluated with plain numpy at the LP solution, so no rsgkit code
enters it.  The solves take well under a second, and every run makes them,
so the process's peak memory does not depend on a cache being warm.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class ReferenceSolveError(RuntimeError):
    """The reference solve failed or disagrees with its own re-evaluation."""


def _solve(c, **kwargs) -> np.ndarray:
    res = linprog(c, method="highs-ds", options=_HIGHS, **kwargs)
    if res.status != 0:
        raise ReferenceSolveError(f"reference LP failed: {res.message}")
    return res.x


def _checked(f_np: float, f_lp: float) -> float:
    if abs(f_np - f_lp) > 1e-8 * max(1.0, abs(f_lp)):
        raise ReferenceSolveError(f"LP value {f_lp!r} disagrees with re-evaluation {f_np!r}")
    return f_np


def absolute_loss(X: np.ndarray, y: np.ndarray) -> float:
    """min_w mean_i |x_i . w - y_i|, with residual r = r_plus - r_minus."""
    n, d = X.shape
    x = _solve(
        np.concatenate([np.zeros(d), np.full(2 * n, 1.0 / n)]),
        A_eq=np.hstack([X, -np.eye(n), np.eye(n)]),
        b_eq=y,
        bounds=[(None, None)] * d + [(0, None)] * (2 * n),
    )
    w = x[:d]
    return _checked(float(np.mean(np.abs(X @ w - y))), float(np.sum(x[d:]) / n))


def hinge_l1_ball(X: np.ndarray, y: np.ndarray, radius: float) -> float:
    """min_w mean_i max(0, 1 - y_i x_i . w) subject to ||w||_1 <= radius."""
    n, d = X.shape
    yx = y[:, None] * X
    A = np.vstack(
        [
            np.hstack([-yx, yx, -np.eye(n)]),
            np.concatenate([np.ones(2 * d), np.zeros(n)])[None, :],
        ]
    )
    x = _solve(
        np.concatenate([np.zeros(2 * d), np.full(n, 1.0 / n)]),
        A_ub=A,
        b_ub=np.concatenate([-np.ones(n), [radius]]),
        bounds=[(0, None)] * (2 * d + n),
    )
    w = x[:d] - x[d : 2 * d]
    f_np = float(np.mean(np.maximum(0.0, 1.0 - y * (X @ w))))
    return _checked(f_np, float(np.sum(x[2 * d :]) / n))


def fused_hinge(X: np.ndarray, y: np.ndarray, edges, lam: float) -> float:
    """min_w mean_i max(0, 1 - y_i x_i . w) + lam * sum_e s_e |w_i - w_j|."""
    n, d = X.shape
    m = len(edges)
    s = np.array([e[2] for e in edges], dtype=float)
    F = np.zeros((m, d))
    for k, (i, j, _) in enumerate(edges):
        F[k, i], F[k, j] = 1.0, -1.0
    yx = y[:, None] * X
    A = np.vstack(
        [
            np.hstack([-yx, -np.eye(n), np.zeros((n, m))]),
            np.hstack([F, np.zeros((m, n)), -np.eye(m)]),
            np.hstack([-F, np.zeros((m, n)), -np.eye(m)]),
        ]
    )
    x = _solve(
        np.concatenate([np.zeros(d), np.full(n, 1.0 / n), lam * s]),
        A_ub=A,
        b_ub=np.concatenate([-np.ones(n), np.zeros(2 * m)]),
        bounds=[(None, None)] * d + [(0, None)] * (n + m),
    )
    w = x[:d]
    f_np = float(np.mean(np.maximum(0.0, 1.0 - y * (X @ w))) + lam * np.sum(s * np.abs(F @ w)))
    f_lp = float(np.sum(x[d : d + n]) / n + lam * np.sum(s * x[d + n :]))
    return _checked(f_np, f_lp)
