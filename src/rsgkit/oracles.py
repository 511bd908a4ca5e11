"""Brute-force reference oracles: exhaustive grids, closed-form medians,
long deterministic minimization runs, sublevel-set projections, ray-based
sublevel-radius estimates, and subset enumeration for set functions.

These are desk-scale tools for validating solver output on miniatures;
every one reports how trustworthy its answer is (certified_tol) and refuses
work beyond an explicit budget instead of silently degrading.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Array, ProblemInstance, _check_bounds, pnorm
from .problems import _SCORE_BLOCK, SetFunction, enumerate_table

__all__ = [
    "OracleReport",
    "BudgetError",
    "InconsistentOracleError",
    "grid_min",
    "weighted_median",
    "long_run_min",
    "sublevel_project",
    "sample_level_points",
    "estimate_B_eps",
    "submodular_min_enumerate",
]

# the level-set bisections stop at a bracket of _XTOL * max(1, t); a ray
# that stays below the level for _MAX_EXPAND doublings counts as unbounded
_XTOL = 1e-13
_MAX_EXPAND = 80


class BudgetError(RuntimeError):
    """The request exceeds the oracle's evaluation budget.  ``required``
    carries the estimated cost so the caller can raise the budget knowingly."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class InconsistentOracleError(RuntimeError):
    """An oracle report contradicts direct evaluation (stale or wrong)."""


@dataclass(frozen=True)
class OracleReport:
    """A reference minimum: value, witness point, and provenance.

    certified_tol bounds |fstar - true minimum| when ``certified`` is True;
    for long runs it is only the observed terminal improvement and the flag
    is False.  ``seed`` records any sampling randomness (None = exhaustive
    or closed form).
    """

    fstar: float
    argmin: Array
    method: str  # "grid" | "long_run"
    certified_tol: float
    certified: bool
    params: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "fstar": self.fstar,
            "argmin": np.asarray(self.argmin, dtype=float).tolist(),
            "method": self.method,
            "certified_tol": self.certified_tol,
            "certified": self.certified,
            "params": self.params,
            "seed": self.seed,
        }


def grid_min(
    problem: ProblemInstance,
    box_lo,
    box_hi,
    points_per_dim: int,
    budget: int = 1_000_000,
) -> OracleReport:
    """Exhaustive grid minimization over an axis-aligned box.

    The caller asserts the box contains a minimizer.  Fine certified grids
    are practical for dim <= 3; beyond that only coarse grids fit the
    budget, and the call refuses (BudgetError, with the required count)
    rather than run an over-budget sweep.  certified_tol is the worst-case
    value gap G * ||h||_2 / 2 for grid spacing h: no point of the box is
    farther than half a cell diagonal from a grid point.

    On a constrained problem each grid point is replaced by its projection
    onto the feasible set, which is no farther from a feasible minimizer,
    so the certificate stands.  Grid points are evaluated in C order, in
    blocks, through :meth:`ProblemInstance.values`.  The first minimum in
    that order wins and points where the objective is NaN are skipped (no
    finite point: argmin None, fstar inf).  fstar is
    ``problem.objective(argmin)``; a batch value there that differs from it
    by more than 1e-12 * max(1, |fstar|) raises InconsistentOracleError.
    """
    d = problem.dim
    _check_bounds("grid_min", "int [2, inf)", points_per_dim=points_per_dim)
    lo = np.broadcast_to(np.asarray(box_lo, dtype=float), (d,))
    hi = np.broadcast_to(np.asarray(box_hi, dtype=float), (d,))
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(f"grid_min: box bounds must be finite, got {lo.tolist()} to {hi.tolist()}")
    if np.any(lo >= hi):
        raise ValueError("grid_min: box_lo must be strictly below box_hi")
    total = points_per_dim**d
    if total > budget:
        raise BudgetError(
            f"grid_min: {points_per_dim}**{d} = {total} evaluations exceed the "
            f"budget of {budget}; raise the budget or coarsen the grid",
            required=total,
        )
    axes = [np.linspace(lo[i], hi[i], points_per_dim) for i in range(d)]
    diag = float(np.linalg.norm((hi - lo) / (points_per_dim - 1)))  # ||h||_2
    shape = (points_per_dim,) * d
    block = max(1, _SCORE_BLOCK // d)  # C-order blocks of at most _SCORE_BLOCK entries
    best_v = math.inf
    best_w: Optional[Array] = None
    for start in range(0, total, block):
        idx = np.unravel_index(np.arange(start, min(start + block, total)), shape)
        W = problem.feasible_rows(np.column_stack([axes[i][idx[i]] for i in range(d)]))
        vals = problem.values(W)
        vals = np.where(np.isnan(vals), math.inf, vals)
        k = int(np.argmin(vals))
        if vals[k] < best_v:
            best_v = float(vals[k])
            best_w = W[k].copy()
    fstar = math.inf
    if best_w is not None:
        fstar = float(problem.objective(best_w))
        if not (fstar == best_v or abs(fstar - best_v) <= 1e-12 * max(1.0, abs(fstar))):
            raise InconsistentOracleError(
                f"grid_min: batch value {best_v!r} at {best_w.tolist()} but "
                f"objective there = {fstar!r}"
            )
    return OracleReport(
        fstar=fstar,
        argmin=best_w,
        method="grid",
        certified_tol=0.5 * problem.lipschitz_bound * diag,
        certified=True,
        params={
            "points_per_dim": points_per_dim,
            "lo": lo.tolist(),
            "hi": hi.tolist(),
        },
    )


def weighted_median(values, weights=None) -> float:
    """Lowest minimizer of t -> sum_i weights_i * |t - values_i|.

    Sorts values and returns the first one whose cumulative weight reaches
    half the total, which is the smallest minimizer when the optimum is a
    flat interval (even total weight splits).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("weighted_median: empty input")
    if weights is None:
        w = np.ones_like(v)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != v.shape:
            raise ValueError("weighted_median: weights shape mismatch")
        if np.any(w <= 0):
            raise ValueError("weighted_median: weights must be > 0")
    order = np.argsort(v, kind="stable")
    cw = np.cumsum(w[order])
    half = cw[-1] / 2.0
    idx = int(np.searchsorted(cw, half))
    return float(v[order][idx])


def long_run_min(
    problem: ProblemInstance,
    w0: Array,
    total_iters: int = 200_000,
    stages: int = 30,
) -> OracleReport:
    """Non-certified reference minimum from a long deterministic run.

    An independent projected-subgradient loop (its own code path, not the
    solver module): fixed-step segments whose step starts at a gap-based
    estimate and halves per segment, keeping the best of all iterates and
    segment averages.  certified_tol reports only the final segment's
    observed improvement; the result is an upper bound on the minimum.
    """
    _check_bounds("long_run_min", "int [1, inf)", total_iters=total_iters, stages=stages)
    if total_iters < stages:
        raise ValueError("long_run_min: total_iters must be >= stages")
    objective, subgrad, project = problem.objective, problem.subgrad, problem.project
    w = problem.feasible(np.asarray(w0, dtype=float))
    G = problem.lipschitz_bound
    gap0 = problem.default_eps0(w)
    eta = gap0 / (2.0 * G * G)
    best_f = float(objective(w))
    best_w = w.copy()
    T = total_iters // stages
    prev_stage_best = math.inf
    last_improvement = math.inf
    for _ in range(stages):
        acc = np.zeros_like(w)
        for _t in range(T):
            acc += w
            val = float(objective(w))
            if val < best_f:
                best_f = val
                best_w = w.copy()
            w = w - eta * subgrad(w)
            if project is not None:
                w = project(w)
        avg = acc / T
        val = float(objective(avg))
        if val < best_f:
            best_f = val
            best_w = avg.copy()
        w = avg
        last_improvement = prev_stage_best - best_f if math.isfinite(prev_stage_best) else math.inf
        prev_stage_best = best_f
        eta /= 2.0
    return OracleReport(
        fstar=best_f,
        argmin=best_w,
        method="long_run",
        certified_tol=max(float(last_improvement), 0.0),
        certified=False,
        params={"total_iters": total_iters, "stages": stages},
    )


def _check_report(problem: ProblemInstance, oracle: OracleReport) -> float:
    """Sanity-check a report against direct evaluation; returns f(argmin)."""
    f_arg = float(problem.objective(np.asarray(oracle.argmin, dtype=float)))
    slack = max(oracle.certified_tol, 1e-9 * max(1.0, abs(oracle.fstar)))
    if f_arg > oracle.fstar + slack or f_arg < oracle.fstar - slack:
        raise InconsistentOracleError(
            f"oracle fstar = {oracle.fstar} but objective(argmin) = {f_arg} "
            f"(allowed slack {slack})"
        )
    return f_arg


def sublevel_project(problem: ProblemInstance, w: Array, eps: float, oracle: OracleReport) -> Array:
    """Approximate nearest point of {f <= oracle.fstar + eps} to w.

    Points already inside the sublevel set return unchanged.  Otherwise f is
    bisected along [w, oracle.argmin] for the boundary crossing, down to a
    bracket of _XTOL: exact for one-dimensional problems, an inside
    approximation otherwise.
    Raises InconsistentOracleError when the sublevel set is empty under the
    oracle's fstar (eps below the oracle's own suboptimality).
    """
    _check_bounds("sublevel_project", "(0, inf)", eps=eps)
    w = np.asarray(w, dtype=float)
    level = oracle.fstar + eps
    f_arg = _check_report(problem, oracle)
    f_w = float(problem.objective(w))
    if f_w <= level:
        return w.copy()
    if f_arg > level:
        raise InconsistentOracleError(
            f"sublevel_project: oracle argmin has f = {f_arg} above the level "
            f"{level}; the requested sublevel set is empty under this oracle"
        )
    target = np.asarray(oracle.argmin, dtype=float)
    lo_s, hi_s = 0.0, 1.0  # f(w + s*(target-w)): > level at 0, <= level at 1
    while hi_s - lo_s > _XTOL:
        mid = 0.5 * (lo_s + hi_s)
        if float(problem.objective(w + mid * (target - w))) <= level:
            hi_s = mid
        else:
            lo_s = mid
    return w + hi_s * (target - w)


def _ray_directions(d: int, ray_count: int, seed: int) -> Array:
    """Axis directions first, then seeded random unit vectors."""
    dirs = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        dirs.append(e.copy())
        e[i] = -1.0
        dirs.append(e)
    rng = np.random.default_rng(seed)
    while len(dirs) < max(ray_count, 2 * d):
        v = rng.standard_normal(d)
        n = np.linalg.norm(v)
        if n > 1e-12:
            dirs.append(v / n)
    return np.array(dirs)


def sample_level_points(
    problem: ProblemInstance,
    eps: float,
    oracle: OracleReport,
    ray_count: int = 16,
    seed: int = 0,
) -> list[Array]:
    """Boundary points of {f <= fstar + eps} found by ray bisection.

    Casts rays from the oracle argmin (axis directions first, then seeded
    random ones), expands each until the objective crosses the level, and
    bisects the crossing.  Rays that never cross within _MAX_EXPAND doublings
    (unbounded sublevel directions) are skipped with a warning.  Returned
    points lie inside the sublevel set (inner end of the final bracket).  A
    ray stops bisecting once its bracket is narrower than _XTOL * max(1, t).
    All rays step together: each expansion or bisection step is one
    :meth:`ProblemInstance.values` call on the rays still open.
    """
    _check_bounds("sample_level_points", "(0, inf)", eps=eps)
    f_arg = _check_report(problem, oracle)
    level = oracle.fstar + eps
    if f_arg > level:
        raise InconsistentOracleError(
            "sample_level_points: oracle argmin sits above the requested level"
        )
    center = np.asarray(oracle.argmin, dtype=float)
    dirs = _ray_directions(problem.dim, ray_count, seed)

    def above(t: Array, rays: Array) -> Array:
        """Whether each ray's point at its t lies above the level."""
        return problem.values(problem.feasible_rows(center + t[:, None] * dirs[rays])) > level

    t_lo = np.zeros(len(dirs))
    t_hi = np.full(len(dirs), max(eps / problem.lipschitz_bound, 1e-9))
    crossed = np.zeros(len(dirs), dtype=bool)
    for _ in range(_MAX_EXPAND):
        rays = np.nonzero(~crossed)[0]
        if not rays.size:
            break
        hit = above(t_hi[rays], rays)
        crossed[rays[hit]] = True
        t_lo[rays[~hit]] = t_hi[rays[~hit]]
        t_hi[rays[~hit]] *= 2.0
    for _ in range(int(np.count_nonzero(~crossed))):
        warnings.warn(
            "sample_level_points: ray never crossed the level "
            "(unbounded sublevel direction); skipped",
            stacklevel=2,
        )
    while True:
        mid = 0.5 * (t_lo + t_hi)
        rays = np.nonzero(crossed & (t_hi - t_lo > _XTOL * np.maximum(1.0, t_hi)))[0]
        if not rays.size:
            break
        hit = above(mid[rays], rays)
        t_hi[rays[hit]] = mid[rays[hit]]
        t_lo[rays[~hit]] = mid[rays[~hit]]
    keep = crossed & (t_lo > 0.0)
    return list(problem.feasible_rows(center + t_lo[keep, None] * dirs[keep]))


def estimate_B_eps(
    problem: ProblemInstance,
    eps: float,
    oracle: OracleReport,
    ray_count: int = 16,
    seed: int = 0,
) -> float:
    """Lower estimate of the sublevel-set radius: the largest Euclidean
    distance from the oracle argmin to a level point found by ray bisection.

    A sampling lower bound — rays can miss the farthest boundary point.  The
    distance is measured to the single oracle argmin, so on problems with a
    spread-out optimal set it measures from that witness, not the set.
    """
    pts = sample_level_points(problem, eps, oracle, ray_count=ray_count, seed=seed)
    if not pts:
        raise RuntimeError(
            "estimate_B_eps: no ray crossed the level; the sublevel set looks "
            "unbounded at this eps"
        )
    center = np.asarray(oracle.argmin, dtype=float)
    return max(pnorm(p - center, 2.0) for p in pts)


def submodular_min_enumerate(setfn: SetFunction, budget: int = 1 << 20) -> tuple[float, int]:
    """Exact set-function minimum by enumerating all subsets (<= budget
    evaluations; 2**20 covers ground sets of up to 20 elements).  Returns
    (minimum value, lowest minimizing bitmask)."""
    if (1 << setfn.ground_size) > budget:
        raise BudgetError(
            f"submodular_min_enumerate: 2**{setfn.ground_size} evaluations "
            f"exceed budget {budget}",
            required=1 << setfn.ground_size,
        )
    table = enumerate_table(setfn, budget=budget)
    k = int(np.argmin(table))
    return float(table[k]), k
