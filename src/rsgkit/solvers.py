"""Subgradient solvers: fixed-step averaging runs, geometric restart
schedules, their p-norm dual-averaging variants, a restart-doubling driver
for unknown error-bound constants, and the decreasing-step baseline.

All solvers consume a :class:`rsgkit.core.ProblemInstance` and emit a
:class:`SolveTrace`.  Given identical inputs they are bitwise deterministic
(the wallclock_ns timing field is informational and excluded from every
reproducibility claim).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import Array, ErrorBoundParams, PNormSpace, ProblemInstance, pnorm

__all__ = [
    "TraceRecord",
    "StageResult",
    "SolveTrace",
    "RestartConfig",
    "DoublingConfig",
    "ErrorBoundParams",
    "DivergenceError",
    "UnsupportedConstraintError",
    "compute_stage_count",
    "compute_inner_iters",
    "pnorm_prox",
    "sg_run",
    "rsg",
    "dap_run",
    "rsg_dap",
    "r2sg",
    "baseline_sg_decreasing",
]


class TraceRecord(NamedTuple):
    """One logged iteration.  ``best`` is the lowest objective logged so far."""

    stage: int
    iter: int
    cum_iter: int
    objective: float
    eta: float
    wallclock_ns: int
    best: float


class StageResult(NamedTuple):
    """Objective of the averaged point a stage hands to the next one."""

    stage: int
    cum_iter: int
    eta: float
    objective: float


@dataclass
class SolveTrace:
    """Iteration log plus the final point of a solver run.

    ``records`` holds the stride-subsampled per-iteration log (the CSV rows);
    ``stage_results`` the per-stage averaged objectives (serialized into the
    summary JSON).  ``final_objective`` always equals
    ``objective(final_point)`` as computed at the end of the run.
    """

    records: list[TraceRecord] = field(default_factory=list)
    stage_results: list[StageResult] = field(default_factory=list)
    final_point: Optional[Array] = None
    final_objective: float = math.nan
    total_iters: int = 0
    wallclock_ns_total: int = 0

    @property
    def best_objective(self) -> float:
        """Lowest objective seen anywhere in the run: logged iterations,
        stage averages, and the final point (stage averages and the final
        point are evaluated even when stride subsampling skips records)."""
        candidates = [r.best for r in self.records[-1:]]
        candidates.extend(s.objective for s in self.stage_results)
        if not math.isnan(self.final_objective):
            candidates.append(self.final_objective)
        return min(candidates) if candidates else math.nan


class DivergenceError(RuntimeError):
    """Non-finite objective during a run.  Carries the partial trace."""

    def __init__(self, message: str, trace: SolveTrace):
        super().__init__(message)
        self.trace = trace


class UnsupportedConstraintError(ValueError):
    """A prox-based solver was handed a constrained problem."""


@dataclass(frozen=True)
class RestartConfig:
    """Schedule for the geometric-restart solvers.

    alpha is the per-stage accuracy/step decay (> 1), ``stages`` the number
    of restarts, ``inner_iters`` the fixed per-stage iteration count, eps0
    an upper bound on the initial optimality gap.  norm_p selects the
    geometry (2.0 = Euclidean stages, otherwise p-norm prox stages) and
    lambda_mode the dual-averaging weights ("unit" or "inv_grad_norm").
    eta_scale multiplies the theoretical initial step for experiments.
    """

    alpha: float = 2.0
    stages: int = 1
    inner_iters: int = 1
    eps0: float = 1.0
    target_eps: Optional[float] = None
    norm_p: float = 2.0
    lambda_mode: str = "unit"
    eta_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise ValueError(f"RestartConfig: alpha must be > 1, got {self.alpha}")
        if self.stages < 1:
            raise ValueError(f"RestartConfig: stages must be >= 1, got {self.stages}")
        if self.inner_iters < 1:
            raise ValueError(
                f"RestartConfig: inner_iters must be >= 1, got {self.inner_iters}"
            )
        if not (math.isfinite(self.eps0) and self.eps0 > 0):
            raise ValueError(f"RestartConfig: eps0 must be finite and > 0, got {self.eps0}")
        if self.target_eps is not None and not (0.0 < self.target_eps <= self.eps0):
            raise ValueError(
                f"RestartConfig: target_eps must lie in (0, eps0], got {self.target_eps}"
            )
        if not (1.0 < self.norm_p <= 2.0):
            raise ValueError(f"RestartConfig: norm_p must lie in (1, 2], got {self.norm_p}")
        if self.lambda_mode not in ("unit", "inv_grad_norm"):
            raise ValueError(
                f"RestartConfig: lambda_mode must be 'unit' or 'inv_grad_norm', "
                f"got {self.lambda_mode!r}"
            )
        if not self.eta_scale > 0.0:
            raise ValueError(f"RestartConfig: eta_scale must be > 0, got {self.eta_scale}")


@dataclass(frozen=True)
class DoublingConfig:
    """Schedule for the restart-doubling driver.

    Each call runs ``stages`` geometric-restart stages (``restart_every``
    overrides that count when emulating protocol runs) with the current
    per-stage budget, then multiplies the budget by ``growth`` (default
    2**(2*(1-theta))) and calls again, warm-started.  Stops after
    ``max_calls`` calls or when the best objective improves by less than
    rel_tol (relative) across a full call.  recalibrate_eps0 shrinks the
    initial-gap estimate between calls by the accuracy already achieved.
    """

    t1: int
    stages: int = 1
    theta: float = 0.0
    max_calls: int = 1
    restart_every: Optional[int] = None
    growth: Optional[float] = None
    rel_tol: float = 1e-10
    recalibrate_eps0: bool = False

    def __post_init__(self) -> None:
        if self.t1 < 1:
            raise ValueError(f"DoublingConfig: t1 must be >= 1, got {self.t1}")
        if self.stages < 1:
            raise ValueError(f"DoublingConfig: stages must be >= 1, got {self.stages}")
        if not (0.0 <= self.theta < 1.0):
            raise ValueError(f"DoublingConfig: theta must lie in [0, 1), got {self.theta}")
        if self.max_calls < 1:
            raise ValueError(f"DoublingConfig: max_calls must be >= 1, got {self.max_calls}")
        if self.restart_every is not None and self.restart_every < 1:
            raise ValueError(
                f"DoublingConfig: restart_every must be >= 1, got {self.restart_every}"
            )
        if self.growth is not None and not self.growth > 1.0:
            raise ValueError(f"DoublingConfig: growth must be > 1, got {self.growth}")
        if not self.rel_tol >= 0.0:
            raise ValueError(f"DoublingConfig: rel_tol must be >= 0, got {self.rel_tol}")

    @property
    def stages_per_call(self) -> int:
        return self.restart_every if self.restart_every is not None else self.stages

    @property
    def effective_growth(self) -> float:
        return self.growth if self.growth is not None else 2.0 ** (2.0 * (1.0 - self.theta))


def compute_stage_count(eps0: float, eps: float, alpha: float) -> int:
    """Stages needed to decay eps0 to eps by factor alpha: ceil(log_alpha(eps0/eps)).

    Exact powers are detected before the ceiling so float noise cannot add a
    stage (eps0/eps = alpha**k returns k exactly).  Floors at 1.
    """
    if not (eps0 > 0 and eps > 0):
        raise ValueError("compute_stage_count: eps0 and eps must be > 0")
    if eps > eps0:
        raise ValueError(f"compute_stage_count: eps ({eps}) exceeds eps0 ({eps0})")
    if not alpha > 1.0:
        raise ValueError(f"compute_stage_count: alpha must be > 1, got {alpha}")
    ratio = eps0 / eps
    r = math.log(ratio) / math.log(alpha)
    k = round(r)
    if k >= 1 and math.isclose(alpha**k, ratio, rel_tol=1e-12):
        return k
    return max(1, math.ceil(r))


def compute_inner_iters(G: float, eb: ErrorBoundParams, eps: float, alpha: float) -> int:
    """Per-stage iteration budget ceil(alpha**2 G**2 c**2 / eps**(2(1-theta)))."""
    if not G > 0:
        raise ValueError(f"compute_inner_iters: G must be > 0, got {G}")
    if not eps > 0:
        raise ValueError(f"compute_inner_iters: eps must be > 0, got {eps}")
    if not alpha > 1.0:
        raise ValueError(f"compute_inner_iters: alpha must be > 1, got {alpha}")
    raw = (alpha * G * eb.c) ** 2 / eps ** (2.0 * (1.0 - eb.theta))
    return max(1, math.ceil(raw))


def pnorm_prox(w: Array, g: Array, p: float) -> Array:
    """Minimizer of <g, u> + 0.5*||u - w||_p**2 over all of R^d, p in (1, 2].

    Closed form: u_i = w_i - ||g||_q**((p-q)/p) * sign(g_i) * |g_i|**(q-1)
    with q = p/(p-1); it satisfies ||u - w||_p = ||g||_q.  For p = 2 this is
    the plain step w - g.  g = 0 returns w unchanged.
    """
    if not (1.0 < p <= 2.0):
        raise ValueError(f"pnorm_prox: p must lie in (1, 2], got {p}")
    w = np.asarray(w, dtype=float)
    g = np.asarray(g, dtype=float)
    if p == 2.0:
        return w - g
    q = p / (p - 1.0)
    gq = pnorm(g, q)
    if gq == 0.0:
        return w.copy()
    # ||g||_q**((p-q)/p) * |g_i|**(q-1) == ||g||_q * (|g_i|/||g||_q)**(q-1)
    # since (p-q)/p + (q-1) = 1; the normalized ratios stay in [0, 1], so
    # the q-1 power cannot overflow even as p -> 1 drives q huge.
    ratio = np.abs(g) / gq
    return w - gq * np.sign(g) * ratio ** (q - 1.0)


class _TraceBuilder:
    """Shared bookkeeping: cumulative iteration counter, best-so-far,
    stride-subsampled logging, and divergence detection."""

    def __init__(self, problem: ProblemInstance, stride: Optional[int]):
        if stride is not None and stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.problem = problem
        self.stride = stride
        # the fused (f, g) form, only while problem.objective is the callable
        # it was built with: a replaced objective or subgrad drops it
        fused = getattr(problem.subgrad, "with_value", None)
        if getattr(fused, "objective", None) is not problem.objective:
            fused = None
        self._fused = fused
        self.trace = SolveTrace()
        self.cum = 0
        self.best = math.inf
        self._t0 = time.monotonic_ns()

    def stride_for(self, T: int) -> int:
        return self.stride if self.stride is not None else max(1, T // 1000)

    def checked_objective(self, w: Array, where: str) -> float:
        return self._finite(float(self.problem.objective(w)), where)

    def _finite(self, val: float, where: str) -> float:
        if not math.isfinite(val):
            raise self.diverged(f"non-finite objective ({val}) at {where}")
        return val

    def logged_subgrad(self, w: Array, stage: int, it: int, eta: float, where: str) -> Array:
        """Subgradient at w on a logged iteration: logs the checked objective
        at w first, from the same oracle pass when the fused form applies."""
        if self._fused is None:
            self.log(stage, it, self.checked_objective(w, where), eta)
            return self.problem.subgrad(w)
        val, g = self._fused(w)
        self.log(stage, it, self._finite(val, where), eta)
        return g

    def diverged(self, message: str) -> DivergenceError:
        self._close_partial()
        return DivergenceError(message, self.trace)

    def log(self, stage: int, it: int, obj: float, eta: float) -> None:
        if obj < self.best:
            self.best = obj
        self.trace.records.append(
            TraceRecord(
                stage, it, self.cum, obj, eta, time.monotonic_ns() - self._t0, self.best
            )
        )

    def stage_done(self, stage: int, eta: float, w_avg: Array) -> float:
        obj = self.checked_objective(w_avg, f"stage {stage} average")
        if obj < self.best:
            self.best = obj
        self.trace.stage_results.append(StageResult(stage, self.cum, eta, obj))
        return obj

    def finish(self, w: Array, obj: float) -> SolveTrace:
        self.trace.final_point = np.array(w, dtype=float, copy=True)
        self.trace.final_objective = obj
        self._close_partial()
        return self.trace

    def _close_partial(self) -> None:
        self.trace.total_iters = self.cum
        self.trace.wallclock_ns_total = time.monotonic_ns() - self._t0


def _sg_stage(
    problem: ProblemInstance,
    w1: Array,
    eta: float,
    T: int,
    tb: _TraceBuilder,
    stage: int,
) -> Array:
    """One averaging stage: T projected subgradient steps at fixed eta,
    returning the average of the T pre-update iterates."""
    project = problem.project
    subgrad = problem.subgrad
    w = np.array(w1, dtype=float, copy=True)
    acc = np.zeros_like(w)
    stride = tb.stride_for(T)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for t in range(1, T + 1):
            acc += w
            tb.cum += 1
            if t == 1 or t == T or t % stride == 0:
                g = tb.logged_subgrad(w, stage, t, eta, f"stage {stage} iter {t}")
            else:
                g = subgrad(w)
            w = w - eta * g
            if project is not None:
                w = project(w)
    return acc / T


def sg_run(
    problem: ProblemInstance,
    w1: Array,
    eta: float,
    T: int,
    stride: Optional[int] = None,
) -> tuple[Array, SolveTrace]:
    """Fixed-step projected subgradient run returning the iterate average.

    Starts at w1 (projected if needed), takes T steps of size eta, and
    returns the average of the T pre-update iterates together with the
    trace.  T = 1 returns the starting point itself.
    """
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"sg_run: eta must be finite and > 0, got {eta}")
    if T < 1:
        raise ValueError(f"sg_run: T must be >= 1, got {T}")
    w1 = problem.feasible(w1)
    tb = _TraceBuilder(problem, stride)
    avg = _sg_stage(problem, w1, eta, T, tb, stage=1)
    obj = tb.stage_done(1, eta, avg)
    return avg, tb.finish(avg, obj)


def _dap_stage(
    problem: ProblemInstance,
    w1: Array,
    eta: float,
    T: int,
    space: PNormSpace,
    lambda_mode: str,
    tb: _TraceBuilder,
    stage: int,
) -> Array:
    """One dual-averaging stage in the p-norm geometry.

    Accumulates weighted subgradients and maps them back through the
    p-norm prox centered at the stage's starting point; returns the
    weight-averaged iterate.  Unconstrained problems only.
    """
    subgrad = problem.subgrad
    center = np.array(w1, dtype=float, copy=True)
    w = center.copy()
    g_hat = np.zeros_like(w)
    acc = np.zeros_like(w)
    lam_sum = 0.0
    stride = tb.stride_for(T)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for t in range(1, T + 1):
            tb.cum += 1
            if t == 1 or t == T or t % stride == 0:
                g = tb.logged_subgrad(w, stage, t, eta, f"stage {stage} iter {t}")
            else:
                g = subgrad(w)
            # pnorm raises ValueError when an entry is non-finite, found by a
            # scalar test on the norm it computes: a blown-up subgradient or
            # step ends the run as a divergence with its partial trace
            try:
                if lambda_mode == "unit":
                    lam = 1.0
                else:
                    gq = pnorm(g, space.q)
                    # A zero subgradient certifies optimality; any positive
                    # weight keeps the average well defined.
                    lam = 1.0 / gq if gq > 0.0 else 1.0
                acc += lam * w
                lam_sum += lam
                g_hat = g_hat + lam * g
                w = pnorm_prox(center, eta * g_hat, space.p)
            except ValueError as exc:
                raise tb.diverged(f"non-finite q-norm ({exc}) at stage {stage} iter {t}") from None
    return acc / lam_sum


def dap_run(
    problem: ProblemInstance,
    w1: Array,
    eta: float,
    T: int,
    space: PNormSpace,
    lambda_mode: str = "unit",
    stride: Optional[int] = None,
) -> tuple[Array, SolveTrace]:
    """Weighted dual-averaging run in the p-norm geometry (unconstrained).

    Step t queries a subgradient at w_t, adds it to the running weighted
    sum, and sets w_{t+1} by the closed-form p-norm prox of that sum around
    the starting point.  Returns the lambda-weighted iterate average.
    """
    if problem.project is not None:
        raise UnsupportedConstraintError(
            "dap_run requires an unconstrained problem (project is None)"
        )
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"dap_run: eta must be finite and > 0, got {eta}")
    if T < 1:
        raise ValueError(f"dap_run: T must be >= 1, got {T}")
    if lambda_mode not in ("unit", "inv_grad_norm"):
        raise ValueError(f"dap_run: unknown lambda_mode {lambda_mode!r}")
    tb = _TraceBuilder(problem, stride)
    avg = _dap_stage(problem, np.asarray(w1, dtype=float), eta, T, space, lambda_mode, tb, 1)
    obj = tb.stage_done(1, eta, avg)
    return avg, tb.finish(avg, obj)


def _initial_eta(cfg: RestartConfig, G: float, eps0: float) -> float:
    """Stage-1 step size for the restart schedules in the cfg geometry,
    given the current initial-gap estimate eps0."""
    if cfg.norm_p == 2.0:
        return cfg.eta_scale * eps0 / (cfg.alpha * G * G)
    modulus = cfg.norm_p - 1.0
    if cfg.lambda_mode == "inv_grad_norm":
        return cfg.eta_scale * eps0 * modulus / (cfg.alpha * G)
    return cfg.eta_scale * eps0 * modulus / (cfg.alpha * G * G)


def _restarts(
    problem: ProblemInstance,
    w0: Array,
    cfg: RestartConfig,
    stride: Optional[int],
    dap: bool,
    dcfg: Optional[DoublingConfig] = None,
) -> tuple[Array, SolveTrace]:
    """The restart loop behind rsg, rsg_dap and r2sg.

    dap selects p-norm dual-averaging stages (unconstrained problems only)
    over Euclidean projected steps.  Without dcfg this is one call of
    cfg.stages stages of cfg.inner_iters steps; with dcfg it follows the
    doubling schedule of :class:`DoublingConfig`.
    """
    if dap and problem.project is not None:
        raise UnsupportedConstraintError(
            "p-norm dual-averaging stages require an unconstrained problem (project is None)"
        )
    if not dap and cfg.norm_p != 2.0:
        raise ValueError("rsg runs Euclidean stages; use rsg_dap for norm_p != 2")
    space = PNormSpace(cfg.norm_p) if dap else None
    w = problem.feasible(w0)
    tb = _TraceBuilder(problem, stride)
    if dcfg is None:
        calls, stages, t = 1, cfg.stages, cfg.inner_iters
    else:
        calls, stages, t = dcfg.max_calls, dcfg.stages_per_call, dcfg.t1
        # seed best-so-far with the start so call 1's plateau check compares
        # against f(w0); the first logged record is this same point, so the
        # best column of the trace is unaffected
        tb.best = tb.checked_objective(w, "initial point")
    eps0 = cfg.eps0
    stage = 0
    obj = math.nan
    for _ in range(calls):
        best_before = tb.best
        eta = _initial_eta(cfg, problem.lipschitz_bound, eps0)
        for _ in range(stages):
            stage += 1
            if space is None:
                w = _sg_stage(problem, w, eta, t, tb, stage)
            else:
                w = _dap_stage(problem, w, eta, t, space, cfg.lambda_mode, tb, stage)
            obj = tb.stage_done(stage, eta, w)
            eta /= cfg.alpha
        if dcfg is None or best_before - tb.best < dcfg.rel_tol * max(1.0, abs(best_before)):
            break
        t = math.ceil(t * dcfg.effective_growth)
        if dcfg.recalibrate_eps0:
            eps0 = eps0 / cfg.alpha**stages + (cfg.target_eps or 0.0)
    return w, tb.finish(w, obj)


def rsg(
    problem: ProblemInstance,
    w0: Array,
    cfg: RestartConfig,
    stride: Optional[int] = None,
) -> tuple[Array, SolveTrace]:
    """Geometric-restart subgradient method.

    Runs ``cfg.stages`` averaging stages of ``cfg.inner_iters`` steps each,
    warm-starting every stage from the previous stage's average.  The step
    starts at eta_scale * eps0 / (alpha * G**2) and shrinks by alpha per
    stage, so the stage-k step is eps0 / (alpha**k G**2) at unit scale.
    Raises ValueError for cfg.norm_p != 2 (use rsg_dap).
    """
    return _restarts(problem, w0, cfg, stride, dap=False)


def rsg_dap(
    problem: ProblemInstance,
    w0: Array,
    cfg: RestartConfig,
    stride: Optional[int] = None,
) -> tuple[Array, SolveTrace]:
    """Geometric restarts around the p-norm dual-averaging stage.

    The problem's lipschitz_bound must bound the subgradients in the dual
    q-norm of cfg.norm_p.  The initial step is eps0 (p-1) / (alpha G) for
    inv_grad_norm weights and eps0 (p-1) / (alpha G**2) for unit weights,
    each decaying by alpha per stage.
    """
    return _restarts(problem, w0, cfg, stride, dap=True)


def r2sg(
    problem: ProblemInstance,
    w0: Array,
    dcfg: DoublingConfig,
    cfg: RestartConfig,
    stride: Optional[int] = None,
) -> tuple[Array, SolveTrace]:
    """Restart-doubling driver for unknown error-bound constants.

    Repeatedly invokes the geometric-restart solver (Euclidean stages for
    cfg.norm_p = 2, p-norm prox stages otherwise), warm-starting each call
    at the previous result and growing the per-stage budget by
    dcfg.effective_growth between calls.  Stage indices in the trace run
    consecutively across calls.
    """
    return _restarts(problem, w0, cfg, stride, dap=cfg.norm_p != 2.0, dcfg=dcfg)


def baseline_sg_decreasing(
    problem: ProblemInstance,
    w0: Array,
    eta0: float,
    T: int,
    stride: Optional[int] = None,
) -> SolveTrace:
    """Projected subgradient baseline with step eta0/sqrt(tau).

    Logs both the running objective and the best-so-far value; the final
    point is the last iterate (not an average).
    """
    if not (math.isfinite(eta0) and eta0 > 0):
        raise ValueError(f"baseline_sg_decreasing: eta0 must be > 0, got {eta0}")
    if T < 1:
        raise ValueError(f"baseline_sg_decreasing: T must be >= 1, got {T}")
    project = problem.project
    subgrad = problem.subgrad
    w = problem.feasible(w0)
    tb = _TraceBuilder(problem, stride)
    stride_v = tb.stride_for(T)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for tau in range(1, T + 1):
            eta = eta0 / math.sqrt(tau)
            tb.cum += 1
            if tau == 1 or tau == T or tau % stride_v == 0:
                g = tb.logged_subgrad(w, 1, tau, eta, f"iter {tau}")
            else:
                g = subgrad(w)
            w = w - eta * g
            if project is not None:
                w = project(w)
    obj = tb.checked_objective(w, "final point")
    if obj < tb.best:
        tb.best = obj
    return tb.finish(w, obj)
