"""Subgradient solvers: fixed-step averaging runs, geometric restart
schedules, their p-norm dual-averaging variants, a restart-doubling driver
for unknown error-bound constants, and the decreasing-step baseline.

All solvers consume a :class:`rsgkit.core.ProblemInstance`, make every
check that can refuse the run in one entry before any oracle call, and run
one restart loop that emits a :class:`SolveTrace`.  Given identical inputs
they are bitwise deterministic (the wallclock_ns timing field is
informational and excluded from every reproducibility claim).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    Array,
    ErrorBoundParams,
    PNormSpace,
    ProblemInstance,
    _check_bounds,
    _check_finite,
    _check_shape,
    _check_schedule,
    _qnorm,
)

__all__ = [
    "TraceRecord",
    "StageResult",
    "SolveTrace",
    "RestartConfig",
    "DoublingConfig",
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
        who = "RestartConfig"
        _check_bounds(who, "(1, inf)", alpha=self.alpha)
        _check_bounds(who, "int [1, inf)", stages=self.stages, inner_iters=self.inner_iters)
        iters = int(self.stages) * int(self.inner_iters)
        _check_schedule(who, "stages and inner_iters", iters=iters)
        _check_bounds(who, "(0, inf)", eps0=self.eps0, eta_scale=self.eta_scale)
        if self.target_eps is not None:
            _check_bounds(who, "(0, inf)", target_eps=self.target_eps)
            if self.target_eps > self.eps0:
                raise ValueError(f"{who}: target_eps {self.target_eps} exceeds eps0 {self.eps0}")
        _check_bounds(who, "(1, 2]", norm_p=self.norm_p)
        if self.lambda_mode not in ("unit", "inv_grad_norm"):
            raise ValueError(
                f"{who}: lambda_mode must be 'unit' or 'inv_grad_norm', got {self.lambda_mode!r}"
            )


@dataclass(frozen=True)
class DoublingConfig:
    """Schedule for the restart-doubling driver.

    Each call runs ``restart_every`` geometric-restart stages with the
    current per-stage budget (``t1`` in the first call), then multiplies the
    budget by ``growth`` (default 2**(2*(1-theta))) and calls again,
    warm-started.  Stops after ``max_calls`` calls or when the best
    objective improves by less than rel_tol (relative) across a full call.
    recalibrate_eps0 shrinks the initial-gap estimate between calls by the
    accuracy already achieved.  The RestartConfig handed to :func:`r2sg`
    supplies alpha, eps0 and the geometry; its stages and inner_iters are
    not read.  With n = max_calls, ceil(g t) <= g t + 1 bounds the planned
    iterations by restart_every n (t1 + n) g**(n - 1), which must lie within
    the schedule cap (``core._check_schedule``), else ValueError is raised.
    """

    t1: int
    restart_every: int = 1
    theta: float = 0.0
    max_calls: int = 1
    growth: Optional[float] = None
    rel_tol: float = 1e-10
    recalibrate_eps0: bool = False

    def __post_init__(self) -> None:
        who = "DoublingConfig"
        counts = dict(t1=self.t1, restart_every=self.restart_every, max_calls=self.max_calls)
        _check_bounds(who, "int [1, inf)", **counts)
        _check_bounds(who, "[0, 1)", theta=self.theta)
        if self.growth is not None:
            _check_bounds(who, "(1, inf)", growth=self.growth)
        _check_bounds(who, "[0, inf]", rel_tol=self.rel_tol)
        # g (1 + 2**-51) covers the rounding of each product t g
        n, log_g = self.max_calls, math.log(self.effective_growth) + 2.0**-51
        log_calls = math.log(self.restart_every) + math.log(n) + math.log(self.t1 + n)
        _check_schedule(who, "t1, growth and max_calls", log_calls + (n - 1) * log_g)

    @property
    def effective_growth(self) -> float:
        return self.growth if self.growth is not None else 2.0 ** (2.0 * (1.0 - self.theta))


def compute_stage_count(eps0: float, eps: float, alpha: float) -> int:
    """Stages needed to decay eps0 to eps by factor alpha: ceil(log_alpha(eps0/eps)).

    Exact powers are detected before the ceiling so float noise cannot add a
    stage (eps0/eps = alpha**k returns k exactly).  Floors at 1, and raises
    ValueError when alpha**stages passes the schedule cap.
    """
    _check_bounds("compute_stage_count", "(0, inf)", eps0=eps0, eps=eps)
    if eps > eps0:
        raise ValueError(f"compute_stage_count: eps ({eps}) exceeds eps0 ({eps0})")
    _check_bounds("compute_stage_count", "(1, inf)", alpha=alpha)
    r = (math.log(eps0) - math.log(eps)) / math.log(alpha)
    stages = max(1, math.ceil(r))
    _check_schedule("compute_stage_count", "eps", log_power=stages * math.log(alpha))
    k = round(r)
    if k >= 1 and math.isclose(alpha**k, eps0 / eps, rel_tol=1e-12):
        return k
    return stages


def compute_inner_iters(G: float, eb: ErrorBoundParams, eps: float, alpha: float) -> int:
    """Per-stage iteration budget ceil(alpha**2 G**2 c**2 / eps**(2(1-theta))).
    A budget or factor past the schedule cap, checked first, raises ValueError."""
    _check_bounds("compute_inner_iters", "(0, inf)", G=G, eps=eps)
    _check_bounds("compute_inner_iters", "(1, inf)", alpha=alpha)
    log_top = 2.0 * (math.log(alpha) + math.log(G) + math.log(eb.c))
    log_bottom = 2.0 * (1.0 - eb.theta) * math.log(eps)
    powers = max(log_top, abs(log_bottom))
    _check_schedule("compute_inner_iters", "eps", log_top - log_bottom, powers)
    return max(1, math.ceil((alpha * G * eb.c) ** 2 / eps ** (2.0 * (1.0 - eb.theta))))


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
    a = np.abs(g)
    gq = _check_finite(g, _qnorm(a.ravel(), q)) if a.size else 0.0
    if gq == 0.0:
        return w.copy()
    # ||g||_q**((p-q)/p) * |g_i|**(q-1) == ||g||_q * (|g_i|/||g||_q)**(q-1)
    # since (p-q)/p + (q-1) = 1; the normalized ratios stay in [0, 1], so
    # the q-1 power cannot overflow even as p -> 1 drives q huge.
    ratio = a / gq
    return w - gq * np.sign(g) * ratio ** (q - 1.0)


# entries of the block of kept scores a run holds between two flushes: rows =
# _LOG_BLOCK // width, so its memory stays flat whatever the dataset size
_LOG_BLOCK = 1 << 16


class _TraceBuilder:
    """Shared bookkeeping: cumulative iteration counter, best-so-far,
    stride-subsampled logging, and divergence detection.

    While the problem defers its values (``ProblemInstance._deferred``), a
    logged iteration only keeps the scores of w (with its clock reading); a
    flush turns a block of them into their values in one pass and logs them
    in order, as full blocks, at stage end and on any error.  A divergence
    among them outranks any later error raised before the flush."""

    def __init__(self, problem: ProblemInstance, stride: Optional[int]):
        self.problem = problem
        self.stride = stride
        self._oracle = o = problem._deferred()
        self._block = o and np.empty((max(1, _LOG_BLOCK // o.width), o.width))
        self._pending: list[tuple] = []
        self.trace = SolveTrace()
        self.cum = 0
        self.best = math.inf
        self._t0 = time.monotonic_ns()

    def stride_for(self, T: int) -> int:
        return self.stride if self.stride is not None else max(1, T // 1000)

    def checked_objective(self, w: Array, where: str) -> float:
        val = float(self.problem.objective(w))
        if not math.isfinite(val):
            raise self.diverged(f"non-finite objective ({val}) at {where}")
        return val

    def logged_subgrad(self, w: Array, stage: int, it: int, eta: float, staged: bool) -> Array:
        """Subgradient at w on a logged iteration: logs the checked objective
        at w, or keeps the scores of w for the next flush.  A divergence is
        located at "stage {stage} iter {it}", or at "iter {it}" for a run
        that is not staged."""
        if self._block is not None:
            pending = self._pending
            g = self._oracle.keep(w, self._block[len(pending)])
            pending.append((stage, it, self.cum, eta, time.monotonic_ns() - self._t0, staged))
            if len(pending) == len(self._block):
                self.flush()
            return g
        val = float(self.problem.objective(w))
        self._log(stage, it, self.cum, val, eta, time.monotonic_ns() - self._t0, staged)
        return self.problem.subgrad(w)

    def flush(self) -> None:
        """Log the kept iterations, in order, from one pass over their scores."""
        pending, self._pending = self._pending, []
        if pending:
            vals = self._oracle.kept_values(self._block[: len(pending)]).tolist()
            for (stage, it, cum, eta, ns, staged), val in zip(pending, vals):
                self._log(stage, it, cum, val, eta, ns, staged)

    def diverged(self, message: str) -> DivergenceError:
        self._close_partial()
        return DivergenceError(message, self.trace)

    def _log(
        self, stage: int, it: int, cum: int, obj: float, eta: float, ns: int, staged: bool
    ) -> None:
        if not math.isfinite(obj):
            self.cum = cum
            where = f"stage {stage} iter {it}" if staged else f"iter {it}"
            raise self.diverged(f"non-finite objective ({obj}) at {where}")
        if obj < self.best:
            self.best = obj
        self.trace.records.append(TraceRecord(stage, it, cum, obj, eta, ns, self.best))

    def finish(self, w: Array, obj: float) -> SolveTrace:
        self.trace.final_point = np.array(w, dtype=float, copy=True)
        self.trace.final_objective = obj
        self._close_partial()
        return self.trace

    def _close_partial(self) -> None:
        self.trace.total_iters = self.cum
        self.trace.wallclock_ns_total = time.monotonic_ns() - self._t0


def _stage(
    problem: ProblemInstance, w: Array, T: int, tb: _TraceBuilder, stage: int, rule: tuple
) -> tuple[Array, float]:
    """The one iteration loop behind every solver: T steps of rule from w.

    rule is (eta, step, average): the step size at iteration t, the update
    w_{t+1} = step(t, w_t, g_t), and the stage's averaged point, or None
    for a whole run (the baseline) that returns its last iterate as the
    final point.  That point is checked under the loop's error state, so a
    blown-up run diverges with no numpy warning.  Returns it and its objective.
    """
    subgrad = problem.subgrad
    eta, step, average = rule
    staged = average is not None
    stride = tb.stride_for(T)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        try:
            for t in range(1, T + 1):
                tb.cum += 1
                if t == 1 or t == T or t % stride == 0:
                    g = tb.logged_subgrad(w, stage, t, eta(t), staged)
                else:
                    g = subgrad(w)
                w = step(t, w, g)
        finally:
            # the kept iterations are logged before the average, the plateau
            # test or an error reads the trace; a divergence among them wins
            tb.flush()
        if not staged:
            obj = tb.checked_objective(w, "final point")
        else:
            w = average()
            obj = tb.checked_objective(w, f"stage {stage} average")
            tb.trace.stage_results.append(StageResult(stage, tb.cum, eta(T), obj))
    if obj < tb.best:
        tb.best = obj
    return w, obj


def _projected(
    problem: ProblemInstance, w1: Array, eta: float, T: int, decreasing: bool = False
) -> tuple:
    """Projected step w <- project(w - eta_t g).  With a fixed eta_t = eta
    the stage returns the average of its T pre-update iterates (an sg
    stage); decreasing steps eta_t = eta / sqrt(t) return the last iterate
    (the baseline)."""
    project = problem.project
    acc = np.zeros_like(w1)
    eta_t = (lambda t: eta / math.sqrt(t)) if decreasing else (lambda t: eta)

    def step(t: int, w: Array, g: Array) -> Array:
        nonlocal acc
        if decreasing:
            w = w - eta_t(t) * g
        else:
            acc += w
            w = w - eta * g
        return w if project is None else project(w)

    return eta_t, step, None if decreasing else lambda: acc / T


def _dual_averaging(
    w1: Array, eta: float, space: PNormSpace, lambda_mode: str, tb: _TraceBuilder, stage: int
) -> tuple:
    """Dual averaging in the p-norm geometry: w_{t+1} is the p-norm prox
    around the stage's start w1 of the weighted subgradient sum, and the
    stage returns the weight-averaged iterate.  Unconstrained problems only.
    The prox goes through the module's ``pnorm_prox``, so a wrapper bound
    to that name sees every step."""
    g_hat = np.zeros_like(w1)
    acc = np.zeros_like(w1)
    lam_sum = 0.0
    p, q = space.p, space.q

    def step(t: int, w: Array, g: Array) -> Array:
        nonlocal acc, g_hat, lam_sum
        # a non-finite entry makes a q-norm non-finite, so a scalar test on
        # the norm finds it: a blown-up subgradient or step ends the run as
        # a divergence with its partial trace
        try:
            if lambda_mode == "unit":
                lam = 1.0
            else:
                gq = _check_finite(g, _qnorm(np.abs(g), q))
                # A zero subgradient certifies optimality; any positive
                # weight keeps the average well defined.
                lam = 1.0 / gq if gq > 0.0 else 1.0
            acc += lam * w
            lam_sum += lam
            g_hat += lam * g
            return pnorm_prox(w1, eta * g_hat, p)
        except ValueError as exc:
            raise tb.diverged(f"non-finite q-norm ({exc}) at stage {stage} iter {t}") from None

    return (lambda t: eta), step, lambda: acc / lam_sum


def _initial_eta(cfg: RestartConfig, G: float, eps0: float, space: Optional[PNormSpace]) -> float:
    """Stage-1 step size for the restart schedules, given the current
    initial-gap estimate eps0: for projected stages when space is None, for
    dual-averaging stages in space otherwise."""
    if space is None:
        return cfg.eta_scale * eps0 / (cfg.alpha * G * G)
    if cfg.lambda_mode == "inv_grad_norm":
        return cfg.eta_scale * eps0 * space.modulus / (cfg.alpha * G)
    return cfg.eta_scale * eps0 * space.modulus / (cfg.alpha * G * G)


# the config a plain run's loop reads; its one stage runs at the given step
_PLAIN = RestartConfig()


def _prepare(
    who: str,
    problem: ProblemInstance,
    w0: Array,
    stride: Optional[int],
    eta: Optional[float] = None,
    T: Optional[int] = None,
    space: Optional[PNormSpace] = None,
    lambda_mode: str = "unit",
    cfg: Optional[RestartConfig] = None,
    dcfg: Optional[DoublingConfig] = None,
    dap: bool = False,
    decreasing: bool = False,
) -> Callable[[], tuple[Array, SolveTrace]]:
    """The one entry behind every solver: make each check that can refuse
    the run, then return the run as a closure over the one restart loop, so
    a caller can refuse a run before any oracle call.

    A plain run (no cfg) is one stage of T steps at eta: projected steps
    returning the average, decreasing steps eta / sqrt(t) returning the last
    iterate (the baseline), or dual averaging in space with lambda_mode
    weights.  Otherwise the run restarts by cfg: cfg.stages stages of
    cfg.inner_iters steps, or the doubling schedule of dcfg, with p-norm
    dual-averaging stages in the cfg.norm_p geometry when dap.
    """
    _check_bounds(who, "int [1, inf)", stride=1 if stride is None else stride)
    _check_shape(who, "start point", w0, problem.dim)
    calls, stages, t1, shrink = 1, 1, T, 1.0
    if cfg is None:
        _check_bounds(who, "(0, inf)", **{"eta0" if decreasing else "eta": eta})
        _check_bounds(who, "int [1, inf)", T=T)
        _check_schedule(who, "T", iters=T)
        if lambda_mode not in ("unit", "inv_grad_norm"):
            raise ValueError(f"{who}: unknown lambda_mode {lambda_mode!r}")
        cfg = _PLAIN
    elif not dap and cfg.norm_p != 2.0:
        raise ValueError("rsg runs Euclidean stages; use rsg_dap for norm_p != 2")
    else:
        lambda_mode, stages, t1 = cfg.lambda_mode, cfg.stages, cfg.inner_iters
    space = PNormSpace(cfg.norm_p) if dap else space
    if space is not None and problem.project is not None:
        raise UnsupportedConstraintError(
            "p-norm dual-averaging stages require an unconstrained problem (project is None)"
        )
    if dcfg is not None:
        calls, stages, t1 = dcfg.max_calls, dcfg.restart_every, dcfg.t1
        if dcfg.recalibrate_eps0 and calls > 1:
            _check_schedule(who, "alpha and stages", log_power=stages * math.log(cfg.alpha))
            shrink = cfg.alpha**stages

    def run() -> tuple[Array, SolveTrace]:
        w = problem.feasible(w0)
        tb = _TraceBuilder(problem, stride)
        if dcfg is not None:
            # seed best-so-far with the start so call 1's plateau check
            # compares against f(w0); the first logged record is this same
            # point, so the best column of the trace is unaffected
            tb.best = tb.checked_objective(w, "initial point")
        t, eps0, stage, obj = t1, cfg.eps0, 0, math.nan
        for call in range(calls):
            if call:
                t = math.ceil(t * dcfg.effective_growth)
                if dcfg.recalibrate_eps0:
                    eps0 = eps0 / shrink + (cfg.target_eps or 0.0)
            best_before = tb.best
            step = _initial_eta(cfg, problem.lipschitz_bound, eps0, space) if eta is None else eta
            for _ in range(stages):
                stage += 1
                if space is None:
                    rule = _projected(problem, w, step, t, decreasing)
                else:
                    rule = _dual_averaging(w, step, space, lambda_mode, tb, stage)
                w, obj = _stage(problem, w, t, tb, stage, rule)
                step /= cfg.alpha
            if dcfg is None or best_before - tb.best < dcfg.rel_tol * max(1.0, abs(best_before)):
                break
        return w, tb.finish(w, obj)

    return run


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
    return _prepare("sg_run", problem, w1, stride, eta, T)()


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
    return _prepare("dap_run", problem, w1, stride, eta, T, space, lambda_mode)()


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
    return _prepare("rsg", problem, w0, stride, cfg=cfg)()


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
    return _prepare("rsg_dap", problem, w0, stride, cfg=cfg, dap=True)()


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
    return _prepare("r2sg", problem, w0, stride, cfg=cfg, dcfg=dcfg, dap=cfg.norm_p != 2.0)()


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
    return _prepare("baseline_sg_decreasing", problem, w0, stride, eta0, T, decreasing=True)()[1]
