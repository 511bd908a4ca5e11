import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import pnorm_reference
from rsgkit import solvers
from rsgkit.core import ErrorBoundParams, Oracle, PNormSpace, ProblemInstance, pnorm
from rsgkit.data import synth_classification, synth_regression
from rsgkit.problems import (
    GFlassoGraph,
    gflasso_svm,
    miniature_zoo,
    piecewise_linear_erm,
    robust_regression,
)
from rsgkit.solvers import (
    DivergenceError,
    DoublingConfig,
    RestartConfig,
    UnsupportedConstraintError,
    baseline_sg_decreasing,
    check_restarts,
    compute_inner_iters,
    compute_stage_count,
    dap_run,
    pnorm_prox,
    r2sg,
    rsg,
    rsg_dap,
    sg_run,
)


def abs_1d():
    return ProblemInstance(
        dim=1,
        objective=lambda w: float(np.abs(w).sum()),
        subgrad=lambda w: np.sign(w),
        lipschitz_bound=1.0,
        known_fstar=0.0,
    )


def half_sq(dim=1):
    return ProblemInstance(
        dim=dim,
        objective=lambda w: 0.5 * float(w @ w),
        subgrad=lambda w: w.copy(),
        lipschitz_bound=4.0,  # valid on ||w|| <= 4, where all test runs stay
        known_fstar=0.0,
    )


def l1_nd(dim):
    return ProblemInstance(
        dim=dim,
        objective=lambda w: float(np.abs(w).sum()),
        subgrad=lambda w: np.sign(w),
        lipschitz_bound=math.sqrt(dim),
        known_fstar=0.0,
    )


# ---------------------------------------------------------------- sg_run


def test_sg_run_hand_simulated_abs():
    # |w|, w1=1, eta=0.1: iterates 1.0, 0.9, ..., 0.1; average 0.55
    avg, trace = sg_run(abs_1d(), np.array([1.0]), eta=0.1, T=10, stride=1)
    assert avg[0] == pytest.approx(0.55, abs=1e-15)
    objs = [r.objective for r in trace.records]
    np.testing.assert_allclose(objs, [1.0 - 0.1 * k for k in range(10)], atol=1e-12)
    assert trace.final_objective == pytest.approx(0.55, abs=1e-15)


def test_sg_run_T1_returns_start():
    w1 = np.array([0.7, -0.3])
    avg, trace = sg_run(l1_nd(2), w1, eta=0.5, T=1)
    np.testing.assert_array_equal(avg, w1)
    assert trace.total_iters == 1


def test_sg_run_two_gradient_steps():
    # f = 0.5||w||^2, w1=(1,0), eta=0.5: iterates (1,0), (0.5,0); average (0.75,0)
    avg, _ = sg_run(half_sq(2), np.array([1.0, 0.0]), eta=0.5, T=2)
    np.testing.assert_allclose(avg, [0.75, 0.0], atol=1e-15)


def test_sg_run_validates_args():
    with pytest.raises(ValueError):
        sg_run(abs_1d(), np.array([1.0]), eta=0.0, T=5)
    with pytest.raises(ValueError):
        sg_run(abs_1d(), np.array([1.0]), eta=0.1, T=0)


def test_sg_run_projects_start_and_iterates():
    prob = ProblemInstance(
        dim=1,
        objective=lambda w: float(np.abs(w).sum()),
        subgrad=lambda w: np.sign(w),
        lipschitz_bound=1.0,
        project=lambda w: np.clip(w, -0.5, 0.5),
    )
    avg, trace = sg_run(prob, np.array([3.0]), eta=0.1, T=5, stride=1)
    assert trace.records[0].objective == pytest.approx(0.5)  # start was projected
    assert abs(avg[0]) <= 0.5 + 1e-15


def test_trace_invariants():
    _, trace = sg_run(half_sq(2), np.array([1.0, 1.0]), eta=0.1, T=50, stride=7)
    cums = [r.cum_iter for r in trace.records]
    assert cums == sorted(cums) and len(set(cums)) == len(cums)
    stages = [r.stage for r in trace.records]
    assert stages == sorted(stages)
    # final objective recomputed from the final point
    assert trace.final_objective == pytest.approx(
        0.5 * float(trace.final_point @ trace.final_point), abs=1e-12
    )
    # best column is the running minimum of logged objectives
    best = math.inf
    for r in trace.records:
        best = min(best, r.objective)
        assert r.best == pytest.approx(best, abs=0.0)


# ---------------------------------------------------------------- schedules


def test_compute_stage_count():
    assert compute_stage_count(1.0, 0.25, 2.0) == 2
    assert compute_stage_count(1.0, 0.3, 2.0) == 2  # log2(10/3) ~ 1.74
    assert compute_stage_count(10.0, 10.0, 2.0) == 1  # floor at one stage
    assert compute_stage_count(1.0, 2.0**-6, 2.0) == 6  # exact power, no over-round
    assert compute_stage_count(1.0, 1.0 / 64.0 + 1e-15, 2.0) == 6
    with pytest.raises(ValueError):
        compute_stage_count(1.0, 2.0, 2.0)


def test_compute_inner_iters():
    # theta=0: t = ceil(a^2 G^2 c^2 / eps^2)
    assert compute_inner_iters(1.0, ErrorBoundParams(0.0, 1.0), 0.1, 2.0) == 400
    # theta=1: independent of eps
    t_a = compute_inner_iters(3.0, ErrorBoundParams(1.0, 0.5), 0.1, 2.0)
    t_b = compute_inner_iters(3.0, ErrorBoundParams(1.0, 0.5), 1e-6, 2.0)
    assert t_a == t_b == math.ceil(4 * 9 * 0.25)
    # theta=1/2 with c=sqrt(2/lam) matches 2 a^2 G^2/(lam eps)
    lam = 0.5
    t = compute_inner_iters(1.0, ErrorBoundParams(0.5, math.sqrt(2 / lam)), 0.1, 2.0)
    assert t == math.ceil(2 * 4 / (lam * 0.1))


def test_rsg_single_stage_equals_sg_run():
    prob = l1_nd(3)
    w0 = np.array([1.0, -2.0, 0.5])
    cfg = RestartConfig(alpha=2.0, stages=1, inner_iters=20, eps0=3.5)
    w_rsg, tr_rsg = rsg(prob, w0, cfg, stride=1)
    eta1 = 3.5 / (2.0 * prob.lipschitz_bound**2)
    w_sg, tr_sg = sg_run(prob, w0, eta1, 20, stride=1)
    np.testing.assert_array_equal(w_rsg, w_sg)
    assert [r.objective for r in tr_rsg.records] == [r.objective for r in tr_sg.records]


def test_rsg_step_schedule_exact():
    # alpha=2, G=1, eps0=1: stage-k step is exactly 2^-k
    cfg = RestartConfig(alpha=2.0, stages=5, inner_iters=8, eps0=1.0)
    _, trace = rsg(abs_1d(), np.array([1.0]), cfg, stride=1)
    for rec in trace.records:
        assert rec.eta == 2.0 ** (-rec.stage)
    assert [s.eta for s in trace.stage_results] == [2.0 ** (-k) for k in range(1, 6)]


def test_rsg_eta_scale():
    cfg = RestartConfig(alpha=2.0, stages=1, inner_iters=4, eps0=1.0, eta_scale=0.25)
    _, trace = rsg(abs_1d(), np.array([1.0]), cfg, stride=1)
    assert trace.records[0].eta == 0.25 / 2.0


def test_rsg_stage_recursion_on_abs():
    # t=16 >= a^2 G^2 / kappa^2 = 4, K=6: per-stage gap <= eps0/2^k + eps
    cfg = RestartConfig(alpha=2.0, stages=6, inner_iters=16, eps0=1.0, target_eps=2.0**-6)
    _, trace = rsg(abs_1d(), np.array([1.0]), cfg)
    for k, stage in enumerate(trace.stage_results, start=1):
        assert stage.objective <= 2.0**-k + 2.0**-6 + 1e-15


def test_rsg_rejects_pnorm_geometry():
    # rsg runs Euclidean stages only; a p-norm config belongs to rsg_dap
    cfg = RestartConfig(alpha=2.0, stages=2, inner_iters=4, eps0=1.0, norm_p=1.5)
    with pytest.raises(ValueError, match="rsg_dap"):
        rsg(abs_1d(), np.array([1.0]), cfg)


def test_pnorm_restarts_reject_constrained():
    prob = ProblemInstance(
        dim=1,
        objective=lambda w: float(np.abs(w).sum()),
        subgrad=lambda w: np.sign(w),
        lipschitz_bound=1.0,
        project=lambda w: np.clip(w, -1, 1),
    )
    cfg = RestartConfig(alpha=2.0, stages=2, inner_iters=4, eps0=1.0, norm_p=1.5)
    with pytest.raises(UnsupportedConstraintError):
        rsg_dap(prob, np.array([0.5]), cfg)
    with pytest.raises(UnsupportedConstraintError):
        r2sg(prob, np.array([0.5]), DoublingConfig(t1=4, restart_every=2), cfg)


def test_restart_config_validation():
    with pytest.raises(ValueError):
        RestartConfig(alpha=1.0, stages=1, inner_iters=1, eps0=1.0)
    with pytest.raises(ValueError):
        RestartConfig(alpha=2.0, stages=0, inner_iters=1, eps0=1.0)
    with pytest.raises(ValueError):
        RestartConfig(alpha=2.0, stages=1, inner_iters=0, eps0=1.0)
    with pytest.raises(ValueError):
        RestartConfig(alpha=2.0, stages=1, inner_iters=1, eps0=0.0)
    with pytest.raises(ValueError):
        RestartConfig(alpha=2.0, stages=1, inner_iters=1, eps0=1.0, target_eps=2.0)
    with pytest.raises(ValueError):
        RestartConfig(alpha=2.0, stages=1, inner_iters=1, eps0=1.0, norm_p=1.0)
    with pytest.raises(ValueError):
        RestartConfig(alpha=2.0, stages=1, inner_iters=1, eps0=1.0, lambda_mode="nope")


def test_restart_config_rejects_infinite_schedules():
    with pytest.raises(ValueError, match="alpha must be finite"):
        RestartConfig(alpha=math.inf, stages=2, inner_iters=5, eps0=1.0)
    with pytest.raises(ValueError, match="eta_scale must be finite"):
        RestartConfig(alpha=2.0, stages=2, inner_iters=5, eps0=1.0, eta_scale=math.inf)
    with pytest.raises(ValueError, match="growth must be finite"):
        DoublingConfig(t1=5, max_calls=3, growth=math.inf, rel_tol=-0.0)


CAP = "put the schedule past its cap"


def test_doubling_config_rejects_a_last_budget_that_overflows():
    with pytest.raises(ValueError, match=CAP):
        DoublingConfig(t1=5, max_calls=3, growth=1e308, rel_tol=-0.0)
    with pytest.raises(ValueError, match=CAP):
        DoublingConfig(t1=5, max_calls=2, growth=1e308)
    # call 2 would run 1e308 iterations, far past the cap
    with pytest.raises(ValueError, match=CAP):
        DoublingConfig(t1=1, max_calls=2, growth=1e308)
    # default growth 4 at theta = 0: the bound restart_every n (t1 + n) 4**(n-1)
    # on the planned iterations fits 2**62 up to n = 27 calls
    assert DoublingConfig(t1=3, max_calls=27).effective_growth == 4.0
    with pytest.raises(ValueError, match="DoublingConfig: t1, growth and max_calls " + CAP):
        DoublingConfig(t1=3, max_calls=28)
    # decided in log space, without walking a billion calls
    with pytest.raises(ValueError, match=CAP):
        DoublingConfig(t1=1, max_calls=10**9, growth=1.5)
    assert DoublingConfig(t1=1, max_calls=10**9, growth=1.0 + 1e-12).max_calls == 10**9


def _first_call_past_the_cap(t1, growth, restart_every, calls):
    """The first call count, up to calls, whose schedule plans more than 2**62
    iterations, walking the budgets as r2sg grows them; None if none does."""
    t, total = t1, 0
    for n in range(1, calls + 1):
        total += restart_every * t
        if total > 2**62:
            return n
        # a budget past 2**63 crosses the cap at the next call whatever its size
        t = math.ceil(min(t * growth, 2.0**63))
    return None


@pytest.mark.parametrize(
    "growth", [1e308, 3.7e100, 1e10, 4.0, 2.0, 1.5, 1.15, 1.01, 1.001, 1.0 + 1e-9]
)
@pytest.mark.parametrize("t1", [1, 5, 7, 1000])
@pytest.mark.parametrize("restart_every", [1, 3])
def test_doubling_config_refuses_every_schedule_past_the_cap(growth, t1, restart_every):
    # the bound on the planned iterations grows with max_calls, so refusing
    # the first call count past the cap refuses every larger one
    first = _first_call_past_the_cap(t1, growth, restart_every, 5000)
    for calls in () if first is None else (first, first + 1, 5000):
        with pytest.raises(ValueError, match=CAP):
            DoublingConfig(t1=t1, restart_every=restart_every, max_calls=calls, growth=growth)


# (t1, restart_every, growth, max_calls) of every doubling schedule the tests,
# perfbench and the README run; growth None is the default at theta = 0
SHIPPED_SCHEDULES = [
    (1_000, 5, 1.15, 10), (400, 4, 1.3, 8), (500, 5, None, 8), (100, 4, 2.0, 4),
    (20, 2, 2.0, 2), (4, 2, None, 10), (20, 5, 1.15, 3), (12, 3, None, 1), (5, 2, None, 3),
    (10, 2, None, 3), (6, 2, None, 3), (3, 3, 2.0, 3), (5, 1, None, 3), (2, 2, None, 2),
]


@pytest.mark.parametrize("t1,restart_every,growth,calls", SHIPPED_SCHEDULES)
def test_every_shipped_schedule_is_within_the_cap(t1, restart_every, growth, calls):
    DoublingConfig(t1=t1, restart_every=restart_every, growth=growth, max_calls=calls)


def test_restart_config_refuses_a_schedule_past_the_cap():
    assert RestartConfig(stages=2, inner_iters=2**60).inner_iters == 2**60
    with pytest.raises(ValueError, match="RestartConfig: stages and inner_iters " + CAP):
        RestartConfig(stages=4, inner_iters=2**61)


def test_library_schedules_that_used_to_run_or_overflow_are_rejected():
    prob = l1_nd(1)
    with pytest.raises(ValueError):
        rsg(prob, np.array([1.0]), RestartConfig(alpha=math.inf, stages=2, inner_iters=5))
    with pytest.raises(ValueError):
        r2sg(
            prob,
            np.array([1.0]),
            DoublingConfig(t1=5, max_calls=3, growth=math.inf, rel_tol=-0.0),
            RestartConfig(alpha=2.0, stages=1, inner_iters=1),
        )


def test_r2sg_computes_no_budget_after_its_last_call():
    # t1 * growth overflows, but with one call that budget is never needed
    prob = l1_nd(1)
    dcfg = DoublingConfig(t1=5, max_calls=1, growth=1e308, rel_tol=-0.0)
    _, trace = r2sg(prob, np.array([1.0]), dcfg, RestartConfig(alpha=2.0, stages=1, inner_iters=1))
    assert trace.total_iters == 5


def test_r2sg_rejects_a_recalibration_whose_shrink_factor_overflows():
    # eps0 is divided by alpha**stages between calls; at alpha = 1e300 and
    # two stages that factor overflows, so the schedule is refused before
    # the first step instead of failing after the first call
    zoo = miniature_zoo()
    dcfg = DoublingConfig(t1=2, restart_every=2, max_calls=2, rel_tol=-0.0, recalibrate_eps0=True)
    calls = []
    prob = replace(
        zoo["abs_median_1d"], subgrad=lambda w: calls.append(1) or zoo["abs_median_1d"].subgrad(w)
    )
    with pytest.raises(ValueError, match="r2sg: alpha and stages " + CAP):
        r2sg(prob, [0.0], dcfg, RestartConfig(alpha=1e300, eps0=1.0))
    assert calls == []
    # one call never recalibrates, and a factor that fits is used as before
    _, one = r2sg(prob, [0.0], replace(dcfg, max_calls=1), RestartConfig(alpha=1e300, eps0=1.0))
    assert one.total_iters == 4
    _, two = r2sg(prob, [0.0], dcfg, RestartConfig(alpha=1e150, eps0=1.0))
    assert two.total_iters == 4 + 2 * math.ceil(2 * dcfg.effective_growth)


def test_check_restarts_raises_what_the_restart_loop_raises_first():
    zoo = miniature_zoo()
    ball, free = zoo["hinge_l1ball_2d"], zoo["abs_median_1d"]
    dcfg = DoublingConfig(t1=2, restart_every=2, max_calls=2, rel_tol=-0.0, recalibrate_eps0=True)
    with pytest.raises(UnsupportedConstraintError, match="require an unconstrained problem"):
        check_restarts(ball, RestartConfig(norm_p=1.5), dap=True)
    with pytest.raises(ValueError, match="use rsg_dap for norm_p != 2"):
        check_restarts(free, RestartConfig(norm_p=1.5), dap=False)
    with pytest.raises(ValueError, match="r2sg: alpha and stages " + CAP):
        check_restarts(free, RestartConfig(alpha=1e300), dap=False, dcfg=dcfg)
    # the factor recalibrate_eps0 divides eps0 by, 1.0 where no call recalibrates
    assert check_restarts(free, RestartConfig(alpha=3.0), dap=False, dcfg=dcfg) == 9.0
    for unused in (None, replace(dcfg, max_calls=1), replace(dcfg, recalibrate_eps0=False)):
        assert check_restarts(free, RestartConfig(alpha=1e300), dap=False, dcfg=unused) == 1.0


# ---------------------------------------------------------------- pnorm prox


def test_pnorm_prox_euclidean_is_plain_step():
    w = np.array([1.0, -2.0])
    g = np.array([0.5, 0.25])
    np.testing.assert_array_equal(pnorm_prox(w, g, 2.0), w - g)


def test_pnorm_prox_frozen_example():
    out = pnorm_prox(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.5)
    np.testing.assert_allclose(out, [-1.0, 0.0], atol=1e-15)


def test_pnorm_prox_zero_gradient():
    w = np.array([0.3, 0.7])
    out = pnorm_prox(w, np.zeros(2), 1.5)
    np.testing.assert_array_equal(out, w)
    assert out is not w


def test_pnorm_prox_identity_random():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        p = float(rng.uniform(1.0 + 1e-3, 2.0))
        q = p / (p - 1.0)
        w = rng.standard_normal(d) * rng.uniform(0.1, 5)
        g = rng.standard_normal(d) * rng.uniform(1e-3, 10)
        out = pnorm_prox(w, g, p)
        lhs = pnorm(out - w, p)
        rhs = pnorm(g, q)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


# ---------------------------------------------------------------- dual averaging


def test_dap_run_worked_example():
    # f = 0.5 w^2, w1=1, eta=0.5, T=2: w2 = 1 - 0.5*1 = 0.5, avg = 0.75
    avg, _ = dap_run(half_sq(1), np.array([1.0]), 0.5, 2, PNormSpace(2.0))
    assert avg[0] == pytest.approx(0.75, abs=1e-15)


def test_dap_run_T1_returns_start():
    w1 = np.array([0.4, 0.6])
    avg, _ = dap_run(l1_nd(2), w1, 0.3, 1, PNormSpace(1.5))
    np.testing.assert_array_equal(avg, w1)


def test_dap_run_rejects_constrained():
    prob = ProblemInstance(
        dim=1,
        objective=lambda w: float(np.abs(w).sum()),
        subgrad=lambda w: np.sign(w),
        lipschitz_bound=1.0,
        project=lambda w: np.clip(w, -1, 1),
    )
    with pytest.raises(UnsupportedConstraintError):
        dap_run(prob, np.array([0.5]), 0.1, 3, PNormSpace(2.0))


def test_dap_inv_grad_norm_weights():
    # On ||w||_1 with all-positive iterates the subgradient is constant
    # (1,..,1) with q-norm d^(1/q), so inv_grad_norm at step eta matches
    # unit weights at step eta/d^(1/q) iterate for iterate (the prox
    # displacement is 1-homogeneous in the accumulated gradient).
    d, p, T = 3, 1.5, 6
    q = p / (p - 1.0)
    prob = l1_nd(d)
    w1 = np.full(d, 10.0)  # stays positive for all T steps at this eta
    eta = 0.05
    avg_inv, _ = dap_run(prob, w1, eta, T, PNormSpace(p), "inv_grad_norm")
    avg_unit, _ = dap_run(prob, w1, eta / d ** (1.0 / q), T, PNormSpace(p), "unit")
    np.testing.assert_allclose(avg_inv, avg_unit, rtol=1e-12)


def test_dap_lambda_zero_gradient_uses_unit_weight():
    # at the kink the subgradient is 0; inv_grad_norm must not divide by 0
    avg, _ = dap_run(abs_1d(), np.array([0.0]), 0.1, 3, PNormSpace(2.0), "inv_grad_norm")
    assert avg[0] == 0.0


# ---------------------------------------------------------------- rsg_dap


def test_rsg_dap_p2_matches_rsg_unconstrained():
    # with p=2 and unit weights, dual averaging from the stage start equals
    # the unconstrained subgradient recursion, so both restart solvers
    # produce the same iterates up to floating-point associativity
    prob = l1_nd(3)
    w0 = np.array([2.0, -1.0, 0.5])
    cfg = RestartConfig(alpha=2.0, stages=3, inner_iters=15, eps0=3.5)
    w_a, tr_a = rsg(prob, w0, cfg, stride=1)
    w_b, tr_b = rsg_dap(prob, w0, cfg, stride=1)
    np.testing.assert_allclose(w_a, w_b, atol=1e-12)
    assert [r.eta for r in tr_a.records] == [r.eta for r in tr_b.records]


def test_rsg_dap_record_count_and_schedule():
    prob = l1_nd(2)
    cfg = RestartConfig(alpha=2.0, stages=4, inner_iters=10, eps0=1.0, norm_p=1.5)
    _, trace = rsg_dap(prob, np.array([1.0, 1.0]), cfg, stride=1)
    assert len(trace.records) == 4 * 10
    assert trace.total_iters == 40
    # unit weights: eta_1 = eps0 (p-1) / (alpha G^2), halving per stage
    G = prob.lipschitz_bound
    eta1 = 1.0 * 0.5 / (2.0 * G * G)
    for s, stage in enumerate(trace.stage_results):
        assert stage.eta == pytest.approx(eta1 / 2.0**s, rel=1e-15)


def test_rsg_dap_inv_grad_norm_eta():
    prob = l1_nd(2)
    cfg = RestartConfig(
        alpha=2.0, stages=1, inner_iters=5, eps0=1.0, norm_p=1.5, lambda_mode="inv_grad_norm"
    )
    _, trace = rsg_dap(prob, np.array([1.0, 1.0]), cfg, stride=1)
    G = prob.lipschitz_bound
    assert trace.records[0].eta == pytest.approx(1.0 * 0.5 / (2.0 * G), rel=1e-15)


# ---------------------------------------------------------------- r2sg


def test_r2sg_single_call_degenerates_to_rsg():
    prob = l1_nd(2)
    w0 = np.array([1.5, -0.5])
    cfg = RestartConfig(alpha=2.0, stages=3, inner_iters=12, eps0=2.0)
    dcfg = DoublingConfig(t1=12, restart_every=3, max_calls=1)
    w_r2, tr_r2 = r2sg(prob, w0, dcfg, cfg, stride=1)
    w_rsg, tr_rsg = rsg(prob, w0, cfg, stride=1)
    np.testing.assert_array_equal(w_r2, w_rsg)
    assert [r.objective for r in tr_r2.records] == [r.objective for r in tr_rsg.records]


def test_r2sg_quadruples_t_at_theta_zero():
    prob = l1_nd(2)
    cfg = RestartConfig(alpha=2.0, stages=2, inner_iters=5, eps0=2.0)
    dcfg = DoublingConfig(t1=5, restart_every=2, theta=0.0, max_calls=3, rel_tol=0.0)
    _, trace = r2sg(prob, np.array([1.0, 1.0]), dcfg, cfg, stride=1)
    per_stage = {}
    for r in trace.records:
        per_stage[r.stage] = per_stage.get(r.stage, 0) + 1
    # stages 1-2 at t1=5, stages 3-4 at 20, stages 5-6 at 80
    assert per_stage == {1: 5, 2: 5, 3: 20, 4: 20, 5: 80, 6: 80}
    assert trace.total_iters == 2 * (5 + 20 + 80)


def test_r2sg_growth_override_protocol():
    # restart every 5 stages with t growth 1.15 between calls
    prob = l1_nd(2)
    cfg = RestartConfig(alpha=2.0, stages=1, inner_iters=1, eps0=2.0)
    dcfg = DoublingConfig(t1=20, restart_every=5, theta=0.9, max_calls=3, growth=1.15, rel_tol=0.0)
    assert dcfg.effective_growth == 1.15
    _, trace = r2sg(prob, np.array([1.0, 1.0]), dcfg, cfg, stride=1)
    counts = {}
    for r in trace.records:
        counts[r.stage] = counts.get(r.stage, 0) + 1
    # t sequence 20, ceil(23) = 23, ceil(26.45) = 27
    assert [counts[s] for s in sorted(counts)] == [20] * 5 + [23] * 5 + [27] * 5


def test_r2sg_stage_indices_run_consecutively():
    prob = l1_nd(2)
    cfg = RestartConfig(alpha=2.0, stages=2, inner_iters=4, eps0=2.0)
    dcfg = DoublingConfig(t1=4, restart_every=2, max_calls=2, rel_tol=0.0)
    _, trace = r2sg(prob, np.array([1.0, 1.0]), dcfg, cfg, stride=1)
    assert [s.stage for s in trace.stage_results] == [1, 2, 3, 4]


def test_r2sg_plateau_stop():
    # starting at the optimum, the first call cannot improve: exactly one call runs
    prob = l1_nd(1)
    cfg = RestartConfig(alpha=2.0, stages=2, inner_iters=4, eps0=1.0)
    dcfg = DoublingConfig(t1=4, restart_every=2, max_calls=10, rel_tol=1e-10)
    _, trace = r2sg(prob, np.array([0.0]), dcfg, cfg, stride=1)
    assert trace.total_iters == 2 * 4  # one call of two stages


def test_doubling_config_validation():
    with pytest.raises(ValueError):
        DoublingConfig(t1=0, restart_every=1)
    with pytest.raises(ValueError):
        DoublingConfig(t1=1, restart_every=1, theta=1.0)
    with pytest.raises(ValueError):
        DoublingConfig(t1=1, restart_every=1, max_calls=0)
    with pytest.raises(ValueError):
        DoublingConfig(t1=1, restart_every=1, growth=1.0)
    assert DoublingConfig(t1=1, restart_every=1, theta=0.5).effective_growth == pytest.approx(2.0)


# ---------------------------------------------------------------- baseline


def test_baseline_one_step():
    trace = baseline_sg_decreasing(abs_1d(), np.array([1.0]), eta0=1.0, T=1)
    assert trace.final_point[0] == 0.0  # 1 - 1*sign(1)
    assert trace.records[0].eta == 1.0


def test_baseline_sticks_at_kink():
    # w0=1, eta0=1: w2 = 0, subgradient 0 at the kink keeps it there
    trace = baseline_sg_decreasing(abs_1d(), np.array([1.0]), eta0=1.0, T=6, stride=1)
    assert trace.final_point[0] == 0.0
    assert [r.objective for r in trace.records] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    etas = [r.eta for r in trace.records]
    np.testing.assert_allclose(etas, [1.0 / math.sqrt(t) for t in range(1, 7)], rtol=1e-15)


def test_baseline_best_column_monotone():
    prob = half_sq(3)
    rng = np.random.default_rng(5)
    trace = baseline_sg_decreasing(prob, rng.standard_normal(3), eta0=0.9, T=300, stride=3)
    bests = [r.best for r in trace.records]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
    assert trace.best_objective == min(trace.best_objective, trace.final_objective)


# ---------------------------------------------------------------- failure paths


def explosive():
    return ProblemInstance(
        dim=1,
        objective=lambda w: float(np.sum(w**4)),
        subgrad=lambda w: 4.0 * w**3,
        lipschitz_bound=1.0,
        known_fstar=0.0,
    )


def test_divergence_error_carries_partial_trace():
    with pytest.raises(DivergenceError) as exc_info:
        sg_run(explosive(), np.array([1.0]), eta=10.0, T=1000, stride=1)
    trace = exc_info.value.trace
    assert len(trace.records) >= 1
    assert all(math.isfinite(r.objective) for r in trace.records)
    cums = [r.cum_iter for r in trace.records]
    assert cums == sorted(cums)


def test_divergence_propagates_through_rsg():
    cfg = RestartConfig(alpha=2.0, stages=3, inner_iters=50, eps0=100.0, eta_scale=1e6)
    with pytest.raises(DivergenceError):
        rsg(explosive(), np.array([1.0]), cfg, stride=1)


def test_determinism_identical_traces():
    prob = half_sq(4)
    w0 = np.array([1.0, -0.5, 0.25, 2.0])
    cfg = RestartConfig(alpha=2.0, stages=4, inner_iters=30, eps0=3.0)
    _, tr_a = rsg(prob, w0, cfg, stride=1)
    _, tr_b = rsg(prob, w0, cfg, stride=1)
    # wallclock is the one nondeterministic field and is excluded everywhere
    strip = lambda rs: [r._replace(wallclock_ns=0) for r in rs]
    assert strip(tr_a.records) == strip(tr_b.records)
    np.testing.assert_array_equal(tr_a.final_point, tr_b.final_point)


def test_stride_subsampling():
    _, trace = sg_run(half_sq(1), np.array([1.0]), eta=0.01, T=1000, stride=100)
    iters = [r.iter for r in trace.records]
    assert iters == [1] + list(range(100, 1001, 100))


def test_rsg_from_an_optimal_start_with_default_eps0():
    zoo_abs = miniature_zoo()["abs_1d"]
    assert zoo_abs.default_eps0([0.0]) == 1e-12  # the gap is 0; eps0 must stay > 0
    w, trace = rsg(zoo_abs, [0.0], RestartConfig(eps0=zoo_abs.default_eps0([0.0])))
    assert w[0] == 0.0 and trace.final_objective == 0.0


# ---------------------------------------------------------------- fused (f, g) oracle pass


def linear_models():
    """Small linear-model instances, one per kernel branch: power loss,
    hinge with a fused penalty and with an l1 ball, absolute with l1 and
    eps-insensitive with linf."""
    reg = synth_regression(30, 4, noise=0.3, seed=2)
    cls = synth_classification(30, 4, margin=0.3, seed=3)
    graph = GFlassoGraph(4, ((0, 1, 1.0), (1, 2, 0.5), (0, 3, 2.0)))
    return {
        "robust": robust_regression(reg, p_loss=1.5),
        "gflasso": gflasso_svm(cls, graph, lam=0.1),
        "hinge_l1ball": piecewise_linear_erm(cls, loss="hinge", reg="l1_ball", radius=0.6),
        "absolute_l1": piecewise_linear_erm(reg, loss="absolute", reg="l1", lam=0.05),
        "eps_linf": piecewise_linear_erm(
            reg, loss="eps_insensitive", reg="linf", lam=0.1, eps_ins=0.2
        ),
    }


def unfused(problem):
    """The same oracles behind a subgrad that carries no fused form."""
    return replace(problem, subgrad=lambda w, g=problem.subgrad: g(w))


def spied(problem, spy):
    """problem on an oracle that calls spy(W, want_f, row, kept) before each
    pass; both callables derive from it, so the solvers keep the one-pass
    path."""
    o = problem.oracle

    def run(W, want_f, want_g, row=None, kept=False):
        spy(W, want_f, row, kept)
        return o.run(W, want_f, want_g, row, kept)

    return replace(problem, oracle=Oracle(run, o.width, o.rows), objective=None, subgrad=None)


def counted(problem):
    """problem with its one-point passes counted by what they serve: the
    objective, the subgradient, or both ("with_value": the subgradient pass
    that keeps the scores of a logged iteration)."""
    calls = Counter()

    def spy(W, want_f, row, kept):
        if W.ndim == 1:
            calls["with_value" if row is not None else "objective" if want_f else "subgrad"] += 1

    return spied(problem, spy), calls


def same_trace(a, b):
    """Every field of two traces bitwise equal, the timing fields aside."""
    strip = lambda rs: [r._replace(wallclock_ns=0) for r in rs]  # noqa: E731
    assert strip(a.records) == strip(b.records)
    assert a.stage_results == b.stage_results
    assert a.total_iters == b.total_iters
    assert np.float64(a.final_objective).tobytes() == np.float64(b.final_objective).tobytes()
    if a.final_point is None:
        assert b.final_point is None
    else:
        assert a.final_point.tobytes() == b.final_point.tobytes()


def solver_runs(problem, w0, stride):
    """One run of each solver on problem, as (name, thunk returning a trace)."""
    eps0 = problem.default_eps0(w0)
    cfg = RestartConfig(alpha=2.0, stages=3, inner_iters=40, eps0=eps0)
    runs = [
        ("sg_run", lambda: sg_run(problem, w0, 0.05, 60, stride)[1]),
        ("rsg", lambda: rsg(problem, w0, cfg, stride)[1]),
        ("baseline", lambda: baseline_sg_decreasing(problem, w0, 0.1, 60, stride)),
        (
            "r2sg",
            lambda: r2sg(
                problem, w0, DoublingConfig(t1=10, restart_every=2, max_calls=3), cfg, stride
            )[1],
        ),
    ]
    if problem.project is None:
        dcfg = RestartConfig(
            alpha=2.0, stages=3, inner_iters=40, eps0=eps0, norm_p=1.5,
            lambda_mode="inv_grad_norm",
        )
        space = PNormSpace(1.5)
        runs += [
            ("dap_run", lambda: dap_run(problem, w0, 0.05, 60, space, "unit", stride)[1]),
            ("rsg_dap", lambda: rsg_dap(problem, w0, dcfg, stride)[1]),
            (
                "r2sg_dap",
                lambda: r2sg(
                    problem, w0, DoublingConfig(t1=10, restart_every=2, max_calls=3), dcfg, stride
                )[1],
            ),
        ]
    return runs


@pytest.mark.parametrize("stride", [1, None, 7])
@pytest.mark.parametrize("family", sorted(linear_models()))
def test_fused_and_unfused_traces_are_bitwise_identical(family, stride):
    problem = linear_models()[family]
    assert problem._deferred() is problem.oracle
    w0 = problem.feasible(0.5 * np.random.default_rng(4).standard_normal(problem.dim))
    plain = unfused(problem)
    for (name, fused_run), (_, plain_run) in zip(
        solver_runs(problem, w0, stride), solver_runs(plain, w0, stride)
    ):
        same_trace(fused_run(), plain_run())


def test_stride_one_rsg_calls_objective_only_for_stage_averages():
    problem, calls = counted(linear_models()["absolute_l1"])
    cfg = RestartConfig(alpha=2.0, stages=3, inner_iters=50, eps0=1.0)
    rsg(problem, np.zeros(problem.dim), cfg, stride=1)
    assert calls == {"with_value": 150, "objective": 3}


def test_replaced_objective_or_subgrad_falls_back_to_separate_calls():
    base, calls = counted(linear_models()["gflasso"])
    cfg = RestartConfig(alpha=2.0, stages=2, inner_iters=30, eps0=1.0)
    w0 = np.zeros(base.dim)
    _, ref = rsg(base, w0, cfg, stride=1)

    # a replaced objective leaves the fused form stale: it must not be used
    seen = []
    stale = replace(base, objective=lambda w: seen.append(1) or base.objective(w))
    calls.clear()
    _, tr = rsg(stale, w0, cfg, stride=1)
    assert calls == {"subgrad": 60, "objective": 62} and len(seen) == 62
    same_trace(tr, ref)

    # a replaced subgrad carries no fused form
    calls.clear()
    _, tr = rsg(unfused(base), w0, cfg, stride=1)
    assert calls == {"subgrad": 60, "objective": 62}
    same_trace(tr, ref)


def diverging_runs(problem, w0):
    """Runs that blow up on a power loss: a huge step in every stage type."""
    cfg = RestartConfig(alpha=2.0, stages=3, inner_iters=20, eps0=1e300, eta_scale=1e300)
    dcfg = replace(cfg, norm_p=1.5)
    return [
        ("sg_run", lambda: sg_run(problem, w0, 1e200, 50, 1)),
        ("rsg", lambda: rsg(problem, w0, cfg, 1)),
        ("baseline", lambda: baseline_sg_decreasing(problem, w0, 1e200, 50, 1)),
        ("rsg_dap", lambda: rsg_dap(problem, w0, dcfg, 1)),
        ("r2sg", lambda: r2sg(problem, w0, DoublingConfig(t1=5, max_calls=3), cfg, 1)),
    ]


def test_fused_divergence_raises_with_the_same_partial_trace():
    problem = robust_regression(synth_regression(5, 2, noise=0.0, seed=0), p_loss=1.5)
    w0 = np.zeros(2)
    for (name, fused_run), (_, plain_run) in zip(
        diverging_runs(problem, w0), diverging_runs(unfused(problem), w0)
    ):
        with pytest.raises(DivergenceError) as fused_exc:
            fused_run()
        with pytest.raises(DivergenceError) as plain_exc:
            plain_run()
        assert str(fused_exc.value) == str(plain_exc.value), name
        assert fused_exc.value.trace.records, name
        same_trace(fused_exc.value.trace, plain_exc.value.trace)


# ---------------------------------------------------------------- deferred logged values


@pytest.mark.parametrize("stride", [1, None, 7])
@pytest.mark.parametrize("family", sorted(linear_models()))
def test_deferred_values_match_the_unfused_traces_at_any_block_size(monkeypatch, family, stride):
    problem = linear_models()[family]
    w0 = problem.feasible(0.5 * np.random.default_rng(4).standard_normal(problem.dim))
    refs = [run() for _, run in solver_runs(unfused(problem), w0, stride)]
    seen = []
    problem = spied(problem, lambda W, want_f, row, kept: kept and seen.append(len(W)))
    for rows in (1, 2, 7):
        monkeypatch.setattr(solvers, "_LOG_BLOCK", rows * problem.oracle.width)
        seen.clear()
        for (name, run), ref in zip(solver_runs(problem, w0, stride), refs):
            same_trace(run(), ref)
        # every logged value came from a values pass over full blocks, and
        # over the part of one that a stage end flushes
        assert sum(seen) == sum(len(ref.records) for ref in refs)
        assert max(seen) == rows and (rows < 7 or min(seen) < rows), (rows, seen)


def power_loss():
    return robust_regression(synth_regression(30, 4, noise=0.3, seed=2), p_loss=1.5)


@pytest.mark.parametrize("rows", [6, 9])
def test_deferred_divergence_on_the_first_or_a_middle_row_of_a_block(monkeypatch, rows):
    problem, w0 = power_loss(), np.zeros(4)
    with pytest.raises(DivergenceError) as plain:
        sg_run(unfused(problem), w0, 1e104, 50, 1)
    assert str(plain.value) == "non-finite objective (inf) at stage 1 iter 7"
    # iteration 7 is row 0 of the second block of 6, and row 6 of the first block of 9
    monkeypatch.setattr(solvers, "_LOG_BLOCK", rows * problem.oracle.width)
    with pytest.raises(DivergenceError) as deferred:
        sg_run(problem, w0, 1e104, 50, 1)
    assert str(deferred.value) == str(plain.value)
    same_trace(deferred.value.trace, plain.value.trace)


def finite_project(w):
    if not np.all(np.isfinite(w)):
        raise ValueError("project: non-finite point")
    return w


# run(problem, stride) from 0 with a step that blows up, and the error it
# meets when it logs iteration 1 only
LATER_ERRORS = {
    "q-norm": (
        lambda q, stride: dap_run(q, np.zeros(4), 1e155, 50, PNormSpace(1.5), "unit", stride),
        r"non-finite q-norm .* at stage 1 iter 8$",
    ),
    "project": (
        lambda q, stride: sg_run(
            replace(q, project=finite_project), np.zeros(4), 1e155, 50, stride
        ),
        r"^project: non-finite point$",
    ),
}


@pytest.mark.parametrize("later", sorted(LATER_ERRORS))
def test_deferred_divergence_outranks_a_later_error_in_its_block(monkeypatch, later):
    run, error = LATER_ERRORS[later]
    problem = power_loss()
    # one block holds all 50 iterations
    monkeypatch.setattr(solvers, "_LOG_BLOCK", 64 * problem.oracle.width)
    with pytest.raises((DivergenceError, ValueError), match=error):
        run(problem, 10**6)
    # logged at every iteration, the objective is inf from iteration 3 on
    with pytest.raises(DivergenceError) as plain:
        run(unfused(problem), 1)
    assert str(plain.value) == "non-finite objective (inf) at stage 1 iter 3"
    with pytest.raises(DivergenceError) as deferred:
        run(problem, 1)
    assert str(deferred.value) == str(plain.value)
    same_trace(deferred.value.trace, plain.value.trace)


def test_deferred_records_keep_the_clock_reading_of_their_iteration(monkeypatch):
    # a clock that reads the number of iterations kept so far
    kept = [0]

    def spy(W, want_f, row, is_kept):
        if row is not None:
            kept[0] += 1

    problem = spied(linear_models()["absolute_l1"], spy)
    monkeypatch.setattr(solvers, "_LOG_BLOCK", 7 * problem.oracle.width)
    monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic_ns=lambda: kept[0]))
    cfg = RestartConfig(alpha=2.0, stages=2, inner_iters=50, eps0=1.0)
    _, trace = rsg(problem, np.zeros(problem.dim), cfg, stride=1)
    assert [r.wallclock_ns for r in trace.records] == list(range(1, 101))


# ---------------------------------------------------------------- plain reference loops


def logged_rows(rows, t, T, stride, objective, w, eta):
    """Append the record of iteration t when the stride logs it."""
    if t == 1 or t == T or t % stride == 0:
        f = float(objective(w))
        best = min(f, rows[-1][-1]) if rows else f
        rows.append((1, t, t, f, eta, best))


def ref_fixed_step(problem, w, eta, T, stride):
    """T projected steps of size eta; returns the average of the T
    pre-update iterates."""
    rows, acc = [], np.zeros_like(w)
    for t in range(1, T + 1):
        logged_rows(rows, t, T, stride, problem.objective, w, eta)
        acc += w
        w = w - eta * problem.subgrad(w)
        if problem.project is not None:
            w = problem.project(w)
    return rows, acc / T


def ref_dual_averaging(problem, w1, eta, T, stride, p, lambda_mode):
    """T dual-averaging steps around w1 with unit or 1/||g||_q weights;
    returns the weight-averaged iterate.  The norms and the prox are the
    frozen copies in ``pnorm_reference``, not the library's."""
    q = p / (p - 1.0)
    rows, acc, g_sum, lam_sum, w = [], np.zeros_like(w1), np.zeros_like(w1), 0.0, w1
    for t in range(1, T + 1):
        logged_rows(rows, t, T, stride, problem.objective, w, eta)
        g = problem.subgrad(w)
        gq = pnorm_reference.pnorm(g, q)
        lam = 1.0 / gq if lambda_mode == "inv_grad_norm" and gq > 0.0 else 1.0
        acc += lam * w
        lam_sum += lam
        g_sum = g_sum + lam * g
        w = pnorm_reference.pnorm_prox(w1, eta * g_sum, p)
    return rows, acc / lam_sum


def ref_decreasing(problem, w, eta0, T, stride):
    """T projected steps of size eta0/sqrt(t); returns the last iterate."""
    rows = []
    for t in range(1, T + 1):
        eta = eta0 / math.sqrt(t)
        logged_rows(rows, t, T, stride, problem.objective, w, eta)
        w = w - eta * problem.subgrad(w)
        if problem.project is not None:
            w = problem.project(w)
    return rows, w


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("family", ["absolute_l1", "hinge_l1ball"])
def test_solvers_match_plain_reference_loops(family, stride):
    problem = linear_models()[family]
    w0 = problem.feasible(0.5 * np.random.default_rng(6).standard_normal(problem.dim))
    runs = [
        (sg_run(problem, w0, 0.05, 60, stride)[1], ref_fixed_step(problem, w0, 0.05, 60, stride)),
        (
            baseline_sg_decreasing(problem, w0, 0.2, 60, stride),
            ref_decreasing(problem, w0, 0.2, 60, stride),
        ),
    ]
    if problem.project is None:
        for mode in ("unit", "inv_grad_norm"):
            trace = dap_run(problem, w0, 0.05, 60, PNormSpace(1.5), mode, stride)[1]
            runs.append((trace, ref_dual_averaging(problem, w0, 0.05, 60, stride, 1.5, mode)))
    for trace, (rows, point) in runs:
        got = [(r.stage, r.iter, r.cum_iter, r.objective, r.eta, r.best) for r in trace.records]
        assert np.array(got).tobytes() == np.array(rows).tobytes()
        assert trace.final_point.tobytes() == point.tobytes()
        assert trace.final_objective == float(problem.objective(point))
