"""End-to-end acceptance checks: one test per shipped guarantee (C1-C10).

Every reference value is derived inside the test by a brute-force oracle
(grid scan, weighted median, subset enumeration, long independent run) —
never from the solver under test.  Each check prints a single [PASS] line
(visible under ``pytest -s``) and enforces its own wall-clock budget, so
the module doubles as a reproducible benchmark protocol.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from contextlib import contextmanager

import numpy as np
from scipy.optimize import minimize

from rsgkit.cli import RunSpec, cmd_run
from rsgkit.core import ErrorBoundParams, pnorm
from rsgkit.data import parse_libsvm, scale_max_abs, synth_classification, synth_regression
from rsgkit.oracles import (
    estimate_B_eps,
    grid_min,
    long_run_min,
    sublevel_project,
    submodular_min_enumerate,
    weighted_median,
)
from rsgkit.problems import (
    GFlassoGraph,
    SetFunction,
    cut_function,
    gflasso_svm,
    lovasz_problem,
    miniature_zoo,
    piecewise_linear_erm,
    robust_regression,
)
from rsgkit.solvers import (
    DoublingConfig,
    RestartConfig,
    baseline_sg_decreasing,
    compute_inner_iters,
    compute_stage_count,
    pnorm_prox,
    r2sg,
    rsg,
    sg_run,
)


@contextmanager
def budget(seconds: float, label: str):
    """Fail the surrounding test if its body exceeds the wall-clock budget."""
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"[FAIL] {label}: {elapsed:.1f}s over the {seconds:.0f}s budget"
    print(f"[PASS] {label} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# C1: the p-norm prox closed form against an independent numerical minimizer


def _prox_objective(w, g, p):
    """phi(u) = <g, u> + 0.5 ||u - w||_p^2 with its analytic gradient."""

    def phi(u):
        v = u - w
        av = np.abs(v)
        m = float(av.max()) if av.size else 0.0
        if m == 0.0:
            return float(g @ u), g.copy()
        npv = m * float(np.sum((av / m) ** p)) ** (1.0 / p)
        val = float(g @ u) + 0.5 * npv * npv
        grad = g + npv * np.sign(v) * (av / npv) ** (p - 1.0)
        return val, grad

    return phi


def _prox_objective_y(w, g, p):
    """phi(w + v(y)), v_i = sign(y_i)|y_i|^(2/p): ||v||_p^2 = ||y||_2^(4/p) has no kink for p in (1, 2]."""
    a = 2.0 / p

    def to_u(y):
        return w + np.sign(y) * np.abs(y) ** a

    def psi(y):
        r2 = float(y @ y)
        val = float(g @ to_u(y)) + 0.5 * r2**a
        grad = a * (g * np.abs(y) ** (a - 1.0) + r2 ** (a - 1.0) * y)
        return val, grad

    return psi, to_u


def test_c01_prox_closed_form_matches_numerical_minimizer():
    rng = np.random.default_rng(11)
    opts = {"maxiter": 120, "ftol": 1e-14, "gtol": 1e-10}
    # pay scipy's first-call setup cost before the clock starts
    minimize(lambda v: (float(v @ v), 2.0 * v), np.ones(2), jac=True, method="L-BFGS-B")
    with budget(10.0, "C1 prox closed form = numerical minimizer, 1000 random triples"):
        for _ in range(1000):
            d = int(rng.integers(1, 11))
            w = rng.standard_normal(d)
            g = rng.standard_normal(d)
            p = 1.0 + 10.0 ** rng.uniform(-6.0, 0.0)  # covers (1, 2]
            q = p / (p - 1.0)
            u = pnorm_prox(w, g, p)
            gq = pnorm(g, q)
            # step-length identity ||u - w||_p = ||g||_q, relative 1e-10
            assert abs(pnorm(u - w, p) - gq) <= 1e-10 * gq
            phi = _prox_objective(w, g, p)
            val_u = phi(u)[0]
            # the attained value has a closed form of its own
            val_exact = float(g @ w) - 0.5 * gq * gq
            assert abs(val_u - val_exact) <= 1e-9 * max(1.0, abs(val_exact))
            # two-sided value match with an independent quasi-Newton solve in
            # kink-free coordinates, started at the plain p = 2 step v = -g
            # (y = 0 is stationary there): the closed form is at least as good
            # as the numerical minimizer, the minimizer must reach it, and
            # polishing the closed form cannot descend below it
            psi, to_u = _prox_objective_y(w, g, p)
            y0 = -np.sign(g) * np.abs(g) ** (p / 2.0)
            res = minimize(psi, y0, jac=True, method="L-BFGS-B", options=opts)
            ref = phi(to_u(res.x))[0]  # phi at any point bounds the minimum above
            assert val_u <= ref + 1e-6, f"closed form above minimizer: p={p}, d={d}, gap={val_u - ref:.3e}"
            assert ref <= val_u + 1e-6, f"minimizer did not converge: p={p}, d={d}, gap={ref - val_u:.3e}"
            res2 = minimize(phi, u, jac=True, method="L-BFGS-B", options=opts)
            assert res2.fun >= val_u - 1e-6


# ---------------------------------------------------------------------------
# C2: the fixed-step averaging bound on five miniatures with oracle minima


def test_c02_averaging_bound_on_miniatures():
    zoo = miniature_zoo()
    with budget(30.0, "C2 averaging bound on 5 miniatures x 3 steps x T in {10,100,1000}"):
        cases = [
            (zoo["abs_1d"], grid_min(zoo["abs_1d"], -2.0, 2.0, 4001).argmin),
            (zoo["abs_median_1d"], np.array([weighted_median(np.array([1.0, 2.0, 10.0]))])),
            (zoo["l1_2d"], grid_min(zoo["l1_2d"], -2.0, 2.0, 401).argmin),
            (zoo["eps_ins_1d"], grid_min(zoo["eps_ins_1d"], -1.0, 4.0, 4001).argmin),
            (zoo["hinge_sep_2d"], grid_min(zoo["hinge_sep_2d"], -3.0, 3.0, 401).argmin),
        ]
        for inst, wstar in cases:
            wstar = np.asarray(wstar, dtype=float)
            fstar = inst.objective(wstar)
            G = inst.lipschitz_bound
            w1 = wstar + 1.5
            dist2 = float(np.sum((w1 - wstar) ** 2))
            for eta in (0.01, 0.1, 1.0):
                for T in (10, 100, 1000):
                    avg, _ = sg_run(inst, w1, eta, T)
                    lhs = inst.objective(avg) - fstar
                    rhs = G * G * eta / 2.0 + dist2 / (2.0 * eta * T)
                    assert lhs <= rhs + 1e-9, (inst.name, eta, T, lhs, rhs)


# ---------------------------------------------------------------------------
# C3: exact stage-by-stage contraction on the |w| instance


def test_c03_restart_schedule_contracts_abs_instance():
    inst = miniature_zoo()["abs_1d"]
    with budget(1.0, "C3 stage contraction on |w|: t=4, K=6, final gap <= 2^-5"):
        assert inst.lipschitz_bound == 1.0
        eps0, eps, alpha = 1.0, 2.0**-6, 2.0
        K = compute_stage_count(eps0, eps, alpha)
        t = compute_inner_iters(inst.lipschitz_bound, ErrorBoundParams(theta=1.0, c=1.0), eps, alpha)
        assert (K, t) == (6, 4)
        _, trace = rsg(
            inst, np.array([1.0]), RestartConfig(alpha=alpha, stages=K, inner_iters=t, eps0=eps0)
        )
        assert len(trace.stage_results) == K
        for sr in trace.stage_results:
            assert sr.objective <= eps0 * 2.0 ** (-sr.stage) + eps + 1e-12, sr
        assert trace.stage_results[-1].objective <= 2.0 * eps + 1e-12


# ---------------------------------------------------------------------------
# C4: geometric decay at the certified rate on a hinge + l1 instance


def test_c04_linear_convergence_hinge_l1():
    # The l1 weight is set large enough to dominate the mean margin
    # gradient, which makes the optimum a sharp vertex with a narrow
    # sharpness spectrum: the probe below then recovers the global
    # error-bound constant, and the stage budget it implies is tight
    # rather than orders-of-magnitude conservative.
    data = synth_classification(50, 5, margin=0.5, seed=11)
    inst = piecewise_linear_erm(data, loss="hinge", reg="l1", lam=1.1)
    with budget(60.0, "C4 hinge+l1: log-gap falls monotonically at slope <= -0.9 log(alpha)"):
        G = inst.lipschitz_bound
        w0 = np.full(data.d, 0.8)
        long = long_run_min(inst, w0, total_iters=120_000, stages=30)
        fstar = long.fstar
        what = np.asarray(long.argmin, dtype=float)
        # coarse certified grid around the long-run argmin cross-checks it
        grid = grid_min(inst, what - 0.4, what + 0.4, 9, budget=70_000)
        assert fstar <= grid.fstar + 1e-9
        assert abs(grid.fstar - fstar) <= grid.certified_tol + 1e-9

        # sharpness probe: smallest secant slope (gap / distance) over axis
        # and random directions at radii spanning the start distance
        rng = np.random.default_rng(4)
        eye = np.eye(data.d)
        extra = rng.standard_normal((32, data.d))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        dirs = np.vstack([eye, -eye, extra])
        radius = float(np.linalg.norm(w0 - what))
        ratios = []
        for r in np.geomspace(0.05, radius, 6):
            for u in dirs:
                gap = inst.objective(what + r * u) - fstar
                if gap > 1e-9:
                    ratios.append(gap / r)
        kappa = min(ratios)

        alpha, K = 2.0, 14
        eps0 = inst.objective(w0) - fstar
        eps = eps0 * 2.0**-K
        t = compute_inner_iters(G, ErrorBoundParams(theta=1.0, c=1.0 / kappa), eps, alpha)
        _, trace = rsg(inst, w0, RestartConfig(alpha=alpha, stages=K, inner_iters=t, eps0=eps0))

        zs = [(sr.stage, sr.objective - fstar - eps) for sr in trace.stage_results]
        pre_floor = [(k, z) for k, z in zs if z > eps]
        assert len(pre_floor) >= 3, zs
        vals = [z for _, z in pre_floor]
        assert all(b < a for a, b in zip(vals, vals[1:])), pre_floor
        ks = np.array([k for k, _ in pre_floor], dtype=float)
        slope = float(np.polyfit(ks, np.log(vals), 1)[0])
        assert slope <= -0.9 * math.log(alpha), (slope, pre_floor)


# ---------------------------------------------------------------------------
# C5: quadrupling the stage budget cuts the attainable floor on p=1.5 losses


def test_c05_floor_scales_with_stage_budget():
    data = synth_regression(40, 4, noise=0.0, seed=3)
    inst = robust_regression(data, p_loss=1.5, region_radius=8.0)
    with budget(60.0, "C5 p=1.5 regression: 4x stage budget cuts the floor to <= 0.75x"):
        assert inst.objective(data.planted) <= 1e-18  # planted optimum, fstar = 0
        assert inst.eb_theta == 0.5
        w0 = np.zeros(data.d)
        eps0 = inst.default_eps0(w0)
        # Budgets stay below the point where the zero-noise instance snaps
        # to machine precision; past that, floor ratios are meaningless.
        floors = {}
        for t in (30, 120, 480):
            _, tr = rsg(inst, w0, RestartConfig(alpha=2.0, stages=24, inner_iters=t, eps0=eps0))
            floors[t] = min(sr.objective for sr in tr.stage_results)
        assert floors[480] > 1e-13, floors  # nowhere near float saturation
        assert floors[120] <= 0.75 * floors[30], floors
        assert floors[480] <= 0.75 * floors[120], floors


# ---------------------------------------------------------------------------
# C6: box minimization of random cut extensions against subset enumeration


def _random_cut_with_shift(rng, d: int, shifted: bool):
    edges = [
        (i, j, float(rng.uniform(0.2, 2.0)))
        for i in range(d)
        for j in range(i + 1, d)
        if rng.random() < 0.35
    ]
    if not edges:
        edges = [(0, 1, 1.0)]
    base = cut_function(d, edges)
    if not shifted:
        return base, 0.0
    m = rng.uniform(-1.0, 1.0, d)

    def evaluate(mask: int) -> float:
        v = base.evaluate(mask)
        for i in range(d):
            if (mask >> i) & 1:
                v += m[i]
        return v

    def bulk(masks: np.ndarray) -> np.ndarray:
        vals = base.bulk_evaluate(masks).astype(float)
        for i in range(d):
            vals = vals + m[i] * ((masks >> i) & 1)
        return vals

    return SetFunction(d, evaluate, bulk), float(np.sum(np.abs(m)))


def test_c06_lovasz_box_minimum_matches_enumeration():
    rng = np.random.default_rng(60)
    with budget(60.0, "C6 five random cut extensions within 1e-3 of subset enumeration"):
        for idx, d in enumerate((6, 7, 8, 9, 10)):
            fn, shift_total = _random_cut_with_shift(rng, d, shifted=idx in (1, 3))
            inst = lovasz_problem(fn, fstar_lower_bound=-shift_total)
            enum_val, _ = submodular_min_enumerate(fn)
            # an interior random start: the constant vector is already optimal
            # for an unshifted cut (both the full and the empty set cost zero)
            w0 = rng.uniform(0.2, 0.8, size=d)
            eps0 = inst.default_eps0(w0)
            _, tr = rsg(
                inst, w0, RestartConfig(alpha=2.0, stages=18, inner_iters=2500, eps0=eps0)
            )
            best = tr.best_objective
            assert enum_val - 1e-9 <= best <= enum_val + 1e-3, (d, best, enum_val)


# ---------------------------------------------------------------------------
# C7: plateau ordering and doubling speedup on an absolute-loss regression


def _absolute_loss_data():
    """Real tabular data when RSGKIT_HOUSING points at a libsvm file, else a
    synthetic stand-in with the same shape (506 rows, 13 features)."""
    path = os.environ.get("RSGKIT_HOUSING")
    if path:
        return scale_max_abs(parse_libsvm(path))
    return scale_max_abs(synth_regression(506, 13, noise=0.5, seed=42))


def test_c07_plateaus_and_doubling_speedup():
    data = _absolute_loss_data()
    inst = piecewise_linear_erm(data, loss="absolute")
    with budget(300.0, "C7 absolute loss: t=1e3 plateau > t=1e4 plateau; doubling halves budget"):
        w0 = np.zeros(data.d)
        eps0 = inst.default_eps0(w0)
        G = inst.lipschitz_bound

        plateaus = {}
        for t in (1_000, 10_000):
            _, tr = rsg(inst, w0, RestartConfig(alpha=2.0, stages=12, inner_iters=t, eps0=eps0))
            plateaus[t] = min(sr.objective for sr in tr.stage_results)
        assert plateaus[1_000] > plateaus[10_000], plateaus

        T_base = 30_000
        base = baseline_sg_decreasing(inst, w0, eta0=eps0 / G**2, T=T_base, stride=1)
        target = base.final_objective
        dcfg = DoublingConfig(t1=1_000, restart_every=5, growth=1.15, max_calls=10, rel_tol=1e-12)
        rcfg = RestartConfig(alpha=2.0, stages=1, inner_iters=1, eps0=eps0)
        _, rt = r2sg(inst, w0, dcfg, rcfg, stride=1)
        crossed = [rec.cum_iter for rec in rt.records if rec.best <= target]
        assert crossed, (target, rt.best_objective)
        assert crossed[0] <= T_base // 2, (crossed[0], T_base)


# ---------------------------------------------------------------------------
# C8: restart-doubling is less start-sensitive than the decreasing baseline


def test_c08_start_insensitivity_gflasso():
    data = synth_classification(100, 20, margin=0.3, seed=5)
    rng = np.random.default_rng(8)
    pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
    sel = sorted(rng.choice(len(pairs), size=30, replace=False).tolist())
    graph = GFlassoGraph(20, tuple((pairs[k][0], pairs[k][1], 1.0) for k in sel))
    inst = gflasso_svm(data, graph, lam=0.1)
    with budget(300.0, "C8 graph-fused hinge: final-objective spread across starts shrinks"):
        G = inst.lipschitz_bound
        starts = [
            np.zeros(20),
            np.random.default_rng(81).standard_normal(20),
            np.random.default_rng(82).standard_normal(20),
        ]
        finals_doubling, finals_baseline = [], []
        for w0 in starts:
            eps0 = inst.default_eps0(w0)
            dcfg = DoublingConfig(t1=400, restart_every=4, growth=1.3, max_calls=8, rel_tol=1e-12)
            rcfg = RestartConfig(alpha=2.0, stages=1, inner_iters=1, eps0=eps0)
            _, tr = r2sg(inst, w0, dcfg, rcfg)
            finals_doubling.append(tr.final_objective)
            bt = baseline_sg_decreasing(inst, w0, eta0=eps0 / G**2, T=tr.total_iters)
            finals_baseline.append(bt.final_objective)
        spread_doubling = max(finals_doubling) - min(finals_doubling)
        spread_baseline = max(finals_baseline) - min(finals_baseline)
        assert spread_doubling < spread_baseline, (finals_doubling, finals_baseline)


# ---------------------------------------------------------------------------
# C9: rerunning one config twice yields bitwise-identical artifacts


C9_CONFIG = """\
problem.kind = pwl
problem.synth = classification
problem.n = 30
problem.d = 4
problem.margin = 0.5
problem.data_seed = 7
problem.loss = hinge

solver.algo = rsg_dap
solver.norm_p = 1.5
solver.stages = 4
solver.t = 60
solver.eps0 = 1.0
solver.w0 = gaussian
solver.seed = 3
"""


def test_c09_rerun_is_bitwise_identical(tmp_path):
    spec = RunSpec.from_text(C9_CONFIG)
    with budget(30.0, "C9 same config + seed twice -> bitwise-identical artifacts"):
        code_a, _ = cmd_run(spec, str(tmp_path / "a"))
        code_b, _ = cmd_run(spec, str(tmp_path / "b"))
        assert code_a == 0 and code_b == 0
        csvs_a = sorted((tmp_path / "a").glob("*.csv"))
        csvs_b = sorted((tmp_path / "b").glob("*.csv"))
        assert csvs_a and [p.name for p in csvs_a] == [p.name for p in csvs_b]
        for pa, pb in zip(csvs_a, csvs_b):
            assert pa.read_bytes() == pb.read_bytes()
        jsons_a = sorted((tmp_path / "a").glob("*.json"))
        jsons_b = sorted((tmp_path / "b").glob("*.json"))
        assert jsons_a and [p.name for p in jsons_a] == [p.name for p in jsons_b]
        for pa, pb in zip(jsons_a, jsons_b):
            da = json.loads(pa.read_text())
            db = json.loads(pb.read_text())
            # wall-clock is the one legitimately non-deterministic field
            da.pop("wallclock_ns_total"), db.pop("wallclock_ns_total")
            assert da == db


# ---------------------------------------------------------------------------
# C10: the level-set distance inequality on every 1-d/2-d miniature


def test_c10_level_set_distance_inequality():
    zoo = miniature_zoo()
    eps = 0.3
    with budget(60.0, "C10 level-set distance bound, 100 samples per miniature"):
        reports = {
            "abs_1d": grid_min(zoo["abs_1d"], -2.0, 2.0, 4001),
            "abs_median_1d": grid_min(zoo["abs_median_1d"], -2.0, 6.0, 4001),
            "square_1d": grid_min(zoo["square_1d"], -2.0, 2.0, 4001),
            "rr_1d_p15": grid_min(zoo["rr_1d_p15"], -1.0, 4.0, 4001),
            "eps_ins_1d": grid_min(zoo["eps_ins_1d"], -1.0, 4.0, 4001),
            "l1_2d": grid_min(zoo["l1_2d"], -2.0, 2.0, 401),
            "hinge_sep_2d": grid_min(zoo["hinge_sep_2d"], -3.0, 3.0, 401),
            "hinge_l1ball_2d": grid_min(zoo["hinge_l1ball_2d"], -0.8, 0.8, 321),
        }
        for idx, (name, rep) in enumerate(sorted(reports.items())):
            inst = zoo[name]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # unbounded level directions warn
                b_hat = estimate_B_eps(inst, eps, rep, ray_count=128, seed=0)
            assert math.isfinite(b_hat) and b_hat > 0.0
            amin = np.asarray(rep.argmin, dtype=float)
            rng = np.random.default_rng(200 + idx)
            for _ in range(100):
                w = inst.feasible(amin + rng.uniform(-2.5, 2.5, inst.dim))
                w_eps = sublevel_project(inst, w, eps, rep)
                lhs = float(np.linalg.norm(w - w_eps))
                rhs = 1.05 * (b_hat / eps) * (inst.objective(w) - inst.objective(w_eps))
                assert lhs <= rhs + 1e-12, (name, w, lhs, rhs)
