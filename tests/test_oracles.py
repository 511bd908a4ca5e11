"""Reference-minimum oracles: grid sweeps, medians, long runs, level geometry."""

from __future__ import annotations

import contextlib
import json
import math
import signal

import numpy as np
import pytest
import scipy.sparse as sp

from rsgkit.core import ProblemInstance
from rsgkit.oracles import (
    BudgetError,
    InconsistentOracleError,
    OracleReport,
    SublevelGrid,
    estimate_B_eps,
    grid_min,
    long_run_min,
    sample_level_points,
    sublevel_project,
    submodular_min_enumerate,
    weighted_median,
)
from rsgkit.problems import (
    Dataset,
    SetFunction,
    cut_function,
    miniature_zoo,
    piecewise_linear_erm,
)

ZOO = miniature_zoo()


def exact_report(fstar: float, argmin, tol: float = 0.0) -> OracleReport:
    return OracleReport(
        fstar=fstar,
        argmin=np.asarray(argmin, dtype=float),
        method="grid",
        certified_tol=tol,
        certified=True,
    )


# ---------------------------------------------------------------------------
# grid_min


def test_grid_min_hits_on_grid_kink_exactly():
    inst = ZOO["abs_1d"]
    report = grid_min(inst, -1.0, 1.0, 201)
    assert report.fstar == 0.0
    assert report.argmin[0] == 0.0
    assert report.certified and report.method == "grid"
    # half a cell diagonal: 0.5 * G * h with G = 1 and h = 2/200
    assert math.isclose(report.certified_tol, 0.005, rel_tol=1e-12)


def test_grid_min_off_grid_minimum_within_certificate():
    data = Dataset(sp.csr_matrix(np.array([[1.0]])), np.array([0.3030303]))
    inst = piecewise_linear_erm(data, loss="absolute")
    report = grid_min(inst, -1.0, 1.0, 201)
    assert 0.0 < report.fstar <= report.certified_tol + 1e-15


def test_grid_min_budget_refusal_reports_required_count():
    inst = ZOO["l1_2d"]
    with pytest.raises(BudgetError) as exc:
        grid_min(inst, -1.0, 1.0, 2000)
    assert exc.value.required == 2000**2
    # an explicit budget unlocks larger sweeps
    report = grid_min(inst, -1.0, 1.0, 41, budget=10_000)
    assert report.fstar == 0.0


def test_grid_min_validation():
    inst = ZOO["abs_1d"]
    with pytest.raises(ValueError, match="points_per_dim"):
        grid_min(inst, -1.0, 1.0, 1)
    with pytest.raises(ValueError, match="box_lo"):
        grid_min(inst, 1.0, -1.0, 11)


@pytest.mark.parametrize(
    "lo, hi",
    [(math.nan, 1.0), (-1.0, math.inf), (-math.inf, 1.0), ([-1.0, math.nan], 1.0)],
)
def test_grid_oracles_reject_non_finite_box(lo, hi):
    # a NaN bound used to give a "certified" report with certified_tol NaN,
    # an infinite one fstar inf with argmin None
    inst = ZOO["abs_1d"] if np.ndim(lo) == 0 else ZOO["l1_2d"]
    with pytest.raises(ValueError, match="finite"):
        grid_min(inst, lo, hi, 11)
    oracle = exact_report(0.0, np.zeros(inst.dim))
    with pytest.raises(ValueError, match="finite"):
        SublevelGrid(inst, oracle, eps=0.5, box_lo=lo, box_hi=hi, points_per_dim=11)


def reference_grid_min(problem, box_lo, box_hi, points_per_dim):
    """The per-point sweep grid_min replaced: every grid point in C order,
    one objective call each, the first strict improvement kept."""
    d = problem.dim
    lo = np.broadcast_to(np.asarray(box_lo, dtype=float), (d,))
    hi = np.broadcast_to(np.asarray(box_hi, dtype=float), (d,))
    axes = [np.linspace(lo[i], hi[i], points_per_dim) for i in range(d)]
    best_f, best_w = math.inf, None
    w = np.empty(d)
    for flat in range(points_per_dim**d):
        rem = flat
        for i in range(d - 1, -1, -1):
            rem, k = divmod(rem, points_per_dim)
            w[i] = axes[i][k]
        val = float(problem.objective(w))
        if val < best_f:
            best_f, best_w = val, w.copy()
    return best_f, best_w


def assert_same_as_reference(problem, lo, hi, ppd):
    report = grid_min(problem, lo, hi, ppd)
    fstar, argmin = reference_grid_min(problem, lo, hi, ppd)
    assert report.fstar == fstar, (problem.name, report.fstar, fstar)
    if argmin is None:
        assert report.argmin is None
    else:
        assert np.array_equal(report.argmin, argmin), (problem.name, report.argmin, argmin)
    return report


# the grids of the C10 acceptance check
C10_GRIDS = [
    ("abs_1d", -2.0, 2.0, 4001),
    ("abs_median_1d", -2.0, 6.0, 4001),
    ("square_1d", -2.0, 2.0, 4001),
    ("rr_1d_p15", -1.0, 4.0, 4001),
    ("eps_ins_1d", -1.0, 4.0, 4001),
    ("l1_2d", -2.0, 2.0, 401),
    ("hinge_sep_2d", -3.0, 3.0, 401),
]


@pytest.mark.parametrize("name, lo, hi, ppd", C10_GRIDS)
def test_grid_min_matches_per_point_sweep_on_c10_grids(name, lo, hi, ppd):
    assert_same_as_reference(ZOO[name], lo, hi, ppd)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grid_min_matches_per_point_sweep_on_seeded_boxes(seed):
    rng = np.random.default_rng(seed)
    for name in sorted(ZOO):
        inst = ZOO[name]
        if inst.dim > 2:
            continue
        box = (-4.0 - rng.uniform(0.0, 0.5), 4.0 + rng.uniform(0.0, 0.5))
        assert_same_as_reference(inst, *box, 2001 if inst.dim == 1 else 101)


def custom(objective, batch=None, dim=2):
    if batch is not None:
        objective.batch = batch
    return ProblemInstance(dim=dim, objective=objective, subgrad=np.sign, lipschitz_bound=2.0)


def test_grid_min_skips_nan_points_like_the_sweep():
    # the unconstrained minimum (0.3, 0) sits in the NaN region w_0 > 0.25
    def f(w):
        return math.nan if w[0] > 0.25 else abs(w[0] - 0.3) + abs(w[1])

    def f_rows(W):
        return np.where(W[:, 0] > 0.25, np.nan, np.abs(W[:, 0] - 0.3) + np.abs(W[:, 1]))

    for inst in (custom(f), custom(lambda w: f(w), f_rows)):
        report = assert_same_as_reference(inst, -1.0, 1.0, 21)
        assert report.argmin == pytest.approx([0.2, 0.0], abs=1e-12)
        assert report.fstar == pytest.approx(0.1)


def test_grid_min_all_nan_gives_no_argmin():
    def f(w):
        return math.nan

    for inst in (custom(f), custom(lambda w: f(w), lambda W: np.full(W.shape[0], np.nan))):
        report = assert_same_as_reference(inst, -1.0, 1.0, 11)
        assert report.argmin is None and report.fstar == math.inf


def test_grid_min_refuses_a_batch_that_disagrees_with_its_objective():
    def f(w):
        return float(np.sum(np.abs(w)))

    stale = custom(f, lambda W: np.abs(W).sum(axis=1) - 1e-6)
    with pytest.raises(InconsistentOracleError, match="batch value"):
        grid_min(stale, -1.0, 1.0, 11)
    # a last-bit difference is within the 1e-12 relative tolerance
    close = custom(lambda w: f(w), lambda W: np.abs(W).sum(axis=1) * (1.0 + 2.0**-52))
    assert grid_min(close, 0.5, 1.0, 11).fstar == 1.0


# ---------------------------------------------------------------------------
# weighted_median


def test_weighted_median_frozen_cases():
    assert weighted_median([1.0, 2.0, 10.0]) == 2.0
    assert weighted_median([10.0, 1.0, 2.0]) == 2.0  # order-insensitive
    assert weighted_median([0.0, 1.0]) == 0.0  # even split: lowest minimizer
    assert weighted_median([1.0, 2.0, 10.0], [5.0, 1.0, 1.0]) == 1.0


def test_weighted_median_validation():
    with pytest.raises(ValueError, match="empty"):
        weighted_median([])
    with pytest.raises(ValueError, match="shape"):
        weighted_median([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="weights"):
        weighted_median([1.0, 2.0], [1.0, 0.0])


def test_weighted_median_minimizes_weighted_absolute_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=21)
        w = rng.uniform(0.1, 3.0, size=21)
        med = weighted_median(v, w)

        def cost(t):
            return float(np.sum(w * np.abs(t - v)))

        best = min(cost(t) for t in v)
        assert cost(med) <= best + 1e-12


# ---------------------------------------------------------------------------
# long_run_min


def test_long_run_min_reaches_known_minimum():
    report = long_run_min(ZOO["abs_1d"], np.array([5.0]), total_iters=20_000, stages=20)
    assert report.method == "long_run"
    assert not report.certified
    assert 0.0 <= report.fstar <= 1e-3
    assert abs(report.argmin[0]) <= 1e-3


def test_long_run_min_validation():
    with pytest.raises(ValueError, match="total_iters"):
        long_run_min(ZOO["abs_1d"], np.zeros(1), total_iters=5, stages=30)


# ---------------------------------------------------------------------------
# sublevel projection


def test_sublevel_project_keeps_inside_points():
    inst = ZOO["abs_1d"]
    w = np.array([0.2])
    out = sublevel_project(inst, w, eps=0.5, oracle=exact_report(0.0, [0.0]))
    assert np.array_equal(out, w)
    assert out is not w


def test_sublevel_project_segment_finds_boundary():
    inst = ZOO["abs_1d"]
    out = sublevel_project(inst, np.array([2.0]), eps=0.5, oracle=exact_report(0.0, [0.0]))
    assert math.isclose(out[0], 0.5, rel_tol=0, abs_tol=1e-9)
    assert inst.objective(out) <= 0.5 + 1e-12


def test_sublevel_project_grid_on_l1_ball():
    inst = ZOO["l1_2d"]
    w = np.array([2.0, 0.0])
    out = sublevel_project(
        inst, w, eps=1.0, oracle=exact_report(0.0, [0.0, 0.0]), method="grid",
        points_per_dim=201,
    )
    assert inst.objective(out) <= 1.0 + 1e-12
    assert float(np.linalg.norm(out - np.array([1.0, 0.0]))) <= 0.03


def test_sublevel_project_rejects_fabricated_fstar():
    inst = ZOO["abs_1d"]
    with pytest.raises(InconsistentOracleError, match="objective"):
        sublevel_project(inst, np.array([2.0]), eps=0.5, oracle=exact_report(-1.0, [0.0]))


def test_sublevel_project_empty_level_raises():
    inst = ZOO["abs_1d"]
    # a coarse but self-consistent report whose witness sits above the level
    loose = exact_report(0.3, [0.5], tol=0.5)
    with pytest.raises(InconsistentOracleError, match="empty"):
        sublevel_project(inst, np.array([2.0]), eps=0.1, oracle=loose)


def test_sublevel_project_validation():
    inst = ZOO["abs_1d"]
    oracle = exact_report(0.0, [0.0])
    with pytest.raises(ValueError, match="eps"):
        sublevel_project(inst, np.array([2.0]), eps=0.0, oracle=oracle)
    with pytest.raises(ValueError, match="method"):
        sublevel_project(inst, np.array([2.0]), eps=0.5, oracle=oracle, method="newton")


def test_sublevel_grid_respects_constraints():
    inst = ZOO["hinge_l1ball_2d"]  # feasible set: l1 ball of radius 0.8
    oracle = exact_report(0.0, [0.8, 0.0])
    grid = SublevelGrid(inst, oracle, eps=0.05, box_lo=-1.0, box_hi=1.0, points_per_dim=81)
    out = grid.project(np.array([2.0, 2.0]))
    assert float(np.sum(np.abs(out))) <= 0.8 + 1e-9
    assert inst.objective(out) <= 0.05 + 1e-12


def test_sublevel_grid_budget():
    with pytest.raises(BudgetError):
        SublevelGrid(ZOO["l1_2d"], exact_report(0.0, [0.0, 0.0]), 1.0, -1.0, 1.0, 3000)


def reference_sublevel_points(problem, level, box_lo, box_hi, points_per_dim):
    """The level subset as SublevelGrid built it before it filtered by level
    first: the whole grid from a meshgrid, a per-point feasibility loop over
    it, then one values() call on the feasible points."""
    d = problem.dim
    lo = np.broadcast_to(np.asarray(box_lo, dtype=float), (d,))
    hi = np.broadcast_to(np.asarray(box_hi, dtype=float), (d,))
    axes = [np.linspace(lo[i], hi[i], points_per_dim) for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    if problem.project is not None:
        keep = [
            k
            for k in range(pts.shape[0])
            if np.max(np.abs(problem.project(pts[k]) - pts[k])) <= 1e-12
        ]
        pts = pts[keep]
    return pts[problem.values(pts) <= level]


@pytest.mark.parametrize("eps", [0.05, 0.3])
@pytest.mark.parametrize("name", sorted(n for n in ZOO if ZOO[n].dim <= 2))
def test_sublevel_grid_matches_the_per_point_filter(name, eps):
    inst = ZOO[name]
    oracle = grid_min(inst, -1.5, 1.5, 61)
    grid = SublevelGrid(inst, oracle, eps, -1.5, 1.5, points_per_dim=61)
    expected = reference_sublevel_points(inst, oracle.fstar + eps, -1.5, 1.5, 61)
    assert grid.points.shape == expected.shape
    assert np.array_equal(grid.points, expected)
    assert grid.cell_diag == float(np.linalg.norm(np.full(inst.dim, 3.0 / 60)))


def test_sublevel_grid_checks_its_grid_as_grid_min_does():
    inst, oracle = ZOO["abs_1d"], exact_report(0.0, [0.0])
    with pytest.raises(ValueError, match="points_per_dim must be >= 2"):
        SublevelGrid(inst, oracle, eps=0.5, box_lo=-1.0, box_hi=1.0, points_per_dim=1)
    with pytest.raises(ValueError, match="box_lo must be strictly below box_hi"):
        SublevelGrid(inst, oracle, eps=0.5, box_lo=1.0, box_hi=-1.0, points_per_dim=11)


# ---------------------------------------------------------------------------
# level-point sampling and radius estimates


def test_sample_level_points_sit_on_the_level():
    inst = ZOO["abs_1d"]
    pts = sample_level_points(inst, eps=0.5, oracle=exact_report(0.0, [0.0]), ray_count=8)
    assert len(pts) >= 2
    for p in pts:
        val = inst.objective(p)
        assert val <= 0.5 + 1e-12
        assert val >= 0.5 - 1e-6


def test_sample_level_points_warns_on_unbounded_rays():
    # f(w) = |w_0| in two dimensions: the w_1 axis never crosses the level
    data = Dataset(sp.csr_matrix(np.array([[1.0, 0.0]])), np.array([0.0]))
    inst = piecewise_linear_erm(data, loss="absolute")
    with pytest.warns(UserWarning, match="never crossed"):
        pts = sample_level_points(inst, eps=0.5, oracle=exact_report(0.0, [0.0, 0.0]), ray_count=4)
    assert len(pts) == 2  # only the +/- first-axis rays cross


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after seconds, so a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("xtol", [0.0, -1.0])
def test_sample_level_points_ends_for_any_xtol(xtol):
    # a ray stops once its midpoint rounds to an end of its bracket; with
    # xtol <= 0 the width test alone never stopped it
    inst = ZOO["abs_median_1d"]
    oracle = exact_report(3.0, [2.0])
    with time_limit(20):
        pts = sample_level_points(inst, eps=0.3, oracle=oracle, ray_count=2, xtol=xtol)
    coarse = sample_level_points(inst, eps=0.3, oracle=oracle, ray_count=2)
    assert len(pts) == len(coarse) == 2
    level = oracle.fstar + 0.3
    for p, q in zip(pts, coarse):
        assert level - 1e-14 <= inst.objective(p) <= level
        assert abs(p[0] - q[0]) <= 1e-12


def test_estimate_B_eps_absolute_value():
    b = estimate_B_eps(ZOO["abs_1d"], eps=0.3, oracle=exact_report(0.0, [0.0]))
    assert 0.3 - 1e-6 <= b <= 0.3 + 1e-12


def test_estimate_B_eps_square():
    b = estimate_B_eps(ZOO["square_1d"], eps=0.25, oracle=exact_report(0.0, [0.0]))
    assert math.isclose(b, 0.5, rel_tol=1e-5)


def test_estimate_B_eps_l1_diamond():
    b = estimate_B_eps(ZOO["l1_2d"], eps=1.0, oracle=exact_report(0.0, [0.0, 0.0]), ray_count=32)
    assert math.isclose(b, 1.0, rel_tol=1e-6)


def test_estimate_B_eps_unbounded_everywhere_raises():
    flat = ProblemInstance(
        dim=1,
        objective=lambda w: 0.0,
        subgrad=lambda w: np.zeros(1),
        lipschitz_bound=1.0,
        name="flat",
    )
    with pytest.warns(UserWarning, match="never crossed"):
        with pytest.raises(RuntimeError, match="no ray crossed"):
            estimate_B_eps(flat, eps=0.5, oracle=exact_report(0.0, [0.0]))


# ---------------------------------------------------------------------------
# subset enumeration


def test_submodular_min_enumerate_zero_function():
    assert submodular_min_enumerate(SetFunction(3, lambda m: 0.0)) == (0.0, 0)


def test_submodular_min_enumerate_shifted_cut():
    cut = cut_function(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])

    def shifted(mask: int) -> float:
        return cut.evaluate(mask) - 2.0 * ((mask >> 0) & 1)

    val, mask = submodular_min_enumerate(SetFunction(4, shifted))
    assert (val, mask) == (-2.0, 0b1111)


def test_submodular_min_enumerate_budget():
    big = SetFunction(21, lambda m: float(bin(m).count("1")))
    with pytest.raises(BudgetError) as exc:
        submodular_min_enumerate(big)
    assert exc.value.required == 1 << 21


# ---------------------------------------------------------------------------
# report plumbing and the distance-to-level inequality


def test_oracle_report_to_dict_is_json_ready():
    report = grid_min(ZOO["abs_1d"], -1.0, 1.0, 11)
    d = report.to_dict()
    assert isinstance(d["argmin"], list)
    json.dumps(d)


def test_level_set_distance_inequality():
    # for convex f and w outside the eps-sublevel set S_eps:
    #   rho_eps * ||w - proj(w)|| <= f(w) - f(proj(w))
    # with rho_eps the smallest subgradient norm on the level boundary
    cases = [
        ("abs_1d", exact_report(0.0, [0.0]), np.linspace(-3.0, 3.0, 25).reshape(-1, 1)),
        (
            "l1_2d",
            exact_report(0.0, [0.0, 0.0]),
            np.random.default_rng(17).uniform(-3.0, 3.0, size=(25, 2)),
        ),
    ]
    eps = 0.25
    for key, oracle, samples in cases:
        inst = ZOO[key]
        level_pts = sample_level_points(inst, eps, oracle, ray_count=16)
        rho = min(float(np.linalg.norm(inst.subgrad(p))) for p in level_pts)
        assert rho > 0.0
        for w in samples:
            if inst.objective(w) <= oracle.fstar + eps:
                continue
            proj = sublevel_project(inst, w, eps, oracle)
            lhs = rho * float(np.linalg.norm(w - proj))
            rhs = inst.objective(w) - inst.objective(proj) + 1e-9
            assert lhs <= rhs, (key, w)
