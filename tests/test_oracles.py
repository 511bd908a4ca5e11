"""Reference-minimum oracles: grid sweeps, medians, long runs, level geometry."""

from __future__ import annotations

import contextlib
import json
import math
import signal

import numpy as np
import pytest
import scipy.sparse as sp

import oracle_reference as ref
from rsgkit import oracles
from rsgkit.core import Oracle, ProblemInstance
from rsgkit.oracles import (
    BudgetError,
    InconsistentOracleError,
    OracleReport,
    estimate_B_eps,
    grid_min,
    long_run_min,
    sublevel_project,
    submodular_min_enumerate,
    weighted_median,
)
from rsgkit.problems import (
    Dataset,
    SetFunction,
    cut_function,
    lovasz_problem,
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
    with pytest.raises(ValueError, match="grid_min: points_per_dim must be >= 2"):
        grid_min(inst, -1.0, 1.0, 1)
    with pytest.raises(ValueError, match="grid_min: box_lo must be strictly below box_hi"):
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


def reference_grid_min(problem, box_lo, box_hi, points_per_dim):
    """The per-point sweep grid_min replaced: every grid point in C order,
    made feasible, one objective call each, the first strict improvement kept."""
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
        x = problem.feasible(w)
        val = float(problem.objective(x))
        if val < best_f:
            best_f, best_w = val, x.copy()
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


def test_grid_min_evaluates_the_projection_of_each_grid_point():
    # cut plus the modular term (-1.5, 0.5): its minimum is F(mask 3) = -1,
    # while the extension reads -2 at the raw grid point [2, 2] off the box
    cut = cut_function(2, [(0, 1, 1.0)])
    m = (-1.5, 0.5)
    setfn = SetFunction(2, lambda mask: cut.evaluate(mask) + m[0] * (mask & 1) + m[1] * (mask >> 1))
    assert submodular_min_enumerate(setfn) == (-1.0, 3)
    report = grid_min(lovasz_problem(setfn), -1.0, 2.0, 31)
    assert report.fstar == -1.0 and np.array_equal(report.argmin, [1.0, 1.0])
    # the witness of the l1-ball member lies in its radius-0.8 ball
    ball = grid_min(ZOO["hinge_l1ball_2d"], -1.0, 1.0, 401)
    assert float(np.sum(np.abs(ball.argmin))) <= 0.8 + 1e-12


def custom(objective, batch=None, dim=2):
    """An instance of objective; given batch, the objective at each row of a
    block, through a one-pass oracle whose block half is batch."""
    if batch is None:
        return ProblemInstance(dim=dim, objective=objective, subgrad=np.sign, lipschitz_bound=2.0)

    def run(W, want_f, want_g):
        return (objective(W) if W.ndim == 1 else batch(W.T)), np.sign(W)

    return ProblemInstance(dim=dim, oracle=Oracle(run), lipschitz_bound=2.0)


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


SMALL = sorted(n for n in ZOO if ZOO[n].dim <= 2)


def modular_cut():
    """The cut of one edge plus the modular term (-1.5, 0.5); minimum -1 at mask 3."""
    cut = cut_function(2, [(0, 1, 1.0)])
    return SetFunction(2, lambda mask: cut.evaluate(mask) - 1.5 * (mask & 1) + 0.5 * (mask >> 1))


def small_member(name):
    """A member of dim <= 2 with the box and grid the block tests sweep."""
    if name == "lovasz_box":
        return lovasz_problem(cut_function(2, [(0, 1, 1.0)])), -0.5, 1.5, 41
    return ZOO[name], -1.5, 1.5, 61


@pytest.mark.parametrize("score_block", [1, 7])
@pytest.mark.parametrize("name", SMALL + ["lovasz_box"])
def test_grid_min_report_does_not_depend_on_its_block_size(monkeypatch, name, score_block):
    # blocks of one point (2-d: max(1, 1 // 2)) and blocks that end mid-row
    inst, lo, hi, ppd = small_member(name)
    default = grid_min(inst, lo, hi, ppd)
    monkeypatch.setattr(oracles, "_SCORE_BLOCK", score_block)
    report = assert_same_as_reference(inst, lo, hi, ppd)
    assert report.fstar == default.fstar
    assert report.argmin.tobytes() == default.argmin.tobytes()
    assert report.certified_tol == default.certified_tol
    assert report.params == default.params


@pytest.mark.parametrize("name", SMALL)
def test_grid_min_certificate_is_half_the_cell_diagonal_of_a_per_coordinate_box(name):
    inst = ZOO[name]
    lo, hi = [-1.0, -0.5][: inst.dim], [2.0, 1.5][: inst.dim]
    report = assert_same_as_reference(inst, lo, hi, 31)
    h = (np.array(hi) - np.array(lo)) / 30
    assert report.certified_tol == 0.5 * inst.lipschitz_bound * float(np.linalg.norm(h))
    assert report.params == {"points_per_dim": 31, "lo": lo, "hi": hi}
    assert report.method == "grid" and report.certified


def feasible_only_min(problem, box_lo, box_hi, points_per_dim):
    """The least value over the grid points that are feasible as they stand,
    the form of constrained reference grid_min's projected points replace."""
    d = problem.dim
    axes = [np.linspace(box_lo, box_hi, points_per_dim)] * d
    W = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    W = W[np.max(np.abs(problem.feasible_rows(W) - W), axis=1) <= 1e-12]
    return float(np.min(problem.values(W)))


@pytest.mark.parametrize(
    "name, lo, hi, ppd, fstar",
    [
        ("hinge_l1ball_2d", -0.8, 0.8, 321, 0.0),  # the C10 grid
        ("hinge_l1ball_2d", -1.0, 1.0, 81, 0.0),
        ("hinge_l1ball_2d", -1.5, 1.5, 61, 0.0),
        ("lovasz_box", -0.5, 1.5, 41, 0.0),
        ("lovasz_modular", -1.0, 2.0, 31, -1.0),
    ],
    ids=["hinge_l1ball_2d-c10", "hinge_l1ball_2d-81", "hinge_l1ball_2d-61", "lovasz_box",
         "lovasz_modular"],
)
def test_grid_min_on_a_constrained_member_keeps_its_certificate(name, lo, hi, ppd, fstar):
    # fstar is the member's true minimum: hinge_l1ball_2d is separable inside
    # its ball, the Lovasz extensions reach the least set value
    if name == "lovasz_modular":
        assert submodular_min_enumerate(modular_cut())[0] == fstar
        inst = lovasz_problem(modular_cut())
    else:
        inst = small_member(name)[0] if name == "lovasz_box" else ZOO[name]
    report = grid_min(inst, lo, hi, ppd)
    assert np.max(np.abs(inst.project(report.argmin) - report.argmin)) <= 1e-12
    assert report.fstar - report.certified_tol <= fstar <= report.fstar
    assert report.fstar <= feasible_only_min(inst, lo, hi, ppd)


@pytest.mark.parametrize(
    "member, lo, hi, ppd, budget, error, message",
    [
        ("abs_1d", -1.0, 1.0, 1, None, ValueError, "points_per_dim must be >= 2, got 1"),
        ("abs_1d", -1.0, 1.0, 2.0, None, ValueError, "points_per_dim must be an integer, got 2.0"),
        ("abs_1d", -1.0, 1.0, "3", None, ValueError, "points_per_dim must be a number, got '3'"),
        ("abs_1d", math.nan, 1.0, 1, None, ValueError, "points_per_dim must be >= 2, got 1"),
        ("abs_1d", 1.0, 1.0, 11, None, ValueError, "box_lo must be strictly below box_hi"),
        ("l1_2d", [-1.0, 1.0], [1.0, 0.5], 11, None, ValueError,
         "box_lo must be strictly below box_hi"),
        ("abs_1d", math.nan, 1.0, 11, None, ValueError,
         "box bounds must be finite, got [nan] to [1.0]"),
        ("l1_2d", -1.0, [1.0, math.inf], 11, None, ValueError,
         "box bounds must be finite, got [-1.0, -1.0] to [1.0, inf]"),
        ("abs_1d", math.inf, 1.0, 11, None, ValueError,
         "box bounds must be finite, got [inf] to [1.0]"),
        ("l1_2d", 1.0, -1.0, 5000, None, ValueError, "box_lo must be strictly below box_hi"),
        ("l1_2d", -1.0, 1.0, 101, 10_000, BudgetError,
         "101**2 = 10201 evaluations exceed the budget of 10000; "
         "raise the budget or coarsen the grid"),
    ],
    ids=["ppd-1", "ppd-float", "ppd-str", "ppd-before-box", "box-empty", "box-reversed-coord",
         "box-nan", "box-inf-coord", "finite-before-order", "order-before-budget", "budget"],
)
def test_grid_min_refusal_wording_and_order(member, lo, hi, ppd, budget, error, message):
    # the checks run in order: points_per_dim, finite box, box order, budget
    kwargs = {} if budget is None else {"budget": budget}
    with pytest.raises(error) as info:
        grid_min(ZOO[member], lo, hi, ppd, **kwargs)
    assert str(info.value) == f"grid_min: {message}"
    if error is BudgetError:
        assert info.value.required == 101**2


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


@pytest.mark.parametrize(
    "values, weights, message",
    [
        ([1.0, 2.0, 3.0], [1.0, math.nan, 1.0], "weights must be finite and > 0"),
        ([1.0, 2.0, 3.0], [1.0, math.inf, 1.0], "weights must be finite and > 0"),
        ([math.nan, 2.0, 3.0], None, "values must be a non-empty 1-d array of finite numbers"),
        ([1.0, -math.inf], [1.0, 1.0], "values must be a non-empty 1-d array of finite numbers"),
        ([[1.0, 2.0], [3.0, 4.0]], None, "values must be a non-empty 1-d array of finite numbers"),
        (2.0, None, "values must be a non-empty 1-d array of finite numbers"),
    ],
)
def test_weighted_median_refuses_non_finite_or_non_vector_input(values, weights, message):
    # before, [1, 2, 3] with weights [1, nan, 1] gave 2.0, [nan, 2, 3] gave
    # 3.0, and a 2-d input ended in an IndexError
    with pytest.raises(ValueError) as exc:
        weighted_median(values, weights)
    assert str(exc.value) == f"weighted_median: {message}"


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


# ---------------------------------------------------------------------------
# sublevel-set radius estimates

STALLED = "estimate_B_eps: ray stayed below the level for 80 doublings"


def test_estimate_B_eps_ends_inside_the_level():
    # the level point is the inner end of a bracket narrower than 1e-13
    b = estimate_B_eps(ZOO["abs_1d"], eps=0.5, oracle=exact_report(0.0, [0.0]), ray_count=8)
    assert 0.5 - 1e-12 <= b <= 0.5


def test_estimate_B_eps_warns_on_unbounded_rays():
    # f(w) = |w_0| in two dimensions: the w_1 axis never crosses the level
    data = Dataset(sp.csr_matrix(np.array([[1.0, 0.0]])), np.array([0.0]))
    inst = piecewise_linear_erm(data, loss="absolute")
    with pytest.warns(UserWarning, match=STALLED) as caught:
        b = estimate_B_eps(inst, eps=0.5, oracle=exact_report(0.0, [0.0, 0.0]), ray_count=4)
    assert len(caught) == 2  # only the +/- first-axis rays cross
    assert 0.5 - 1e-12 <= b <= 0.5
    assert "unbounded direction" in str(caught[0].message)
    assert "stalled on the feasible set's boundary" in str(caught[0].message)


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


def test_estimate_B_eps_ends_at_the_fixed_tolerance():
    # the width test alone stops every ray: a bracket wider than
    # 1e-13 * max(1, t) always has a midpoint strictly inside it.  The mean
    # of |w - 1| + |w - 2| + |w - 10| has slope 1/3 to the right of the
    # median 2 and -1/3 on [1, 2], so both level points lie 0.9 from it
    oracle = exact_report(3.0, [2.0])
    with time_limit(20):
        b = estimate_B_eps(ZOO["abs_median_1d"], eps=0.3, oracle=oracle, ray_count=2)
    assert 0.9 - 1e-12 <= b <= 0.9


def test_estimate_B_eps_absolute_value():
    b = estimate_B_eps(ZOO["abs_1d"], eps=0.3, oracle=exact_report(0.0, [0.0]))
    assert 0.3 - 1e-6 <= b <= 0.3 + 1e-12


def test_estimate_B_eps_square():
    b = estimate_B_eps(ZOO["square_1d"], eps=0.25, oracle=exact_report(0.0, [0.0]))
    assert math.isclose(b, 0.5, rel_tol=1e-5)


def test_estimate_B_eps_l1_diamond():
    b = estimate_B_eps(ZOO["l1_2d"], eps=1.0, oracle=exact_report(0.0, [0.0, 0.0]), ray_count=32)
    assert math.isclose(b, 1.0, rel_tol=1e-6)


def test_estimate_B_eps_from_a_grid_witness_on_a_constrained_member():
    # an infeasible witness put every first projected probe above the level
    inst = ZOO["hinge_l1ball_2d"]
    report = grid_min(inst, -1.0, 1.0, 401)
    with pytest.warns(UserWarning, match=STALLED):  # rays stall at the ball's boundary
        b = estimate_B_eps(inst, 0.0148, report, ray_count=32)
    assert 0.32 < b < 0.33


def test_estimate_B_eps_refuses_an_oracle_in_its_own_name():
    inst = ZOO["abs_1d"]
    with pytest.raises(InconsistentOracleError, match="^estimate_B_eps: oracle fstar = -1.0"):
        estimate_B_eps(inst, 0.5, exact_report(-1.0, [0.0]))
    with pytest.raises(
        InconsistentOracleError, match="^estimate_B_eps: oracle argmin sits above the requested"
    ):
        estimate_B_eps(inst, 0.1, exact_report(0.3, [0.5], tol=0.5))


def test_estimate_B_eps_unbounded_everywhere_raises():
    flat = ProblemInstance(
        dim=1,
        objective=lambda w: 0.0,
        subgrad=lambda w: np.zeros(1),
        lipschitz_bound=1.0,
        name="flat",
    )
    with pytest.warns(UserWarning, match=STALLED):
        with pytest.raises(RuntimeError, match="no ray crossed"):
            estimate_B_eps(flat, eps=0.5, oracle=exact_report(0.0, [0.0]))


def test_estimate_B_eps_leaves_out_rays_that_end_at_the_argmin():
    # at eps = 1e-14 on |w| the first probe, 1e-9, is above the level and the
    # bisection stops at [0, 6.1e-14] with its inner end still at the argmin;
    # such rays give no level point, so none is left, though both crossed
    with pytest.raises(RuntimeError, match="every ray that crossed the level ended at the argmin"):
        estimate_B_eps(ZOO["abs_1d"], eps=1e-14, oracle=exact_report(0.0, [0.0]))


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
        level_pts = ref.sample_level_points(inst, eps, oracle, ray_count=16)
        rho = min(float(np.linalg.norm(inst.subgrad(p))) for p in level_pts)
        assert rho > 0.0
        for w in samples:
            if inst.objective(w) <= oracle.fstar + eps:
                continue
            proj = sublevel_project(inst, w, eps, oracle)
            lhs = rho * float(np.linalg.norm(w - proj))
            rhs = inst.objective(w) - inst.objective(proj) + 1e-9
            assert lhs <= rhs, (key, w)
