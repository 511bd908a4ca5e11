import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsgkit import core
from rsgkit.core import (
    ErrorBoundParams,
    Oracle,
    PNormSpace,
    ProblemInstance,
    conjugate_exponent,
    pnorm,
    project_box,
    project_l1_ball,
    project_l2_ball,
)


def test_pnorm_values():
    assert pnorm(np.array([3.0, 4.0]), 2.0) == 5.0
    assert pnorm(np.array([1.0, -2.0, 3.0]), 1.0) == 6.0
    assert pnorm(np.array([1.0, -5.0, 2.0]), math.inf) == 5.0
    # (1^1.5 + 1^1.5)^(1/1.5) = 2^(2/3)
    assert pnorm(np.array([1.0, 1.0]), 1.5) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)
    assert pnorm(np.array([]), 3.0) == 0.0


def test_pnorm_rejects_bad_input():
    with pytest.raises(ValueError):
        pnorm(np.array([1.0]), 0.5)
    with pytest.raises(ValueError):
        pnorm(np.array([1.0, np.nan]), 2.0)
    with pytest.raises(ValueError):
        pnorm(np.array([np.inf]), 2.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_pnorm_non_finite_entry_raises_and_overflow_returns_inf(p):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            pnorm(np.array([1.0, bad, 0.0]), p)
    # finite entries whose norm overflows are not an error
    if p in (1.0, 2.0):
        with np.errstate(over="ignore"):
            assert pnorm(np.array([1e308, 1e308]), p) == math.inf


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(1.5) == pytest.approx(3.0, rel=1e-15)
    # p = 2 ln d / (2 ln d - 1) with ln d = 10 gives q = 2 ln d = 20
    p = 20.0 / 19.0
    assert conjugate_exponent(p) == pytest.approx(20.0, rel=1e-12)
    assert conjugate_exponent(math.inf) == 1.0
    with pytest.raises(ValueError):
        conjugate_exponent(1.0)
    with pytest.raises(ValueError):
        conjugate_exponent(0.5)


def test_holder_inequality_sampled():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(1, 8))
        p = float(rng.uniform(1.0 + 1e-6, 2.0))
        q = conjugate_exponent(p)
        g = rng.standard_normal(d) * rng.uniform(0.1, 10)
        w = rng.standard_normal(d) * rng.uniform(0.1, 10)
        assert abs(float(g @ w)) <= pnorm(g, q) * pnorm(w, p) * (1 + 1e-12) + 1e-12


def test_project_l1_ball_inside_is_identity_bitwise():
    w = np.array([0.3, -0.2])
    out = project_l1_ball(w, 1.0)
    assert np.array_equal(out, w)
    assert out is not w  # a copy, not an alias


def test_project_l1_ball_known_points():
    np.testing.assert_allclose(project_l1_ball(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])
    # brute-force reference: min ||u-(2,1)||^2 over the l1 ball is (1, 0)
    np.testing.assert_allclose(
        project_l1_ball(np.array([2.0, 1.0]), 1.0), [1.0, 0.0], atol=1e-12
    )
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0]), 0.0)


def test_project_l1_ball_far_points_stay_exact():
    # magnitudes where cumsum - radius would round to cumsum: the dominant
    # coordinate must still land on the ball boundary, not collapse to zero
    out = project_l1_ball(np.array([1.728e16, -0.15]), 0.8)
    np.testing.assert_allclose(out, [0.8, 0.0], atol=1e-12)
    assert np.abs(out).sum() <= 0.8 + 1e-12
    out = project_l1_ball(np.array([-3e18, 2e18, 1.0]), 1.0)
    assert np.abs(out).sum() <= 1.0 + 1e-12
    np.testing.assert_allclose(out, [-1.0, 0.0, 0.0], atol=1e-9)


def test_project_l1_ball_non_finite_entry_gives_nan():
    for bad in (np.nan, np.inf, -np.inf):
        out = project_l1_ball(np.array([0.5, bad, 0.0]), 1.0)
        assert out.shape == (3,) and np.isnan(out).all()
    # finite entries whose l1 norm overflows still take the pivot path
    with np.errstate(over="ignore"):
        out = project_l1_ball(np.array([1.7e308, 1e308, 0.25]), 1.0)
    assert np.isfinite(out).all() and np.abs(out).sum() <= 1.0


def test_project_l1_ball_huge_entries_land_on_the_boundary():
    # ulp(max|w|) > radius + 1: the shift to O(radius) numbers rounds up to
    # max|w| itself, and the projection used to collapse to the origin
    assert np.array_equal(project_l1_ball(np.array([1e40, 3.0]), 1.0), [1.0, 0.0])
    assert np.array_equal(project_l1_ball(np.array([1e300, 1e300]), 1.0), [0.5, 0.5])
    assert np.array_equal(project_l1_ball(np.array([-1e300, 1e300, 2.0]), 1.0), [-0.5, 0.5, 0.0])


def _exact_gap_projection(w, radius):
    """The projection of a point far outside the ball in exact rationals:
    u_i = sign(w_i) (tau - gap_i)+ with gap_i = max|w| - |w_i| and
    sum (tau - gap_i)+ = radius, by the same sort-based pivot."""
    a = [Fraction(abs(float(x))) for x in w]
    top = max(a)
    gaps = sorted(top - x for x in a)
    r = Fraction(radius)
    tau = r
    for k in range(1, len(gaps) + 1):
        t = (r + sum(gaps[:k])) / k
        if t > gaps[k - 1]:
            tau = t
    return [max(tau - (top - x), Fraction(0)) for x in a]


def test_project_l1_ball_magnitude_sweep_keeps_the_mass():
    rng = np.random.default_rng(40)
    for e in np.linspace(16.0, 300.0, 143):
        top = 10.0**e
        ulp = np.spacing(top)
        radius = float(rng.uniform(0.1, 10.0))
        # ties at the max, near-ties a few ulps below it, and small entries
        mags = np.concatenate(
            [
                np.full(rng.integers(1, 4), top),
                top - ulp * rng.integers(1, 4, size=3),
                rng.uniform(0.0, 5.0, size=3),
            ]
        )
        w = mags * rng.choice([-1.0, 1.0], size=mags.size)
        u = project_l1_ball(w, radius)
        assert np.all(np.isfinite(u)) and np.all(u * w >= 0.0)
        assert abs(np.abs(u).sum() - radius) <= 4 * np.spacing(radius), e
        gaps = [Fraction(float(top)) - Fraction(float(m)) for m in mags]
        for ui, gap in zip(u, gaps):
            if gap >= Fraction(radius):
                assert ui == 0.0, (e, gap)
        ref = _exact_gap_projection(w, radius)
        assert np.allclose(np.abs(u), [float(x) for x in ref], rtol=0, atol=4 * np.spacing(radius))


def _reference_project_l1_ball(w, radius):
    """The numpy pivot as it stood before the list form and the gap fallback,
    kept as the bitwise reference for every input that never reached its
    back-off loop."""
    w = np.asarray(w, dtype=float)
    a = np.abs(w)
    total = float(a.sum())
    if total <= radius:
        return w.copy()
    if not math.isfinite(total) and not np.all(np.isfinite(w)):
        return np.full_like(w, math.nan)
    shift = max(float(a.max()) - radius - 1.0, 0.0)
    b = np.maximum(a - shift, 0.0)
    while shift > 0.0 and float(b.max()) <= radius:
        shift = float(np.nextafter(shift, 0.0))
        b = np.maximum(a - shift, 0.0)
    u = np.sort(b)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    k = int(np.nonzero(css - ks * u < radius)[0][-1]) + 1
    theta = (css[k - 1] - radius) / k
    return np.sign(w) * np.maximum(b - theta, 0.0)


@st.composite
def l1_cases(draw):
    """Points of 1 to twice the list-pivot cut coordinates around balls of
    radius 1e-6 to 1e6: ties, zeros of both signs, magnitudes from well
    inside the ball to 1e3 radii out, and points exactly on the boundary."""
    d = draw(st.integers(1, 2 * core._SCALAR_PIVOT_MAX_DIM))
    radius = 10.0 ** draw(st.floats(-6.0, 6.0))
    entry = st.one_of(
        st.floats(-1.0, 1.0),
        st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25, 1.0]),
    )
    x = np.array(draw(st.lists(entry, min_size=d, max_size=d)))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 2.0, 30.0, 1e3]))
    w = x * (scale * radius)
    total = float(np.abs(w).sum())
    edge = draw(st.sampled_from(["none", "on", "just_out"]))
    if edge != "none" and total > 0.0:
        radius = total if edge == "on" else float(np.nextafter(total, 0.0))
    return w, radius


def _bisect_threshold(a, radius):
    lo, hi = 0.0, float(a.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@given(l1_cases())
def test_project_l1_ball_is_bitwise_the_numpy_pivot(case):
    w, radius = case
    u = project_l1_ball(w, radius)
    assert u.tobytes() == _reference_project_l1_ball(w, radius).tobytes()
    a = np.abs(w)
    if a.sum() <= radius:
        assert np.array_equal(u, w)
        return
    # KKT: u soft-thresholds |w| at the level where the mass is the radius
    theta = _bisect_threshold(a, radius)
    scale = radius + float(a.max())
    assert np.all(np.abs(np.abs(u) - np.maximum(a - theta, 0.0)) <= 1e-9 * scale)
    assert abs(np.abs(u).sum() - radius) <= 1e-9 * scale
    assert np.all(u * w >= 0.0)


def test_project_l1_ball_against_grid():
    # coarse quadratic-program check for one awkward point
    w = np.array([0.9, -0.7])
    proj = project_l1_ball(w, 1.0)
    gx, gy = np.meshgrid(np.linspace(-1, 1, 401), np.linspace(-1, 1, 401))
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts = pts[np.abs(pts).sum(axis=1) <= 1.0 + 1e-12]
    d2 = ((pts - w) ** 2).sum(axis=1)
    best = pts[np.argmin(d2)]
    assert np.linalg.norm(proj - best) < 1.5e-2  # grid spacing 5e-3
    assert ((proj - w) ** 2).sum() <= d2.min() + 1e-12


def test_projection_properties():
    rng = np.random.default_rng(7)
    projectors = [
        lambda v: project_l1_ball(v, 1.3),
        lambda v: project_l2_ball(v, 0.8),
        lambda v: project_box(v, -0.5, 0.5),
    ]
    for proj in projectors:
        for _ in range(200):
            u = rng.standard_normal(4) * 3
            v = rng.standard_normal(4) * 3
            pu, pv = proj(u), proj(v)
            # non-expansive
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12
            # idempotent
            np.testing.assert_allclose(proj(pu), pu, atol=1e-12)
    for _ in range(200):
        u = rng.standard_normal(5) * 3
        assert pnorm(project_l1_ball(u, 1.3), 1.0) <= 1.3 + 1e-12
        assert pnorm(project_l2_ball(u, 0.8), 2.0) <= 0.8 + 1e-12


def test_project_box():
    np.testing.assert_allclose(project_box(np.array([0.5]), 0.0, 1.0), [0.5])
    np.testing.assert_allclose(project_box(np.array([-1.0, 2.0]), 0.0, 1.0), [0.0, 1.0])
    np.testing.assert_allclose(
        project_box(np.array([0.2, 1.7, -0.3]), 0.0, 1.0), [0.2, 1.0, 0.0]
    )
    with pytest.raises(ValueError):
        project_box(np.array([0.0]), np.array([1.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# block projections: each row of an (m, d) block is bitwise its 1-d projection

DYADIC = (-2.0, -1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0)
SPECIAL_ROWS = (
    [1e40, 3.0],  # the shift rounds up to the max: the gap fallback
    [1e300, -1e300],  # the sum overflows, every entry finite
    [math.nan, 0.5],
    [math.inf, -1.0],
    [0.25, -0.25],  # inside the unit ball
)


@st.composite
def row_blocks(draw):
    """A block of 0 to 6 rows of 1 to 40 coordinates from a dyadic pool,
    each row scaled by its own power of two, with the special rows above
    spliced in when they fit, and a radius."""
    d = draw(st.integers(1, 40))
    m = draw(st.integers(0, 6))
    pool = st.lists(st.sampled_from(DYADIC), min_size=d, max_size=d)
    rows = [np.array(draw(pool)) * 2.0 ** draw(st.integers(-4, 60)) for _ in range(m)]
    for special in draw(st.lists(st.sampled_from(SPECIAL_ROWS), max_size=3)):
        rows.append(np.resize(np.array(special), d) if d >= 2 else np.array(special[:1]))
    W = np.array(rows).reshape(-1, d)
    radius = draw(st.sampled_from((0.5, 1.0, 0.8, 3.0, 1e-3)))
    return W, radius


def assert_rows_are_the_points(project, W):
    with np.errstate(all="ignore"):
        B = project(W)
        rows = [project(w) for w in W]
    assert B.shape == W.shape and B.dtype == np.float64
    assert B.tobytes() == np.array(rows).reshape(W.shape).tobytes()


@given(row_blocks())
def test_block_l1_projection_is_bitwise_the_row_projections(case):
    W, radius = case
    assert_rows_are_the_points(lambda v: project_l1_ball(v, radius), W)


@given(row_blocks())
def test_block_box_projection_is_bitwise_the_row_projections(case):
    W, radius = case
    lo = -radius * np.arange(1, W.shape[1] + 1)
    assert_rows_are_the_points(lambda v: project_box(v, -radius, radius), W)
    assert_rows_are_the_points(lambda v: project_box(v, lo, 0.5), W)


@given(row_blocks())
def test_block_l2_projection_is_bitwise_the_row_projections(case):
    W, radius = case
    assert_rows_are_the_points(lambda v: project_l2_ball(v, radius), W)


def test_block_l1_projection_special_rows():
    W = np.array([[1e40, 3.0], [0.25, -0.25], [0.5, math.nan], [3.0, 1.0]])
    out = project_l1_ball(W, 1.0)
    assert np.array_equal(out[[0, 1, 3]], [[1.0, 0.0], [0.25, -0.25], [1.0, 0.0]])
    assert np.all(np.isnan(out[2]))
    assert project_l1_ball(np.empty((0, 3)), 1.0).shape == (0, 3)


# ---------------------------------------------------------------------------
# block forms on ProblemInstance: fn.batch, or one call per row


def counted(fn, calls):
    def wrapper(w):
        calls.append(np.array(w))
        return fn(w)

    return wrapper


@given(row_blocks())
def test_callables_without_batch_are_called_once_per_row(case):
    W, radius = case
    W = np.nan_to_num(W, nan=0.5, posinf=2.0, neginf=-2.0)
    d = W.shape[1]
    calls: list = []
    inst = ProblemInstance(
        dim=d,
        objective=counted(lambda w: float(np.sum(np.abs(w))), calls),
        subgrad=counted(np.sign, calls),
        project=counted(lambda w: project_l1_ball(w, radius), calls),
        lipschitz_bound=1.0,
    )
    for block, one, shape in (
        (inst.values, inst.objective, (W.shape[0],)),
        (inst.subgrads, inst.subgrad, W.shape),
        (inst.feasible_rows, inst.project, W.shape),
    ):
        calls.clear()
        out = block(W)
        assert out.shape == shape and out.dtype == np.float64
        assert [c.tobytes() for c in calls] == [w.tobytes() for w in W]
        assert out.tobytes() == np.array([one(w) for w in W], dtype=float).reshape(shape).tobytes()


def test_replaced_callables_lose_the_batch_of_the_old_ones():
    def run(W, want_f, want_g):
        if W.ndim == 1:
            return 1.0, np.ones(2)
        return np.full(W.shape[1], 7.0), np.full(W.shape, 7.0)

    def batched(fn, batch):
        fn.batch = batch
        return fn

    inst = ProblemInstance(
        dim=2,
        oracle=Oracle(run),
        project=batched(lambda w: np.zeros(2), lambda W: np.full(W.shape, 7.0)),
        lipschitz_bound=1.0,
    )
    W = np.ones((3, 2))
    assert np.all(inst.values(W) == 7.0) and np.all(inst.subgrads(W) == 7.0)
    assert np.all(inst.feasible_rows(W) == 7.0)
    swapped = replace(
        inst, objective=lambda w: 1.0, subgrad=lambda w: np.ones(2), project=lambda w: np.zeros(2)
    )
    assert np.all(swapped.values(W) == 1.0) and np.all(swapped.subgrads(W) == 1.0)
    assert np.all(swapped.feasible_rows(W) == 0.0)
    assert np.array_equal(replace(inst, project=None).feasible_rows(W), W)
    for name in ("values", "subgrads", "feasible_rows"):
        with pytest.raises(ValueError, match=f"{name}: expected an"):
            getattr(inst, name)(np.ones((3, 3)))
    wrong = Oracle(lambda W, want_f, want_g: (None, np.ones(W.shape[-1])))
    inst = replace(inst, oracle=wrong, objective=None, subgrad=None)
    with pytest.raises(ValueError, match="subgrads: batch returned"):
        inst.subgrads(W)


def test_pnorm_space():
    sp = PNormSpace(1.5)
    assert sp.q == pytest.approx(3.0)
    assert sp.modulus == pytest.approx(0.5)
    assert PNormSpace(2.0).q == 2.0
    with pytest.raises(ValueError):
        PNormSpace(1.0)
    with pytest.raises(ValueError):
        PNormSpace(2.5)


def test_error_bound_params():
    eb = ErrorBoundParams(theta=0.5, c=2.0)
    assert eb.theta == 0.5
    with pytest.raises(ValueError):
        ErrorBoundParams(theta=1.5, c=1.0)
    with pytest.raises(ValueError):
        ErrorBoundParams(theta=0.5, c=0.0)


def _abs_instance():
    return ProblemInstance(
        dim=1,
        objective=lambda w: float(np.abs(w).sum()),
        subgrad=lambda w: np.sign(w),
        lipschitz_bound=1.0,
    )


def test_problem_instance_basics():
    prob = _abs_instance()
    assert prob.project is None
    w = np.array([2.0])
    assert np.array_equal(prob.feasible(w), w)
    assert prob.default_eps0(w) == 2.0

    boxed = ProblemInstance(
        dim=1,
        objective=prob.objective,
        subgrad=prob.subgrad,
        lipschitz_bound=1.0,
        project=lambda v: np.clip(v, -1.0, 1.0),
    )
    assert boxed.project is not None
    np.testing.assert_allclose(boxed.feasible(np.array([5.0])), [1.0])


def test_problem_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(dim=0, objective=lambda w: 0.0, subgrad=lambda w: w, lipschitz_bound=1.0)
    with pytest.raises(ValueError):
        ProblemInstance(dim=1, objective=lambda w: 0.0, subgrad=lambda w: w, lipschitz_bound=0.0)
    with pytest.raises(ValueError):
        ProblemInstance(
            dim=1, objective=lambda w: 0.0, subgrad=lambda w: w, lipschitz_bound=math.inf
        )
    with pytest.raises(ValueError, match="give an oracle, or objective and subgrad"):
        ProblemInstance(dim=1, objective=lambda w: 0.0, lipschitz_bound=1.0)
    for bad in (dict(width=-1), dict(width=1.5), dict(rows=0)):
        with pytest.raises(ValueError, match="Oracle: "):
            Oracle(lambda W, want_f, want_g: (None, None), **bad)


def test_default_eps0_uses_lower_bound():
    prob = ProblemInstance(
        dim=1,
        objective=lambda w: float(np.abs(w).sum()) - 3.0,
        subgrad=lambda w: np.sign(w),
        lipschitz_bound=1.0,
        fstar_lower_bound=-3.0,
    )
    assert prob.default_eps0(np.array([2.0])) == pytest.approx(2.0)
