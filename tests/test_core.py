import math

import numpy as np
import pytest

from rsgkit.core import (
    ErrorBoundParams,
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


def test_project_l2_ball_center():
    c = np.array([1.0, 1.0])
    out = project_l2_ball(np.array([3.0, 1.0]), 1.0, center=c)
    np.testing.assert_allclose(out, [2.0, 1.0], atol=1e-15)
    inside = np.array([1.2, 1.1])
    assert np.array_equal(project_l2_ball(inside, 1.0, center=c), inside)


def test_project_box():
    np.testing.assert_allclose(project_box(np.array([0.5]), 0.0, 1.0), [0.5])
    np.testing.assert_allclose(project_box(np.array([-1.0, 2.0]), 0.0, 1.0), [0.0, 1.0])
    np.testing.assert_allclose(
        project_box(np.array([0.2, 1.7, -0.3]), 0.0, 1.0), [0.2, 1.0, 0.0]
    )
    with pytest.raises(ValueError):
        project_box(np.array([0.0]), np.array([1.0]), np.array([0.0]))


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
    assert prob.is_unconstrained
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
    assert not boxed.is_unconstrained
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


def test_default_eps0_uses_lower_bound():
    prob = ProblemInstance(
        dim=1,
        objective=lambda w: float(np.abs(w).sum()) - 3.0,
        subgrad=lambda w: np.sign(w),
        lipschitz_bound=1.0,
        fstar_lower_bound=-3.0,
    )
    assert prob.default_eps0(np.array([2.0])) == pytest.approx(2.0)
