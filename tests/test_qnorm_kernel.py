"""pnorm and pnorm_prox share one q-norm kernel; they must return what the
frozen references in ``pnorm_reference`` return, bit for bit, and raise
what they raise."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pnorm_reference as ref
from rsgkit.core import pnorm
from rsgkit.solvers import pnorm_prox

ORDERS = [1.0, 1.2, 1.5, 2.0, 3.0, 1e3, math.inf]

magnitudes = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]),
)
entries = st.builds(lambda m, neg: -m if neg else m, magnitudes, st.booleans())


@st.composite
def vectors(draw, size=None, pool=None):
    """Vectors of 0 to 64 entries: picked from a small pool of signed
    values, so ties and signed zeros are common, or Gaussian at a scale
    from 1e-300 to 1e300, where every sum rounds and a changed summation
    order shows."""
    n = draw(st.integers(0, 64)) if size is None else size
    if pool is None and draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.standard_normal(n) * 10.0 ** draw(st.integers(-300, 300))
    if pool is None:
        pool = draw(st.lists(entries, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array([-pool[i] if f else pool[i] for i, f in zip(picks, flips)], dtype=float)


def outcome(fn, *args):
    """The bytes of fn's result, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except ValueError as exc:
        return ("raised", str(exc))
    return (type(out).__name__, np.asarray(out, dtype=float).tobytes())


def with_non_finite(draw_data, v):
    bad = draw_data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    v = np.insert(v, draw_data.draw(st.integers(0, v.size)), bad)
    return v


@given(st.sampled_from(ORDERS), vectors())
def test_pnorm_matches_the_reference_bitwise(p, v):
    assert outcome(pnorm, v, p) == outcome(ref.pnorm, v, p)


@given(st.sampled_from(ORDERS), vectors(), st.data())
def test_pnorm_non_finite_entry_raises_the_reference_message(p, v, data):
    v = with_non_finite(data, v)
    got = outcome(pnorm, v, p)
    assert got == outcome(ref.pnorm, v, p)
    assert got == ("raised", "pnorm: input has a non-finite entry")


@pytest.mark.parametrize("p", ORDERS)
def test_pnorm_finite_overflow_returns_inf_like_the_reference(p):
    # two entries of 1.7e308 have a norm of 1.7e308 * 2**(1/p), past the
    # largest float for p < 12
    for v in (np.array([1.7e308, 1.7e308]), np.array([-1.7e308, 0.0, 1.7e308])):
        got = outcome(pnorm, v, p)
        assert got == outcome(ref.pnorm, v, p)
        if p <= 3.0:
            assert got == ("float", np.float64(math.inf).tobytes())
    v = np.full(64, 1e300)
    assert outcome(pnorm, v, p) == outcome(ref.pnorm, v, p)


@pytest.mark.parametrize("p", [0.5, math.nan, -math.inf])
def test_pnorm_rejects_an_order_below_one_like_the_reference(p):
    got = outcome(pnorm, np.ones(3), p)
    assert got == outcome(ref.pnorm, np.ones(3), p)
    assert got[0] == "raised"


@st.composite
def prox_pairs(draw):
    """(w, g) of one length; half the time both come from one pool, so a
    signed zero in g often meets one in w."""
    pool = draw(st.one_of(st.none(), st.lists(entries, min_size=1, max_size=4)))
    g = draw(vectors(pool=pool))
    return draw(vectors(size=g.size, pool=pool)), g


@given(st.sampled_from(ORDERS + [1.2, 1.5, 1.01, 1.9]), prox_pairs())
def test_pnorm_prox_matches_the_reference_bitwise(p, wg):
    # p outside (1, 2] must raise the same message
    w, g = wg
    assert outcome(pnorm_prox, w, g, p) == outcome(ref.pnorm_prox, w, g, p)


@given(st.sampled_from([1.2, 1.5]), prox_pairs(), st.data())
def test_pnorm_prox_non_finite_gradient_raises_the_reference_message(p, wg, data):
    w, g = wg
    g = with_non_finite(data, g)
    w = np.append(w, 0.0)
    got = outcome(pnorm_prox, w, g, p)
    assert got == outcome(ref.pnorm_prox, w, g, p)
    assert got == ("raised", "pnorm: input has a non-finite entry")


def test_pnorm_prox_keeps_the_shape_of_a_scalar_or_matrix_like_the_reference():
    scalar = (np.float64(0.5), np.float64(-2.0))
    matrix = (np.ones((2, 3)), np.arange(6.0).reshape(2, 3))
    for w, g in (scalar, matrix):
        got = pnorm_prox(w, g, 1.5)
        assert np.shape(got) == np.shape(ref.pnorm_prox(w, g, 1.5))
        assert outcome(pnorm_prox, w, g, 1.5) == outcome(ref.pnorm_prox, w, g, 1.5)
