"""The linear-model oracle pass against the frozen per-form bodies in
``linear_model_reference``: objective, subgrad, the fused pair (whole, and
split into a kept row and its value) and ``values()`` of every builder,
with no penalty and with the l1, linf and fused penalties, in both layouts
and with small score blocks, return the reference's results bit for bit.

Data and points are drawn from a small pool of dyadic values, so exact
kinks come up often: zero weights and residuals, ties in |w|, margins of
exactly 1 and residuals on the tube boundary."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import linear_model_reference as ref
from rsgkit import problems
from rsgkit.problems import (
    Dataset,
    GFlassoGraph,
    gflasso_svm,
    piecewise_linear_erm,
    robust_regression,
)

POOL = (-2.0, -1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 2.0)
BUILDERS = ("robust", "hinge", "absolute", "eps_insensitive", "gflasso")
PWL_REGS = ("none", "l1", "linf", "l1_ball", "linf_ball")


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def build(builder, data, reg="none", lam=0.0, a=0.5, edges=()):
    """The library instance and the reference (objective, subgrad) built
    with the arguments the builder hands its oracle pass."""
    if builder == "robust":
        inst, args = robust_regression(data, p_loss=a), ("power", a)
    elif builder == "gflasso":
        graph = GFlassoGraph(data.d, tuple(edges))
        inst, args = gflasso_svm(data, graph, lam=lam), ("hinge", 0.0, "fused", lam, graph.F)
    else:
        inst = piecewise_linear_erm(data, loss=builder, reg=reg, lam=lam, eps_ins=a)
        args = (builder, a, reg, lam)
    return inst, ref.linear_model(problems._laid_out(data.X), data.y, *args)


def fused(oracle, w):
    """(f, g) at w as a logged iteration gets them: the subgradient pass
    keeps the scores of w in a row, and one value pass reads them back."""
    row = np.empty(oracle.width)
    g = oracle.keep(w, row)
    return oracle.kept_values(row[None]).tolist()[0], g


def assert_bitwise(inst, reference, points, W):
    ref_objective, ref_subgrad = reference
    oracle = inst.oracle
    assert inst.objective is oracle.objective and inst.subgrad is oracle.subgrad
    for w in points:
        f, g = inst.objective(w), inst.subgrad(w)
        assert type(f) is float and bits(f) == bits(ref_objective(w))
        assert g.dtype == np.float64 and g.shape == w.shape
        assert bits(g) == bits(ref_subgrad(w))
        fr, gr = ref_subgrad.with_value(w)
        fv, gv = fused(oracle, w)
        assert type(fv) is float and bits(fv) == bits(fr) and bits(gv) == bits(gr)
        fv, gv = oracle.run(w, True, True)
        assert bits(fv) == bits(fr) and bits(gv) == bits(gr)
    vals = inst.values(W)
    assert vals.shape == (W.shape[0],) and bits(vals) == bits(ref_objective.batch(W))


def vectors(size):
    return st.lists(st.sampled_from(POOL), min_size=size, max_size=size).map(np.array)


@st.composite
def cases(draw):
    builder = draw(st.sampled_from(BUILDERS))
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    X = draw(vectors(n * d)).reshape(n, d)
    X[0, 0] = X[0, 0] or 1.0  # a nonzero row keeps the declared bound > 0
    labels = (-1.0, 1.0) if builder in ("hinge", "gflasso") else POOL
    y = np.array(draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    case = dict(
        builder=builder,
        data=Dataset(sp.csr_matrix(X), y),
        reg=draw(st.sampled_from(PWL_REGS)),
        lam=draw(st.sampled_from((0.0, 0.1, 0.25, 0.3, 1.0))),
        a=draw(st.sampled_from((1.3, 1.5) if builder == "robust" else (0.0, 0.5, 1.0))),
        edges=[(i, j, draw(st.sampled_from((0.1, 0.3, 0.7, 1.0, 2.0)))) for i, j in chosen],
    )
    points = [np.zeros(d)] + draw(st.lists(vectors(d), min_size=1, max_size=4))
    W = np.array(points + draw(st.lists(vectors(d), max_size=4))).reshape(-1, d)
    layout = dict(
        threshold=draw(st.sampled_from((0.0, math.inf))),
        score_block=draw(st.sampled_from((problems._SCORE_BLOCK, 1, 7))),
    )
    return case, layout, points, W


@given(cases())
def test_every_oracle_form_is_bitwise_the_reference(drawn):
    case, layout, points, W = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "_DENSE_MIN_DENSITY", layout["threshold"])
        mp.setattr(problems, "_SCORE_BLOCK", layout["score_block"])
        inst, reference = build(**case)
        assert_bitwise(inst, reference, points, W)
        assert bits(inst.values(W[:0])) == b""


@given(cases())
def test_subgrads_rows_match_subgrad(drawn):
    """subgrads runs the gradient pass on W^T blocks: a matrix product
    where subgrad runs a matrix-vector one, so rows agree to rounding."""
    case, layout, points, W = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "_DENSE_MIN_DENSITY", layout["threshold"])
        mp.setattr(problems, "_SCORE_BLOCK", layout["score_block"])
        inst, _ = build(**case)
        G = inst.subgrads(W)
        assert inst.subgrad is inst.oracle.subgrad
        assert G.shape == W.shape and G.dtype == np.float64
        want = np.array([inst.subgrad(w) for w in W])
        assert np.all(np.abs(G - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert inst.subgrads(W[:0]).shape == (0, W.shape[1])


# one point per kink: zero weights, a tie in |w| (lowest index wins for
# linf), margins of exactly 1 on both rows, and residuals of exactly 0 and
# exactly the tube half-width 0.5.  The third feature is unused by the
# loss; it closes the weighted triangle of the fused penalty.
KINK_X = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
KINK_POINTS = {
    "zero": [0.0, 0.0, 0.0],
    "tie": [0.5, -0.5, 0.5],
    "margin_one": [1.0, -0.5, 0.3],
    "tube": [0.5, -0.75, -1.0],
    "zero_residual": [0.0, -1.0, 2.0],
}
TRIANGLE = [(0, 1, 0.3), (1, 2, 0.7), (0, 2, 2.0)]


@pytest.mark.parametrize("threshold", [0.0, math.inf], ids=["dense", "csr"])
@pytest.mark.parametrize(
    "builder,reg",
    [("robust", "none"), ("gflasso", "fused")]
    + [(loss, reg) for loss in ("hinge", "absolute", "eps_insensitive") for reg in PWL_REGS],
)
def test_oracle_forms_match_the_reference_at_kinks(monkeypatch, builder, reg, threshold):
    labels = builder in ("hinge", "gflasso")
    y = np.array([1.0, -1.0]) if labels else np.array([0.0, -2.0])
    data = Dataset(sp.csr_matrix(np.array(KINK_X)), y)
    monkeypatch.setattr(problems, "_DENSE_MIN_DENSITY", threshold)
    points = [np.array(w) for w in KINK_POINTS.values()]
    a = 1.5 if builder == "robust" else 0.5
    inst, reference = build(builder, data, reg=reg, lam=0.1, a=a, edges=TRIANGLE)
    if builder == "hinge":
        assert np.array_equal(y * (np.array(KINK_X) @ points[2]), [1.0, 1.0])
    if builder == "eps_insensitive":
        assert np.array_equal(np.abs(np.array(KINK_X) @ points[3] - y), [0.5, 0.5])
    assert_bitwise(inst, reference, points, np.array(points))
