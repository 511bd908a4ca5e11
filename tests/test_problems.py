"""Problem-zoo tests: frozen values, kink conventions, and structural checks."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from rsgkit import problems
from rsgkit.core import Oracle, conjugate_exponent, pnorm
from rsgkit.data import synth_classification
from rsgkit.problems import (
    Dataset,
    GFlassoGraph,
    SetFunction,
    cut_function,
    enumerate_table,
    gflasso_svm,
    graph_from_correlation,
    lovasz_problem,
    miniature_zoo,
    piecewise_linear_erm,
    robust_regression,
)


def dense(rows, y, planted=None) -> Dataset:
    return Dataset(sp.csr_matrix(np.array(rows, dtype=float)), np.array(y, dtype=float), planted)


# ---------------------------------------------------------------------------
# containers


def test_dataset_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="rows"):
        dense([[1.0], [2.0]], [0.0])


def test_dataset_empty_is_legal_but_builders_reject():
    empty = Dataset(sp.csr_matrix((0, 3)), np.zeros(0))
    assert empty.n == 0 and empty.d == 3
    with pytest.raises(ValueError, match="no rows"):
        robust_regression(empty, 1.5)
    with pytest.raises(ValueError, match="no rows"):
        piecewise_linear_erm(empty, loss="absolute")


def test_builders_name_all_zero_features_as_the_cause_of_a_zero_bound():
    zero = dense([[0.0, 0.0], [0.0, 0.0]], [1.0, -1.0])
    no_edges = GFlassoGraph(2, ())
    for build, who in [
        (lambda: robust_regression(zero, 1.5), "robust_regression"),
        (lambda: piecewise_linear_erm(zero, loss="hinge"), "piecewise_linear_erm"),
        (lambda: piecewise_linear_erm(zero, reg="l1_ball"), "piecewise_linear_erm"),
        (lambda: gflasso_svm(zero, no_edges, lam=0.5), "gflasso_svm"),
    ]:
        with pytest.raises(ValueError, match=f"{who}: every feature value is zero"):
            build()
    # a penalty bounds the subgradient on its own, so the problem still builds
    assert piecewise_linear_erm(zero, reg="l1", lam=0.5).lipschitz_bound > 0.0


def test_gflasso_graph_validation():
    with pytest.raises(ValueError, match="dim"):
        GFlassoGraph(0, ())
    with pytest.raises(ValueError, match="endpoints"):
        GFlassoGraph(3, ((1, 1, 1.0),))
    with pytest.raises(ValueError, match="endpoints"):
        GFlassoGraph(3, ((2, 1, 1.0),))
    with pytest.raises(ValueError, match="endpoints"):
        GFlassoGraph(3, ((0, 3, 1.0),))
    with pytest.raises(ValueError, match="weight"):
        GFlassoGraph(3, ((0, 1, 0.0),))


def test_gflasso_graph_matrix_and_weight():
    g = GFlassoGraph(3, ((0, 1, 2.0), (1, 2, 0.5)))
    F = np.asarray(g.F.todense())
    assert np.array_equal(F, np.array([[2.0, -2.0, 0.0], [0.0, 0.5, -0.5]]))
    assert g.total_weight == 2.5


def test_set_function_requires_zero_at_empty_set():
    SetFunction(3, lambda m: float(bin(m).count("1")))  # fine
    with pytest.raises(ValueError, match="empty set"):
        SetFunction(3, lambda m: float(m + 1))


def test_set_function_ground_size_bounds():
    with pytest.raises(ValueError, match="ground_size"):
        SetFunction(0, lambda m: 0.0)
    with pytest.raises(ValueError, match="ground_size"):
        SetFunction(25, lambda m: 0.0)


def test_enumerate_table_values_and_budget():
    fn = cut_function(3, [(0, 1, 1.0), (1, 2, 2.0)])
    table = enumerate_table(fn)
    assert table.shape == (8,)
    for mask in range(8):
        assert table[mask] == fn.evaluate(mask)
    with pytest.raises(ValueError, match="budget"):
        enumerate_table(fn, budget=4)
    big = SetFunction(21, lambda m: float(bin(m).count("1")))
    with pytest.raises(ValueError, match="budget"):
        enumerate_table(big)  # 2**21 > default 2**20


def test_enumerate_table_rejects_bad_bulk_shape():
    fn = SetFunction(2, lambda m: 0.5 * m, bulk_evaluate=lambda masks: np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        enumerate_table(fn)


def test_cut_function_bulk_matches_scalar():
    rng = np.random.default_rng(7)
    d = 8
    edges = []
    seen = set()
    while len(edges) < 15:
        i, j = sorted(rng.integers(0, d, size=2).tolist())
        if i != j and (i, j) not in seen:
            seen.add((i, j))
            edges.append((i, j, float(rng.uniform(0.1, 3.0))))
    fn = cut_function(d, edges)
    masks = np.arange(1 << d, dtype=np.int64)
    bulk = fn.bulk_evaluate(masks)
    scalar = np.array([fn.evaluate(int(m)) for m in masks])
    assert np.array_equal(bulk, scalar)


# ---------------------------------------------------------------------------
# robust regression


def unit_rr():
    return robust_regression(dense([[1.0]], [0.0]), p_loss=1.5)


def test_robust_regression_frozen_point():
    inst = unit_rr()
    # f(w) = |w|^1.5, so f(4) = 8 and f'(4) = 1.5 * sqrt(4) = 3, both exact.
    assert inst.objective(np.array([4.0])) == 8.0
    assert inst.subgrad(np.array([4.0]))[0] == 3.0


def test_robust_regression_zero_residual_is_flat():
    inst = unit_rr()
    assert inst.objective(np.array([0.0])) == 0.0
    assert inst.subgrad(np.array([0.0]))[0] == 0.0


def test_robust_regression_rejects_p_outside_open_interval():
    data = dense([[1.0]], [0.0])
    for p in (1.0, 2.0, 0.5, 2.5):
        with pytest.raises(ValueError, match="p_loss"):
            robust_regression(data, p_loss=p)


def test_robust_regression_default_region_and_bound():
    inst = unit_rr()
    # default region radius 10 * max(1, rms(y)) = 10; row norm 1, so
    # G = 1.5 * (10 + 0)^0.5 = 1.5 * sqrt(10)
    assert inst.lipschitz_bound == 1.5 * math.sqrt(10.0)
    assert inst.eb_theta == 0.5
    assert inst.lipschitz_norm_q == 2.0
    assert inst.project is None


def test_robust_regression_default_region_when_the_squares_of_y_overflow():
    # ||y||_2 = sqrt(14) * 1e160 is finite though its square is not, so the
    # default radius is 10 * ||y|| / sqrt(3), not inf, and nothing warns
    data = dense([[1.0], [2.0], [-1.0]], [1e160, -2e160, 3e160])
    assert math.isfinite(robust_regression(data, 1.5).lipschitz_bound)
    inst = robust_regression(data, 1.5, constrain_to_region=True)
    radius = 10.0 * math.sqrt(14.0 / 3.0) * 1e160
    assert math.isclose(inst.project(np.array([1e300]))[0], radius, rel_tol=1e-15)


def test_robust_regression_region_radius_validation():
    with pytest.raises(ValueError, match="region_radius"):
        robust_regression(dense([[1.0]], [0.0]), 1.5, region_radius=0.0)


def test_robust_regression_constrained_projection():
    inst = robust_regression(
        dense([[1.0, 0.0]], [0.0]), 1.5, region_radius=1.0, constrain_to_region=True
    )
    w = inst.project(np.array([3.0, 4.0]))
    assert math.isclose(float(np.linalg.norm(w)), 1.0, rel_tol=1e-12)


def test_robust_regression_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    n, d = 20, 4
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    data = Dataset(sp.csr_matrix(X), y)
    inst = robust_regression(data, p_loss=1.7)
    h = 1e-6
    checked = 0
    while checked < 50:
        w = rng.normal(size=d)
        if np.min(np.abs(X @ w - y)) < 1e-2:
            continue  # too close to a residual zero for a clean central difference
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        fd = (inst.objective(w + h * u) - inst.objective(w - h * u)) / (2.0 * h)
        an = float(inst.subgrad(w) @ u)
        assert math.isclose(fd, an, rel_tol=1e-5, abs_tol=1e-8)
        checked += 1


# ---------------------------------------------------------------------------
# documented subgradient bounds


def test_lipschitz_bound_frozen_values():
    data = dense([[3.0, 4.0], [1.0, 0.0]], [1.0, -1.0])

    def bound(loss="hinge", **kw):
        return piecewise_linear_erm(data, loss, **kw).lipschitz_bound

    assert bound() == 5.0
    assert bound("absolute", reg="l1", lam=2.0) == 5.0 + 2.0 * math.sqrt(2.0)
    assert bound(reg="linf", lam=2.0) == 7.0
    assert bound(norm_q=math.inf) == 4.0
    assert bound(reg="l1", lam=2.0, norm_q=math.inf) == 6.0


# a dense and a CSR layout, each with one row whose entries overflow a**q at
# q = 101 (solver.norm_p = 1.01) though its q-norm is about 3e4
BIG_ROWS = {
    "dense": np.array([[3e4, -2.5, 0.0], [1.5, 0.0, 2.9e4], [0.0, 1.2e4, -4.0]]),
    "csr": np.pad(np.array([[3e4, -2.9e4], [1.0, 2.0]]), ((0, 148), (0, 148))),
}


@pytest.mark.parametrize("layout", sorted(BIG_ROWS))
def test_lipschitz_bound_survives_overflowing_powers(layout):
    X = BIG_ROWS[layout]
    q = conjugate_exponent(1.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = piecewise_linear_erm(dense(X, np.where(np.arange(len(X)) % 2, -1.0, 1.0)), norm_q=q)
    want = max(pnorm(x, q) for x in X)
    assert abs(inst.lipschitz_bound - want) <= 1e-12 * want


# rows whose squares overflow though their 2-norms (about 1.4e200) do not
HUGE_ROWS = {
    "dense": np.array([[1e200, 1e200], [1.5, 0.0], [0.0, -2.0]]),
    "csr": np.pad(np.array([[1e200, -1e200], [1.0, 2.0]]), ((0, 148), (0, 148))),
}


@pytest.mark.parametrize("layout", sorted(HUGE_ROWS))
def test_default_euclidean_bound_survives_overflowing_squares(layout):
    # before, the row's sum of squares overflowed and the bound was inf
    X = HUGE_ROWS[layout]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = piecewise_linear_erm(dense(X, np.where(np.arange(len(X)) % 2, -1.0, 1.0)))
    assert inst.lipschitz_bound == pytest.approx(1e200 * math.sqrt(2.0), rel=1e-15)


def test_lovasz_bound_survives_overflowing_powers_and_q_inf():
    setfn = cut_function(3, [(0, 1, 2e4), (1, 2, 2e4)])
    M = np.array([2e4, 4e4, 2e4])  # F({i}), here also F(V) - F(V \ {i})
    q = conjugate_exponent(1.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = lovasz_problem(setfn, norm_q=q).lipschitz_bound
    assert abs(G - pnorm(M, q)) <= 1e-12 * pnorm(M, q)
    assert lovasz_problem(setfn, norm_q=math.inf).lipschitz_bound == 4e4


# ---------------------------------------------------------------------------
# piecewise-linear ERM


def test_hinge_frozen_at_zero():
    inst = piecewise_linear_erm(dense([[1.0]], [1.0]), loss="hinge")
    assert inst.objective(np.zeros(1)) == 1.0
    assert inst.subgrad(np.zeros(1))[0] == -1.0


def test_hinge_margin_exactly_one_is_inactive():
    inst = piecewise_linear_erm(dense([[1.0]], [1.0]), loss="hinge")
    assert inst.objective(np.array([1.0])) == 0.0
    assert inst.subgrad(np.array([1.0]))[0] == 0.0


def test_absolute_median_minimizer():
    inst = piecewise_linear_erm(
        dense([[1.0], [1.0], [1.0]], [1.0, 2.0, 10.0]), loss="absolute"
    )
    assert inst.objective(np.array([2.0])) == 3.0
    assert inst.objective(np.array([1.9])) > 3.0
    assert inst.objective(np.array([2.1])) > 3.0
    # the middle residual is exactly zero and sign(0) = 0, so the +1 and -1
    # contributions of the outer points cancel
    assert inst.subgrad(np.array([2.0]))[0] == 0.0


def test_eps_insensitive_tube_boundary_inactive():
    inst = piecewise_linear_erm(dense([[1.0]], [0.0]), loss="eps_insensitive", eps_ins=0.5)
    assert inst.objective(np.array([0.5])) == 0.0
    assert inst.subgrad(np.array([0.5]))[0] == 0.0
    assert math.isclose(inst.objective(np.array([0.6])), 0.1, rel_tol=1e-12)
    assert inst.subgrad(np.array([0.6]))[0] == 1.0


def test_l1_penalty_sign_zero_at_zero_weight():
    inst = piecewise_linear_erm(
        dense([[0.0, 0.0]], [0.0]), loss="absolute", reg="l1", lam=2.0
    )
    w = np.array([0.0, 3.0])
    assert inst.objective(w) == 6.0
    assert np.array_equal(inst.subgrad(w), np.array([0.0, 2.0]))


def test_linf_penalty_lowest_index_wins_ties():
    inst = piecewise_linear_erm(
        dense([[0.0, 0.0]], [0.0]), loss="absolute", reg="linf", lam=3.0
    )
    assert np.array_equal(inst.subgrad(np.array([2.0, -2.0])), np.array([3.0, 0.0]))
    assert np.array_equal(inst.subgrad(np.array([-2.0, 2.0])), np.array([-3.0, 0.0]))
    assert np.array_equal(inst.subgrad(np.zeros(2)), np.zeros(2))


def test_ball_constraints_install_projection():
    data = dense([[1.0, 0.0]], [1.0])
    l1 = piecewise_linear_erm(data, loss="hinge", reg="l1_ball", radius=1.0)
    assert np.allclose(l1.project(np.array([2.0, 0.0])), [1.0, 0.0])
    linf = piecewise_linear_erm(data, loss="hinge", reg="linf_ball", radius=1.0)
    assert np.array_equal(linf.project(np.array([5.0, -3.0])), np.array([1.0, -1.0]))
    for reg in ("none", "l1", "linf"):
        assert piecewise_linear_erm(data, loss="hinge", reg=reg).project is None


def test_piecewise_linear_erm_validation():
    data = dense([[1.0]], [1.0])
    with pytest.raises(ValueError, match="loss"):
        piecewise_linear_erm(data, loss="logistic")
    with pytest.raises(ValueError, match="reg"):
        piecewise_linear_erm(data, loss="hinge", reg="l2")
    with pytest.raises(ValueError, match="lam"):
        piecewise_linear_erm(data, loss="hinge", reg="l1", lam=-0.1)
    with pytest.raises(ValueError, match="radius"):
        piecewise_linear_erm(data, loss="hinge", reg="l1_ball", radius=0.0)
    with pytest.raises(ValueError, match="eps_ins"):
        piecewise_linear_erm(data, loss="eps_insensitive", eps_ins=-0.5)
    with pytest.raises(ValueError, match="labels"):
        piecewise_linear_erm(dense([[1.0]], [0.5]), loss="hinge")


def random_pwl():
    rng = np.random.default_rng(23)
    n, d = 30, 3
    X = rng.normal(size=(n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    data = Dataset(sp.csr_matrix(X), y)
    return piecewise_linear_erm(data, loss="hinge", reg="l1", lam=0.3), rng, d


def test_pwl_subgrad_is_local_gradient_off_kinks():
    inst, rng, d = random_pwl()
    t = 1e-7
    for _ in range(500):
        w = rng.normal(size=d)
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        lhs = inst.objective(w + t * u)
        rhs = inst.objective(w) + t * float(inst.subgrad(w) @ u)
        # exact affine continuation as long as no kink lies within t of w
        assert abs(lhs - rhs) <= 1e-10


def test_pwl_convex_along_segments():
    inst, rng, d = random_pwl()
    for _ in range(300):
        a = rng.normal(size=d) * 2.0
        b = rng.normal(size=d) * 2.0
        mid = 0.5 * (a + b)
        assert inst.objective(mid) <= 0.5 * (inst.objective(a) + inst.objective(b)) + 1e-12


def test_pwl_declares_polyhedral_error_bound():
    data = dense([[1.0]], [1.0])
    assert piecewise_linear_erm(data, loss="hinge").eb_theta == 1.0
    assert piecewise_linear_erm(data, loss="absolute").eb_theta == 1.0


# ---------------------------------------------------------------------------
# graph-fused hinge classifier


def test_gflasso_frozen_edge_values():
    data = dense([[0.0, 0.0]], [1.0])
    graph = GFlassoGraph(2, ((0, 1, 1.0),))
    lam = 0.25
    inst = gflasso_svm(data, graph, lam)
    w = np.array([3.0, 1.0])
    # hinge part is 1 (zero margin), fused part is lam * |3 - 1|
    assert inst.objective(w) == 1.0 + 2.0 * lam
    assert np.array_equal(inst.subgrad(w) - inst.subgrad(np.zeros(2)), lam * np.array([1.0, -1.0]))
    assert inst.objective(np.zeros(2)) == 1.0


def test_gflasso_bound_formula():
    data = dense([[3.0, 4.0]], [1.0])
    graph = GFlassoGraph(2, ((0, 1, 2.0),))
    inst = gflasso_svm(data, graph, lam=0.1)
    assert inst.lipschitz_bound == 5.0 + 0.1 * math.sqrt(2.0) * 2.0


def test_gflasso_lam_zero_matches_plain_hinge():
    rng = np.random.default_rng(5)
    n, d = 20, 4
    X = rng.normal(size=(n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    data = Dataset(sp.csr_matrix(X), y)
    graph = GFlassoGraph(d, ((0, 1, 1.0), (1, 3, 2.0)))
    fused = gflasso_svm(data, graph, lam=0.0)
    plain = piecewise_linear_erm(data, loss="hinge")
    for _ in range(50):
        w = rng.normal(size=d)
        assert fused.objective(w) == plain.objective(w)
        assert np.array_equal(fused.subgrad(w), plain.subgrad(w))


def test_gflasso_validation():
    data = dense([[1.0, 0.0]], [1.0])
    graph = GFlassoGraph(2, ((0, 1, 1.0),))
    with pytest.raises(ValueError, match="lam"):
        gflasso_svm(data, graph, lam=-1.0)
    with pytest.raises(ValueError, match="features"):
        gflasso_svm(data, GFlassoGraph(3, ()), lam=0.1)
    with pytest.raises(ValueError, match="labels"):
        gflasso_svm(dense([[1.0, 0.0]], [2.0]), graph, lam=0.1)


# ---------------------------------------------------------------------------
# oracle layout: dense and sparse storage give the same oracles


FAMILIES = {
    "robust": lambda data: robust_regression(data, p_loss=1.5),
    "hinge_l1": lambda data: piecewise_linear_erm(data, loss="hinge", reg="l1", lam=0.25),
    "absolute_linf": lambda data: piecewise_linear_erm(
        data, loss="absolute", reg="linf", lam=0.5
    ),
    "eps_ins": lambda data: piecewise_linear_erm(data, loss="eps_insensitive", eps_ins=0.5),
    "gflasso": lambda data: gflasso_svm(
        data, GFlassoGraph(data.d, ((0, 1, 1.0), (1, 2, 0.5), (0, 3, 2.0))), lam=0.25
    ),
}


def both_layouts(monkeypatch, family, data):
    """The family built on data once forced dense and once forced sparse."""
    built = []
    for threshold in (0.0, math.inf):
        monkeypatch.setattr(problems, "_DENSE_MIN_DENSITY", threshold)
        built.append(FAMILIES[family](data))
    monkeypatch.undo()
    return built


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_layouts_agree_at_random_points(monkeypatch, family):
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 5)) * (rng.random((40, 5)) < 0.6)
    data = Dataset(sp.csr_matrix(X), np.where(rng.random(40) < 0.5, -1.0, 1.0))
    dense_inst, sparse_inst = both_layouts(monkeypatch, family, data)
    assert dense_inst.lipschitz_bound == pytest.approx(sparse_inst.lipschitz_bound, rel=1e-12)
    for _ in range(50):
        w = rng.normal(size=5)
        fd, fs = dense_inst.objective(w), sparse_inst.objective(w)
        assert abs(fd - fs) <= 1e-12 * abs(fs)
        gd, gs = dense_inst.subgrad(w), sparse_inst.subgrad(w)
        assert np.linalg.norm(gd - gs) <= 1e-12 * np.linalg.norm(gs)


def test_layouts_agree_exactly_at_pinned_kinks(monkeypatch):
    # small integers and dyadic weights keep every sum exact in any order
    X = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, -1.0], [2.0, 1.0, 0.0, 0.0]])
    y = np.array([1.0, -1.0, 1.0])
    data = Dataset(sp.csr_matrix(X), y)
    on_margin = np.array([0.5, 0.0, 0.25, 1.0])
    assert np.array_equal(y * (X @ on_margin), np.ones(3))
    inside = np.array([0.0, 0.0, 0.5, 0.0])  # margins 1, 0, 0
    for family in ("hinge_l1", "gflasso"):
        dense_inst, sparse_inst = both_layouts(monkeypatch, family, data)
        for w in (on_margin, inside):
            assert dense_inst.objective(w) == sparse_inst.objective(w)
            assert np.array_equal(dense_inst.subgrad(w), sparse_inst.subgrad(w))
    hinge, _ = both_layouts(monkeypatch, "hinge_l1", data)
    # margin exactly 1 is inactive and sign(0) = 0 at the zero weights
    assert np.array_equal(hinge.subgrad(on_margin), 0.25 * np.array([1.0, 0.0, 1.0, 1.0]))
    expected = -(y[1] * X[1] + y[2] * X[2]) / 3.0 + np.array([0.0, 0.0, 0.25, 0.0])
    assert np.array_equal(hinge.subgrad(inside), expected)

    tie = np.array([0.5, -0.5, 0.25, 0.5])  # |w| ties at 0.5: lowest index wins
    data_r = Dataset(sp.csr_matrix(X), np.array([1.0, -1.0, 1.0]))
    assert np.array_equal(X @ tie - data_r.y, np.array([0.0, 0.0, -0.5]))
    for family in ("absolute_linf", "eps_ins", "robust"):
        dense_inst, sparse_inst = both_layouts(monkeypatch, family, data_r)
        assert dense_inst.objective(tie) == sparse_inst.objective(tie)
        assert np.array_equal(dense_inst.subgrad(tie), sparse_inst.subgrad(tie))
    absolute, _ = both_layouts(monkeypatch, "absolute_linf", data_r)
    # residual 0 contributes sign(0) = 0; l-infinity puts lam on coordinate 0
    expected = -X[2] / 3.0 + np.array([0.5, 0.0, 0.0, 0.0])
    assert np.array_equal(absolute.subgrad(tie), expected)
    tube, _ = both_layouts(monkeypatch, "eps_ins", data_r)
    # |r| = 0.5 sits on the tube boundary, which is inactive
    assert tube.objective(tie) == 0.0 and np.array_equal(tube.subgrad(tie), np.zeros(4))


# ---------------------------------------------------------------------------
# batch objective: values(W) against one objective call per row


def per_row(inst, W):
    return np.array([inst.objective(w) for w in W])


def assert_rows_agree(vals, ref, rel=1e-12):
    assert vals.shape == ref.shape
    assert np.all(np.abs(vals - ref) <= rel * np.abs(ref)), np.max(np.abs(vals - ref))


# the zoo's hinge members differ from their per-point values in the last
# bit (about 4e-16): a matrix product and a matrix-vector product round
# their two-term dot products differently
ZOO_NOT_BITWISE = {"hinge_sep_2d", "hinge_l1ball_2d"}


def test_values_match_per_point_on_every_zoo_member():
    rng = np.random.default_rng(12)
    for name, inst in miniature_zoo().items():
        W = rng.uniform(-4.0, 4.0, size=(300, inst.dim))
        W[:3] = 0.0  # kinks: zero residuals, zero weights, margin 0
        vals, ref = inst.values(W), per_row(inst, W)
        if name in ZOO_NOT_BITWISE:
            assert_rows_agree(vals, ref)
        else:
            assert np.array_equal(vals, ref), name


VALUE_FAMILIES = dict(
    FAMILIES,
    hinge_linf=lambda data: piecewise_linear_erm(data, loss="hinge", reg="linf", lam=0.5),
    absolute_l1=lambda data: piecewise_linear_erm(data, loss="absolute", reg="l1", lam=0.25),
    eps_ins_l1=lambda data: piecewise_linear_erm(
        data, loss="eps_insensitive", reg="l1", lam=0.1, eps_ins=0.5
    ),
)


@pytest.mark.parametrize("score_block", [None, 100])
@pytest.mark.parametrize("family", sorted(VALUE_FAMILIES))
def test_values_match_per_point_in_both_layouts(monkeypatch, family, score_block):
    rng = np.random.default_rng(32)
    X = rng.normal(size=(40, 5)) * (rng.random((40, 5)) < 0.6)
    data = Dataset(sp.csr_matrix(X), np.where(rng.random(40) < 0.5, -1.0, 1.0))
    W = rng.normal(size=(7, 5))  # 100 // 40 = 2 rows per product: a partial last block
    for threshold in (0.0, math.inf):
        monkeypatch.setattr(problems, "_DENSE_MIN_DENSITY", threshold)
        if score_block is not None:
            monkeypatch.setattr(problems, "_SCORE_BLOCK", score_block)
        inst = VALUE_FAMILIES[family](data)
        assert_rows_agree(inst.values(W), per_row(inst, W))
        assert inst.values(np.empty((0, 5))).shape == (0,)
    monkeypatch.undo()


def test_values_calls_a_swapped_objective_once_per_row():
    inst = miniature_zoo()["hinge_sep_2d"]
    assert inst.objective is inst.oracle.objective
    seen = []

    def wrapper(w):
        seen.append(np.array(w))
        return inst.objective(w)

    swapped = replace(inst, objective=wrapper)
    W = np.random.default_rng(3).normal(size=(5, 2))
    assert np.array_equal(swapped.values(W), per_row(inst, W))
    assert len(seen) == 5 and all(np.array_equal(s, w) for s, w in zip(seen, W))
    with pytest.raises(ValueError, match="values"):
        swapped.values(np.zeros((5, 3)))
    with pytest.raises(ValueError, match="values"):
        swapped.values(np.zeros(2))
    wrong = Oracle(lambda W, want_f, want_g: (np.zeros(W.shape[-1] + 1), None))
    wrong = replace(inst, oracle=wrong, objective=None)
    with pytest.raises(ValueError, match="batch returned"):
        wrong.values(W)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def fused(inst, w):
    """(f, g) at w as a logged iteration gets them: the subgradient pass
    keeps the scores of w in a row, and one value pass reads them back."""
    oracle = inst._deferred()
    row = np.empty(oracle.width)
    g = oracle.keep(w, row)
    return oracle.kept_values(row[None]).tolist()[0], g


@pytest.mark.parametrize("family", sorted(VALUE_FAMILIES))
def test_fused_form_is_bitwise_the_separate_calls_in_both_layouts(monkeypatch, family):
    rng = np.random.default_rng(33)
    X = rng.normal(size=(40, 5)) * (rng.random((40, 5)) < 0.6)
    data = Dataset(sp.csr_matrix(X), np.where(rng.random(40) < 0.5, -1.0, 1.0))
    # random points plus w = 0, where every margin and weight sits on a kink
    points = [rng.normal(size=5) for _ in range(20)] + [np.zeros(5)]
    for threshold in (0.0, math.inf):
        monkeypatch.setattr(problems, "_DENSE_MIN_DENSITY", threshold)
        inst = VALUE_FAMILIES[family](data)
        assert inst._deferred() is inst.oracle
        for w in points:
            f, g = fused(inst, w)
            assert type(f) is float and bits(f) == bits(inst.objective(w))
            assert g.shape == (5,) and bits(g) == bits(inst.subgrad(w))
    monkeypatch.undo()


def test_fused_form_only_on_linear_models():
    for name, inst in miniature_zoo().items():
        deferred = inst._deferred()
        if name in ("square_1d", "l1_2d", "lovasz_path4"):
            assert deferred is None, name
        else:
            # replace() keeps both callables, so the guard still holds
            assert deferred is inst.oracle, name


def test_layout_follows_density_crossover():
    rng = np.random.default_rng(4)
    sparse_X = sp.random(400, 60, density=0.02, format="csr", random_state=rng)
    A, AT = problems._laid_out(sparse_X)
    assert sp.issparse(A) and sp.issparse(AT)  # large sparse files stay sparse
    dense_X = sp.csr_matrix(rng.normal(size=(40, 6)))
    A, AT = problems._laid_out(dense_X)
    assert isinstance(A, np.ndarray) and AT.flags.c_contiguous
    assert np.array_equal(A, dense_X.toarray()) and np.array_equal(AT, A.T)


def c8_problem_data():
    """The C8 acceptance data: 100 x 20 features and 30 unit-weight edges."""
    data = synth_classification(100, 20, margin=0.3, seed=5)
    pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
    sel = sorted(np.random.default_rng(8).choice(len(pairs), size=30, replace=False).tolist())
    return data, GFlassoGraph(20, tuple((pairs[k][0], pairs[k][1], 1.0) for k in sel))


def test_layout_size_term_densifies_small_matrices_only():
    _, graph = c8_problem_data()
    assert graph.F.shape == (30, 20) and graph.F.nnz == 60  # density 0.1
    A, AT = problems._laid_out(graph.F)
    assert isinstance(A, np.ndarray) and np.array_equal(A, graph.F.toarray())
    rng = np.random.default_rng(5)
    for shape, density in (((400, 60), 0.02), ((2000, 500), 0.01)):
        M = sp.random(*shape, density=density, format="csr", random_state=rng)
        A, AT = problems._laid_out(M)
        assert sp.issparse(A) and sp.issparse(AT), shape


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_both_layouts_forces_a_dense_and_a_sparse_layout(monkeypatch, family):
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 5)) * (rng.random((40, 5)) < 0.6)
    data = Dataset(sp.csr_matrix(X), np.where(rng.random(40) < 0.5, -1.0, 1.0))
    seen = []
    laid_out = problems._laid_out

    def spy(M):
        out = laid_out(M)
        seen.append((problems._DENSE_MIN_DENSITY, type(out[0])))
        return out

    monkeypatch.setattr(problems, "_laid_out", spy)
    both_layouts(monkeypatch, family, data)
    assert {t for _, t in seen} == {np.ndarray, sp.csr_matrix}
    assert all((t is np.ndarray) == (threshold == 0.0) for threshold, t in seen)


def test_c8_oracles_are_bitwise_equal_with_the_fused_matrix_in_either_layout(monkeypatch):
    data, graph = c8_problem_data()
    built = []
    for overhead in (problems._CSR_CALL_NNZ, 0):  # F dense, then F in CSR as by density alone
        monkeypatch.setattr(problems, "_CSR_CALL_NNZ", overhead)
        built.append(gflasso_svm(data, graph, lam=0.1))
    monkeypatch.undo()
    dense_F, csr_F = built
    assert dense_F.lipschitz_bound == csr_F.lipschitz_bound
    rng = np.random.default_rng(83)
    points = [rng.standard_normal(20) for _ in range(30)] + [np.zeros(20)]
    W = np.array(points)
    assert bits(dense_F.values(W)) == bits(csr_F.values(W))
    for w in points:
        assert bits(dense_F.objective(w)) == bits(csr_F.objective(w))
        assert bits(dense_F.subgrad(w)) == bits(csr_F.subgrad(w))
        f, g = fused(dense_F, w)
        f_ref, g_ref = fused(csr_F, w)
        assert bits(f) == bits(f_ref) and bits(g) == bits(g_ref)


# ---------------------------------------------------------------------------
# Lovasz extension


def path4():
    return cut_function(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


def test_lovasz_indicators_recover_set_values():
    fn = path4()
    inst = lovasz_problem(fn)
    for mask in range(16):
        w = np.array([(mask >> i) & 1 for i in range(4)], dtype=float)
        assert inst.objective(w) == fn.evaluate(mask)
    assert inst.objective(np.zeros(4)) == 0.0


def test_lovasz_matches_max_over_chain_orders():
    rng = np.random.default_rng(3)
    d = 5
    edges = [(0, 1, 0.7), (0, 2, 1.3), (1, 3, 0.4), (2, 4, 2.0), (3, 4, 1.1)]
    fn = cut_function(d, edges)
    inst = lovasz_problem(fn)

    def chain_value(w, order):
        mask, prev, total = 0, 0.0, 0.0
        for idx in order:
            mask |= 1 << idx
            cur = fn.evaluate(mask)
            total += w[idx] * (cur - prev)
            prev = cur
        return total

    for _ in range(30):
        w = rng.random(d)
        best = max(chain_value(w, order) for order in itertools.permutations(range(d)))
        assert math.isclose(inst.objective(w), best, rel_tol=1e-12, abs_tol=1e-12)


def test_lovasz_objective_equals_w_dot_subgrad():
    inst = lovasz_problem(path4())
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = rng.random(4)
        assert inst.objective(w) == float(w @ inst.subgrad(w))


def test_lovasz_stable_tie_order():
    inst = lovasz_problem(cut_function(2, [(0, 1, 1.0)]))
    # equal weights: coordinate 0 enters the chain first, so the increments
    # are F({0}) = 1 and F({0,1}) - F({0}) = -1
    assert np.array_equal(inst.subgrad(np.array([0.5, 0.5])), np.array([1.0, -1.0]))


@pytest.mark.parametrize("d", [2, 4, 7])
def test_lovasz_batch_is_bitwise_the_per_point_chain(d):
    """values and subgrads walk every row's chain with one bulk call; ties
    (stable order), zeros and repeated rows included."""
    rng = np.random.default_rng(d)
    edges = [(i, j, float(rng.uniform(0.2, 2.0))) for i in range(d) for j in range(i + 1, d)]
    inst = lovasz_problem(cut_function(d, edges))
    W = rng.choice([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0], size=(60, d))
    W[:10] = rng.uniform(-2.0, 2.0, size=(10, d))
    assert inst.objective is inst.oracle.objective and inst.subgrad is inst.oracle.subgrad
    assert bits(inst.values(W)) == bits([inst.objective(w) for w in W])
    assert bits(inst.subgrads(W)) == bits([inst.subgrad(w) for w in W])
    assert inst.values(W[:0]).shape == (0,) and inst.subgrads(W[:0]).shape == (0, d)


def test_lovasz_without_bulk_evaluate_has_no_batch():
    scalar = SetFunction(4, path4().evaluate)
    inst = lovasz_problem(scalar)
    assert not hasattr(inst.objective, "batch") and not hasattr(inst.subgrad, "batch")
    W = np.random.default_rng(4).uniform(0.0, 1.0, size=(5, 4))
    assert bits(inst.values(W)) == bits(lovasz_problem(path4()).values(W))
    assert np.array_equal(inst.feasible_rows(W - 0.5), np.clip(W - 0.5, 0.0, 1.0))


def test_lovasz_rejects_non_submodular():
    bad = SetFunction(3, lambda m: 1.0 if (m & 3) == 3 else 0.0)
    with pytest.raises(ValueError, match="not submodular"):
        lovasz_problem(bad)


def test_lovasz_rejects_identically_zero():
    with pytest.raises(ValueError, match="identically zero"):
        lovasz_problem(cut_function(3, []))


def test_lovasz_submodularity_check_skipped_above_12():
    def fn(d):
        full = (1 << d) - 1
        return SetFunction(d, lambda m: 0.0 if m == 0 else (5.0 if m == full else 1.0))

    with pytest.raises(ValueError, match="not submodular"):
        lovasz_problem(fn(12))
    inst = lovasz_problem(fn(13))  # too large for the exhaustive check
    assert inst.dim == 13


def test_lovasz_bound_and_box_and_floor():
    inst = lovasz_problem(path4())
    # marginal envelope: M = (1, 2, 2, 1), so G = sqrt(10)
    assert inst.lipschitz_bound == math.sqrt(10.0)
    assert inst.fstar_lower_bound == -6.0
    assert np.array_equal(inst.project(np.array([-0.5, 0.3, 1.7, 1.0])), [0.0, 0.3, 1.0, 1.0])
    assert inst.eb_theta == 1.0


def test_lovasz_box_minimum_equals_set_minimum():
    fn = cut_function(3, [(0, 1, 2.0), (1, 2, 1.0)])
    inst = lovasz_problem(fn)
    table = enumerate_table(fn)
    grids = np.meshgrid(*([np.linspace(0.0, 1.0, 21)] * 3), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    vals = np.array([inst.objective(p) for p in pts])
    assert math.isclose(vals.min(), table.min(), abs_tol=1e-12)


# ---------------------------------------------------------------------------
# correlation graphs


def test_graph_from_correlation_edges():
    base = np.array([1.0, 2.0, 3.0, 4.0])
    noise = np.array([0.9, -1.2, 0.1, 0.4])
    X = np.stack([base, 2.0 * base, -base, noise, np.ones(4)], axis=1)
    data = Dataset(sp.csr_matrix(X), np.zeros(4))
    g = graph_from_correlation(data, cutoff=0.95)
    assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))


def test_graph_from_correlation_cutoff_validation():
    data = dense([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
    for cutoff in (0.0, 1.5, -0.2):
        with pytest.raises(ValueError, match="cutoff"):
            graph_from_correlation(data, cutoff)


# ---------------------------------------------------------------------------
# miniature zoo


def test_zoo_names_and_structure():
    zoo = miniature_zoo()
    assert set(zoo) == {
        "abs_1d",
        "abs_median_1d",
        "square_1d",
        "l1_2d",
        "hinge_sep_2d",
        "rr_1d_p15",
        "eps_ins_1d",
        "hinge_l1ball_2d",
        "lovasz_path4",
    }
    for key, inst in zoo.items():
        assert inst.name == key
        w = inst.feasible(np.zeros(inst.dim))
        assert math.isfinite(inst.objective(w))
        assert inst.subgrad(w).shape == (inst.dim,)
        assert inst.lipschitz_bound > 0.0


def test_zoo_known_fstar_matches_grid_minimum():
    zoo = miniature_zoo()
    for key, inst in zoo.items():
        if inst.known_fstar is None:
            continue
        if inst.dim == 1:
            pts = np.linspace(-6.0, 12.0, 4001).reshape(-1, 1)
        elif inst.dim == 2:
            axis = np.linspace(-3.0, 3.0, 301)
            gx, gy = np.meshgrid(axis, axis, indexing="ij")
            pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        else:  # lovasz_path4: the box minimum sits at a vertex
            pts = np.array([[(m >> i) & 1 for i in range(inst.dim)] for m in range(16)], dtype=float)
        vals = np.array([inst.objective(inst.feasible(p)) for p in pts])
        assert vals.min() >= inst.known_fstar - 1e-12, key
        assert vals.min() <= inst.known_fstar + 0.05, key


def test_zoo_planted_rr_interpolates():
    zoo = miniature_zoo()
    inst = zoo["rr_1d_p15"]
    assert inst.objective(np.array([1.5])) == 0.0
