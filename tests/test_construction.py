"""Direct construction: CSR built straight from dense arrays and edge lists,
checked against scipy's own conversions, and the bulk input checks against
the per-item refusals they fall back to."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rsgkit.data import synth_classification, synth_regression
from rsgkit.problems import (
    Dataset,
    GFlassoGraph,
    _dense_csr,
    cut_function,
    gflasso_svm,
    piecewise_linear_erm,
)


def assert_same_csr(got: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.shape == expected.shape and got.nnz == expected.nnz
    assert got.has_sorted_indices == expected.has_sorted_indices
    assert got.has_canonical_format == expected.has_canonical_format


# ---------------------------------------------------------------------------
# dense arrays

_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _dense(draw):
    shape = draw(st.tuples(st.integers(0, 6), st.integers(0, 6)))
    fill = draw(st.sampled_from(["mixed", "zero", "stored"]))
    if fill == "zero":
        X = np.zeros(shape)
    else:
        X = draw(arrays(float, shape, elements=_ENTRIES))
        if fill == "stored":
            X[X == 0] = 1.5
    if draw(st.booleans()) and X.size:  # empty rows and columns
        X[draw(st.integers(0, shape[0] - 1)), :] = 0.0
        X[:, draw(st.integers(0, shape[1] - 1))] = -0.0
    return np.asfortranarray(X) if draw(st.booleans()) else X


@given(X=_dense())
def test_dense_csr_is_scipys_conversion(X):
    assert_same_csr(_dense_csr(X), sp.csr_matrix(X))


@pytest.mark.parametrize(
    "X",
    [
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        np.zeros((0, 0)),
        np.array([[0.0]]),
        np.array([[-0.0]]),
        np.array([[math.nan]]),
        np.array([[2.0]]),
        np.zeros((4, 5)),
        np.arange(1.0, 21.0).reshape(4, 5),
        np.array([[1.0, 0.0, math.nan], [0.0, 0.0, 0.0], [-0.0, math.inf, -2.0]]),
    ],
    ids=["0xd", "nx0", "0x0", "zero", "neg-zero", "nan", "one", "all-zero", "all-stored", "mixed"],
)
def test_dense_csr_edge_shapes(X):
    assert_same_csr(_dense_csr(X), sp.csr_matrix(X))


@pytest.mark.parametrize("margin", [0.0, 0.3])
def test_synthetic_data_are_scipys_conversion_of_the_draws(margin):
    # synth_regression draws X first; synth_classification redraws rows of
    # its X, so its matrix is checked against the conversion of its values
    rng = np.random.default_rng(42)
    X = rng.standard_normal((30, 7))
    assert_same_csr(synth_regression(30, 7, 0.5, seed=42).X, sp.csr_matrix(X))
    classes = synth_classification(30, 7, margin, seed=5)
    assert_same_csr(classes.X, sp.csr_matrix(classes.X.toarray()))


# ---------------------------------------------------------------------------
# fused-difference matrices


def coo_fused(dim, edges) -> sp.csr_matrix:
    """F built through COO, one edge at a time: rows (k, k), columns (i, j),
    values (s, -s)."""
    m = len(edges)
    rows = np.repeat(np.arange(m), 2)
    cols = np.empty(2 * m, dtype=int)
    vals = np.empty(2 * m)
    for k, (i, j, s) in enumerate(edges):
        cols[2 * k], cols[2 * k + 1] = i, j
        vals[2 * k], vals[2 * k + 1] = s, -s
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, dim))


@st.composite
def _graph(draw):
    dim = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.one_of(
        st.floats(min_value=5e-324, max_value=1e308), st.integers(1, 2**53), st.just(True)
    )
    return dim, tuple((i, j, draw(weights)) for i, j in chosen)


@given(graph=_graph())
def test_fused_matrix_is_the_coo_built_one(graph):
    dim, edges = graph
    assert_same_csr(GFlassoGraph(dim, edges).F, coo_fused(dim, edges))


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_graph_without_edges(dim):
    F = GFlassoGraph(dim, ()).F
    assert_same_csr(F, coo_fused(dim, ()))
    assert F.shape == (0, dim)


def test_numpy_endpoints_and_weights_build_the_same_matrix():
    edges = ((np.int64(0), np.int32(2), np.float32(0.5)), (np.uint8(1), 3, np.float64(2.0)))
    assert_same_csr(GFlassoGraph(4, edges).F, coo_fused(4, edges))
    # bool endpoints and weights are integers, as they are to int()
    assert_same_csr(GFlassoGraph(2, ((False, True, True),)).F, coo_fused(2, ((0, 1, 1.0),)))


_REFUSALS = [
    (((1, 1, 1.0),), "edge 0 has endpoints (1, 1) outside 0 <= i < j < 3"),
    (((2, 1, 1.0),), "edge 0 has endpoints (2, 1) outside 0 <= i < j < 3"),
    (((0, 3, 1.0),), "edge 0 has endpoints (0, 3) outside 0 <= i < j < 3"),
    (((-1, 1, 1.0),), "edge 0 has endpoints (-1, 1) outside 0 <= i < j < 3"),
    (((0, 1, 0.0),), "edge 0 weight must be finite and > 0, got 0.0"),
    (((0, 1, math.nan),), "edge 0 weight must be finite and > 0, got nan"),
    (((0, 1, math.inf),), "edge 0 weight must be finite and > 0, got inf"),
    (((0, 1, -1.0),), "edge 0 weight must be finite and > 0, got -1.0"),
    (((0, 1, -1),), "edge 0 weight must be > 0, got -1"),
    (((0, 1, False),), "edge 0 weight must be > 0, got False"),
    (((0, 1, np.float64(math.nan)),), "edge 0 weight must be finite and > 0, got nan"),
    # the first bad edge is named, and every endpoint is checked before any weight
    (((0, 1, 1.0), (0, 2, -2.0), (1, 2, 0.0)), "edge 1 weight must be finite and > 0, got -2.0"),
    (((0, 1, -1.0), (1, 2, 1.0), (2, 5, 1.0)), "edge 2 has endpoints (2, 5) outside 0 <= i < j < 3"),
    # non-integer endpoints are refused, not truncated
    (((0.5, 2, 1.0),), "edge 0 endpoint must be an integer, got 0.5"),
    (((0, 2.7, 1.0),), "edge 0 endpoint must be an integer, got 2.7"),
    (((0.0, 2, 1.0),), "edge 0 endpoint must be an integer, got 0.0"),
    (((0, 1, 1.0), (np.float64(1), 2, 1.0)), "edge 1 endpoint must be an integer, got 1.0"),
]


@pytest.mark.parametrize("edges,message", _REFUSALS)
def test_graph_refusals_name_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError) as info:
        GFlassoGraph(3, edges)
    assert str(info.value) == f"GFlassoGraph: {message}"


@pytest.mark.parametrize(
    "edges,match",
    [
        (((0, 1, 1.0), (0, 1)), "not enough values to unpack"),
        (((0, 1, 1.0, 4),), "too many values to unpack"),
        # before, a bare TypeError from the comparison
        (((0, 1, "2"),), "^GFlassoGraph: edge 0 weight must be a number, got '2'$"),
        (((0, 1, None),), "^GFlassoGraph: edge 0 weight must be a number, got None$"),
    ],
    ids=["short", "long", "str-weight", "None-weight"],
)
def test_graph_refuses_malformed_edges_as_unpacking_and_check_bounds_do(edges, match):
    with pytest.raises(ValueError, match=match):
        GFlassoGraph(3, edges)


@pytest.mark.parametrize("weight,shown", [("2", "'2'"), (None, "None")], ids=["str", "None"])
def test_cut_function_refuses_non_numeric_weights_as_the_graph_does(weight, shown):
    # before, cut_function converted each weight with float(), so it built a
    # cut from "2" and raised a bare TypeError for None
    with pytest.raises(ValueError) as info:
        cut_function(3, [(0, 1, 1.0), (1, 2, weight)])
    assert str(info.value) == f"GFlassoGraph: edge 1 weight must be a number, got {shown}"


def test_cut_function_refuses_non_integer_endpoints():
    with pytest.raises(ValueError, match="edge 0 endpoint must be an integer, got 0.9"):
        cut_function(3, [(0.9, 2, 1.0)])
    with pytest.raises(ValueError, match="edge 1 endpoint must be an integer, got 2.5"):
        cut_function(3, [(0, 1, 1.0), (1, 2.5, 1.0)])
    cut = cut_function(3, [(np.int64(0), np.int64(2), 1.0)])
    assert cut.evaluate(1) == 1.0 and cut.evaluate(2) == 0.0


# ---------------------------------------------------------------------------
# binary labels


@pytest.mark.parametrize(
    "y,shown",
    [
        ([0.0, 1.0, 2.0], "[0. 1. 2.]"),
        ([1.0, -1.0, math.nan], "[-1.  1. nan]"),
        ([float(k) for k in range(10)], "[0. 1. 2. 3. 4. 5. 6. 7.]"),
        ([-0.0, 1.0, -1.0], "[-1. -0.  1.]"),
    ],
)
def test_non_binary_labels_are_refused_with_the_distinct_labels(y, shown):
    data = Dataset(sp.csr_matrix(np.ones((len(y), 2))), np.array(y))
    builders = {
        "piecewise_linear_erm": lambda: piecewise_linear_erm(data, loss="hinge"),
        "gflasso_svm": lambda: gflasso_svm(data, GFlassoGraph(2, ()), lam=0.1),
    }
    for who, build in builders.items():
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == f"{who}: labels must be in {{-1, +1}}, got {shown}"

