"""Dataset IO: svmlight parsing, edge lists, scaling, synthetic generators."""

from __future__ import annotations

import io
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from rsgkit import data as data_module
from rsgkit.data import (
    ParseError,
    binarize_labels,
    dump_libsvm,
    load_edge_list,
    parse_libsvm,
    scale_max_abs,
    synth_classification,
    synth_regression,
)
from rsgkit.problems import Dataset, piecewise_linear_erm, robust_regression


def test_parse_basic():
    ds = parse_libsvm(io.StringIO("1 1:2.5 3:-1\n-1 2:4\n"))
    assert (ds.n, ds.d) == (2, 3)
    assert np.array_equal(
        np.asarray(ds.X.todense()), np.array([[2.5, 0.0, -1.0], [0.0, 4.0, 0.0]])
    )
    assert np.array_equal(ds.y, np.array([1.0, -1.0]))
    assert ds.planted is None


def test_parse_blank_lines_and_empty_source():
    ds = parse_libsvm(io.StringIO("1 1:1\n\n  \n-1 1:2\n"))
    assert ds.n == 2
    empty = parse_libsvm(io.StringIO(""))
    assert (empty.n, empty.d) == (0, 0)


def test_parse_dim_override():
    ds = parse_libsvm(io.StringIO("1 1:1\n"), dim=5)
    assert ds.d == 5
    with pytest.raises(ParseError, match="exceeds"):
        parse_libsvm(io.StringIO("1 3:1\n"), dim=2)


@pytest.mark.parametrize(
    "dim,message",
    [
        (0, "parse_libsvm: dim must be >= 1, got 0"),
        (-1, "parse_libsvm: dim must be >= 1, got -1"),
        (2.5, "parse_libsvm: dim must be an integer, got 2.5"),
    ],
)
def test_parse_dim_is_range_checked(dim, message):
    with pytest.raises(ValueError) as exc:
        parse_libsvm(io.StringIO("1 1:1\n"), dim=dim)
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_parse_labels_without_features():
    ds = parse_libsvm(io.StringIO("1\n-1 1:0.5\n"))
    assert ds.n == 2 and ds.d == 1
    assert ds.X[0].nnz == 0


@pytest.mark.parametrize(
    "text,match,line,col",
    [
        ("x 1:1\n", "label", 1, 1),
        ("1 foo\n", "expected idx:value", 1, 3),
        ("1 a:1\n", "not an integer", 1, 3),
        ("1 0:1\n", ">= 1", 1, 3),
        ("1 1:1 1:2\n", "duplicate", 1, 7),
        ("1 2:1 1:2\n", "out of order", 1, 7),
        ("1 1:x\n", "not a number", 1, 5),
        ("1 1:1\n-1 nope\n", "expected idx:value", 2, 4),
    ],
)
def test_parse_errors_carry_position(text, match, line, col):
    with pytest.raises(ParseError, match=match) as exc:
        parse_libsvm(io.StringIO(text))
    assert (exc.value.line, exc.value.column) == (line, col)


@pytest.mark.parametrize(
    "text,dim,message,line,col",
    [
        ("x 1:1\n", None, "label 'x' is not a number", 1, 1),
        ("1 foo\n", None, "expected idx:value, got 'foo'", 1, 3),
        ("1 a:1\n", None, "index 'a' is not an integer", 1, 3),
        ("1 0:1\n", None, "index 0 must be >= 1", 1, 3),
        ("1 1:1 1:2\n", None, "duplicate index 1", 1, 7),
        ("1 2:1 1:2\n", None, "index 1 out of order (previous was 2)", 1, 7),
        ("1 1:x\n", None, "value 'x' is not a number", 1, 5),
        ("1 1:1\n-1 nope\n", None, "expected idx:value, got 'nope'", 2, 4),
        ("1\t1:1\t 2:x\n", None, "value 'x' is not a number", 1, 10),
        ("1 3:1\n", 2, "feature index 3 exceeds the declared dimension 2", 1, 3),
        ("1 3:1\n\n\n1 1:1\n", 2, "feature index 3 exceeds the declared dimension 2", 1, 3),
        ("1 1:1\n1 1:nan\n", None, "value 'nan' is not a finite number", 2, 5),
        ("1 1:1e400\n", None, "value '1e400' is not a finite number", 1, 5),
        ("1 1:1 2:-inf\n", None, "value '-inf' is not a finite number", 1, 9),
        ("nan 1:1\n", None, "label 'nan' is not a finite number", 1, 1),
        ("-Infinity\n", None, "label '-Infinity' is not a finite number", 1, 1),
    ],
)
def test_parse_refusals_word_and_place(text, dim, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_libsvm(io.StringIO(text), dim=dim)
    assert str(exc.value) == f"line {line}, column {col}: {message}"
    assert (exc.value.line, exc.value.column) == (line, col)


def test_parse_accepts_paths(tmp_path):
    path = tmp_path / "tiny.svm"
    path.write_text("1 1:3\n-1 2:0.5\n")
    for source in (path, str(path)):
        ds = parse_libsvm(source)
        assert ds.n == 2 and ds.d == 2


def test_dump_parse_round_trip():
    ds = synth_regression(8, 4, noise=0.3, seed=5)
    text = dump_libsvm(ds)
    back = parse_libsvm(io.StringIO(text), dim=ds.d)
    assert np.array_equal(np.asarray(back.X.todense()), np.asarray(ds.X.todense()))
    assert np.array_equal(back.y, ds.y)


def test_binarize_labels():
    base = synth_regression(4, 2, noise=0.0, seed=1)
    ds = Dataset(base.X, np.array([0.0, 1.0, 2.0, 1.0]), base.planted)
    out = binarize_labels(ds, positive_class=1.0)
    assert np.array_equal(out.y, np.array([-1.0, 1.0, -1.0, 1.0]))
    assert out.planted is ds.planted
    with pytest.warns(UserWarning, match="no label equals"):
        allneg = binarize_labels(ds, positive_class=7.0)
    assert np.all(allneg.y == -1.0)


def test_load_edge_list_defaults_and_endpoint_swap():
    g = load_edge_list(io.StringIO("1 2\n3 1 2.5\n"), dim=3)
    assert g.edges == ((0, 1, 1.0), (0, 2, 2.5))


@pytest.mark.parametrize(
    "text,match",
    [
        ("1\n", "fields"),
        ("1 2 3 4\n", "fields"),
        ("a 2\n", "not an integer"),
        ("2 2\n", "self-loop"),
        ("1 9\n", "outside"),
        ("0 2\n", "outside"),
        ("1 2 x\n", "not a number"),
        ("1 2 0\n", "must be > 0"),
    ],
)
def test_load_edge_list_errors(text, match):
    with pytest.raises(ParseError, match=match):
        load_edge_list(io.StringIO(text), dim=3)


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        ("1\n", "expected 'i j' or 'i j s', got 1 fields", 1, 1),
        (" 1 2 3 4\n", "expected 'i j' or 'i j s', got 4 fields", 1, 2),
        ("a 2\n", "endpoint 'a' is not an integer", 1, 1),
        ("1 2.0\n", "endpoint '2.0' is not an integer", 1, 3),
        ("2 2\n", "self-loop at node 2", 1, 1),
        ("1 9\n", "endpoint 9 outside 1..3", 1, 3),
        ("0 2\n", "endpoint 0 outside 1..3", 1, 1),
        ("1 2 x\n", "weight 'x' is not a number", 1, 5),
        ("1 2 0\n", "weight 0.0 must be > 0", 1, 5),
        ("1 2\n\n  3\t1 -2\n", "weight -2.0 must be > 0", 3, 7),
        ("1 2 inf\n", "weight 'inf' is not a finite number", 1, 5),
        ("1 2\n1 3 nan\n", "weight 'nan' is not a finite number", 2, 5),
        ("1 3 1e400\n", "weight '1e400' is not a finite number", 1, 5),
    ],
)
def test_load_edge_list_refusals_word_and_place(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        load_edge_list(io.StringIO(text), dim=3)
    assert str(exc.value) == f"line {line}, column {col}: {message}"
    assert (exc.value.line, exc.value.column) == (line, col)


def test_load_edge_list_dim_validation():
    with pytest.raises(ValueError, match="dim"):
        load_edge_list(io.StringIO(""), dim=0)


def test_scale_max_abs():
    X = np.array([[2.0, 0.0, -4.0], [1.0, 0.0, 2.0]])
    ds = Dataset(sp.csr_matrix(X), np.array([1.0, -1.0]))
    out = scale_max_abs(ds)
    assert np.array_equal(
        np.asarray(out.X.todense()), np.array([[1.0, 0.0, -1.0], [0.5, 0.0, 0.5]])
    )
    assert out.y is ds.y


def test_synth_regression_bitwise_reproducible():
    a = synth_regression(10, 3, noise=0.5, seed=42)
    b = synth_regression(10, 3, noise=0.5, seed=42)
    c = synth_regression(10, 3, noise=0.5, seed=43)
    assert np.array_equal(np.asarray(a.X.todense()), np.asarray(b.X.todense()))
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.planted, b.planted)
    assert not np.array_equal(a.y, c.y)


def test_synth_regression_noise_zero_interpolates():
    ds = synth_regression(30, 5, noise=0.0, seed=7)
    inst = robust_regression(ds, p_loss=1.5)
    assert inst.objective(ds.planted) <= 1e-20


def test_synth_classification_margin_and_zero_hinge():
    ds = synth_classification(40, 3, margin=0.5, seed=2)
    assert set(np.unique(ds.y)) <= {-1.0, 1.0}
    u = ds.planted * 0.5  # planted = u / margin
    assert np.min(np.abs(ds.X @ u)) >= 0.5 - 1e-12
    inst = piecewise_linear_erm(ds, loss="hinge")
    assert inst.objective(ds.planted) == 0.0


def test_synth_classification_margin_zero():
    ds = synth_classification(10, 2, margin=0.0, seed=3)
    assert set(np.unique(ds.y)) <= {-1.0, 1.0}
    assert np.isclose(np.linalg.norm(ds.planted), 1.0)


def test_synth_classification_subnormal_margin_plants_nothing():
    # u / 5e-324 overflows, so no finite planted vector exists at this scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = synth_classification(3, 2, margin=5e-324, seed=0)
    assert ds.planted is None
    assert set(np.unique(ds.y)) <= {-1.0, 1.0}
    tiny = synth_classification(3, 2, margin=1e-300, seed=0)
    assert np.all(np.isfinite(tiny.planted))


def unbounded_classification(n, d, margin, seed):
    """The generator's stream without a redraw bound: (X, y, redraw rounds)."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u = u / np.linalg.norm(u)
    X = rng.standard_normal((n, d))
    rounds = 0
    while margin > 0.0 and np.any(np.abs(X @ u) < margin):
        bad = np.abs(X @ u) < margin
        X[bad] = rng.standard_normal((int(bad.sum()), d))
        rounds += 1
    return X, np.where(X @ u >= 0.0, 1.0, -1.0), rounds


@pytest.mark.parametrize("args", [(100, 20, 0.3, 5), (200, 10, 0.3, 11), (30, 4, 0.5, 7)])
def test_synth_classification_redraw_bound_keeps_stream(args):
    X, y, _ = unbounded_classification(*args)
    ds = synth_classification(*args)
    assert np.array_equal(ds.X.toarray(), X) and np.array_equal(ds.y, y)


def test_synth_classification_redraw_bound_raises(monkeypatch):
    X, y, rounds = unbounded_classification(20, 3, 2.0, 1)
    assert rounds > 1
    monkeypatch.setattr(data_module, "_MAX_REDRAW_ROUNDS", rounds)
    ds = synth_classification(20, 3, margin=2.0, seed=1)  # needs exactly the bound
    assert np.array_equal(ds.X.toarray(), X) and np.array_equal(ds.y, y)
    monkeypatch.setattr(data_module, "_MAX_REDRAW_ROUNDS", rounds - 1)
    with pytest.raises(ValueError, match="margin"):
        synth_classification(20, 3, margin=2.0, seed=1)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="redraw rounds"):
        synth_classification(2, 2, margin=7.0, seed=0)


@pytest.mark.parametrize(
    "fn,kwargs",
    [
        (synth_regression, dict(n=0, d=2, noise=0.0, seed=0)),
        (synth_regression, dict(n=2, d=0, noise=0.0, seed=0)),
        (synth_regression, dict(n=2, d=2, noise=-0.1, seed=0)),
        (synth_classification, dict(n=0, d=2, margin=0.1, seed=0)),
        (synth_classification, dict(n=2, d=2, margin=-0.1, seed=0)),
    ],
)
def test_synth_validation(fn, kwargs):
    with pytest.raises(ValueError):
        fn(**kwargs)
