"""Dataset IO: svmlight parsing, edge lists, scaling, synthetic generators."""

from __future__ import annotations

import ast
import io
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

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

import libsvm_reference


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


@pytest.mark.parametrize("dim", [None, 5])
def test_parse_refuses_an_index_past_int64(dim):
    # before, np.array(indices, dtype=int) ended in an OverflowError
    limit = 2**63 - 1
    with pytest.raises(ParseError) as exc:
        parse_libsvm(io.StringIO(f"1 1:1\n-1 2:1 {limit + 1}:2\n"), dim=dim)
    message = f"index {limit + 1} exceeds the largest index {limit}"
    assert str(exc.value) == f"line 2, column 8: {message}"
    ds = parse_libsvm(io.StringIO(f"1 {limit}:2\n"))
    assert ds.d == limit and ds.X.indices.tolist() == [limit - 1]


def test_parse_reads_a_stream_once():
    class OneWay(io.TextIOBase):
        """A text stream that can only be iterated, once."""

        def __init__(self, text):
            self._lines = iter(text.splitlines(keepends=True))
            self.reads = 0

        def __iter__(self):
            self.reads += 1
            return self._lines

        def seekable(self):
            return False

    stream = OneWay("1 1:1 2:2\n-1 3:4\n")
    ds = parse_libsvm(stream)
    assert stream.reads == 1 and ds.X.shape == (2, 3)


def test_parse_walk_disagreeing_with_the_bulk_checks_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(data_module, "_bulk", lambda rows, dim: None)
    with pytest.raises(RuntimeError, match="no field is refused"):
        parse_libsvm(io.StringIO("1 1:1\n"))


def test_parse_memory_stays_within_one_block_of_tokens(tmp_path):
    path = tmp_path / "big.svm"
    path.write_text(dump_libsvm(synth_regression(2000, 100, noise=0.5, seed=42)))
    tracemalloc.start()
    try:
        ds = parse_libsvm(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the per-field loop peaked at 12.2 MB on this 4.5 MB file (2**14-entry
    # blocks: 7.7 MB; the whole file as one block: 58 MB)
    assert ds.X.nnz == 200_000 and peak < 12.2e6


def _assert_same_dataset(a, b):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a.X, name), getattr(b.X, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.X.shape == b.X.shape
    assert a.y.dtype == b.y.dtype and a.y.tobytes() == b.y.tobytes()


_LABELS = ["1", "-1", "0.5", "+3", "1_0", "-0", "1e3", "٣", "nan", "inf", "1e400", "x",
           "1:2"]
_VALUES = ["1", "-2.5", "0", "1e-300", "+7", "1_0", "٣.5", "nan", "-inf", "1e400", "x",
           "", "2:3"]
_INDEX_TOKENS = ["0", "-1", "+3", "1_0", "", "a", "٣", "1.5", str(2**63 - 1),
                 str(2**63), "99999999999999999999"]
_SPACES = [" ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003",
           "\u3000"]


@st.composite
def _libsvm_lines(draw):
    """Up to 8 lines.  A line is clean (accepted tokens, increasing indices)
    or, one time in five, dirty: there each token is drawn from every token
    listed half the time."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t \xa0"])))
            continue
        dirty = draw(st.integers(0, 4)) == 0

        def pick(clean, every):
            return draw(st.sampled_from(every if dirty and draw(st.booleans()) else clean))

        tokens = [pick(_LABELS[:8], _LABELS)]
        idx = 0
        for _ in range(draw(st.integers(0, 6))):
            idx = max(idx + pick([1, 1, 2, 3], [1, 0, -1]), 0)
            index = pick([str(idx), str(idx), f"+{idx}", f"0{idx}"], _INDEX_TOKENS)
            form = pick(["{}:{}"], ["{}:", ":{}", "{}:{}:9", "{}"])
            tokens.append(form.format(index, pick(_VALUES[:7], _VALUES)))
        seps = [pick(_SPACES[:3], _SPACES) for _ in tokens]
        lead = draw(st.sampled_from(["", "", " ", "\xa0"]))
        lines.append(lead + "".join(t + s for t, s in zip(tokens, seps)).rstrip(" "))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _field_at(line, column):
    """The whitespace-separated field that holds 1-based ``column``, or ends
    just before it (an empty value after a trailing colon), and the offset
    of the column in it."""
    for m in re.finditer(r"\S+", line):
        if m.start() < column <= m.end() + 1:
            return m.group(), column - 1 - m.start()
    raise AssertionError(f"column {column} is not at a field of {line!r}")


def _assert_column_names_its_field(text, err):
    field, offset = _field_at(text.split("\n")[err.line - 1], err.column)
    message = str(err).split(": ", 1)[1]
    quoted = re.search(r"(?:label|index|value|got) ('.*')", message)
    if quoted:
        named = ast.literal_eval(quoted.group(1))
        assert field[offset:].startswith(named), (field, message)
        assert offset < len(field) or not named, (field, message)
        if message.startswith("value"):  # a value starts after its index's colon
            assert field[offset - 1] == ":", (field, message)
        else:
            assert offset == 0, (field, message)
    else:
        number = int(re.search(r"index (-?\d+)", message).group(1))
        assert offset == 0 and int(field.partition(":")[0]) == number, (field, message)


@given(
    text=_libsvm_lines(),
    dim=st.one_of(st.none(), st.integers(1, 12)),
    block=st.integers(1, 9),
)
def test_parse_fuzz_matches_the_per_field_reader(text, dim, block):
    """Blocks of 1..9 entries end between arbitrary lines; the block reader
    gives the per-field reader's arrays, or its refusal."""
    try:
        expected = libsvm_reference.parse_libsvm(io.StringIO(text), dim=dim)
    except ParseError as exc:
        expected = exc
    with mock.patch.object(data_module, "_PARSE_BLOCK", block):
        try:
            got = parse_libsvm(io.StringIO(text), dim=dim)
        except ParseError as exc:
            got = exc
    if isinstance(expected, ParseError):
        assert isinstance(got, ParseError), got
        assert (str(got), got.line, got.column) == (
            str(expected), expected.line, expected.column
        )
        _assert_column_names_its_field(text, got)
    else:
        assert not isinstance(got, ParseError), got
        _assert_same_dataset(got, expected)


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


@pytest.mark.parametrize(
    "indices,data,text",
    [
        ([1, 0], [2.0, 1.0], "1.0 1:1.0 2:2.0\n"),  # unsorted: written sorted
        ([0, 0], [2.0, 1.0], "1.0 1:3.0\n"),  # duplicates: written summed
    ],
    ids=["unsorted", "duplicate"],
)
def test_dump_writes_a_canonical_copy(indices, data, text):
    X = sp.csr_matrix((data, indices, [0, 2]), shape=(1, 2))
    ds = Dataset(X, np.array([1.0]))
    assert dump_libsvm(ds) == text
    back = parse_libsvm(io.StringIO(dump_libsvm(ds)), dim=ds.d)
    assert np.array_equal(back.X.toarray(), X.toarray())
    assert X.indices.tolist() == indices  # the input is not touched


def test_dump_formats_every_dtype_through_float():
    X = sp.csr_matrix(np.array([[3, 0, -1], [0, 0, 0]], dtype=np.int64))
    ds = Dataset(X, np.array([1, -2]))
    assert dump_libsvm(ds) == "1.0 1:3.0 3:-1.0\n-2.0\n"
    small = Dataset(sp.csr_matrix(np.array([[0.1]], dtype=np.float32)), np.array([0.5]))
    assert dump_libsvm(small) == "0.5 1:0.10000000149011612\n"
    assert dump_libsvm(Dataset(sp.csr_matrix((0, 3)), np.empty(0))) == ""


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


def test_scale_max_abs_sums_duplicates_and_drops_zeros():
    # five stored entries: one explicit zero and two duplicate pairs, one
    # of which cancels; the scaled matrix stores the two nonzero sums
    X = sp.csr_matrix(
        ([0.0, 2.0, -1.0, 4.0, -4.0], [2, 0, 0, 1, 1], [0, 5]), shape=(1, 3)
    )
    out = scale_max_abs(Dataset(X, np.array([1.0])))
    assert out.X.nnz == 1 and out.X.indices.tolist() == [0] and out.X.data.tolist() == [1.0]
    Y = sp.csr_matrix(
        ([0.0, 3.0, -1.0, 6.0, -2.0], [1, 2, 0, 0, 0], [0, 3, 5]), shape=(2, 3)
    )
    out = scale_max_abs(Dataset(Y, np.array([1.0, 2.0])))
    assert out.X.has_canonical_format and out.X.indices.dtype == Y.indices.dtype
    assert out.X.nnz == 3 and out.X.indptr.tolist() == [0, 2, 3]
    assert out.X.toarray().tolist() == [[-0.25, 0.0, 1.0], [1.0, 0.0, 0.0]]
    assert Y.nnz == 5  # the input is not touched


def test_scale_max_abs_sums_duplicates_in_stored_order():
    # rows of 60 unsorted entries over 8 columns mixing 1e16 and small
    # values: summed in another order (an unstable sort), they differ
    rng = np.random.default_rng(1)
    n, d, m = 10, 8, 60
    cols = rng.integers(0, d, n * m)
    vals = rng.choice([1e16, -1e16, 1.0, 3.0, -2.0], n * m)
    X = sp.csr_matrix((vals, cols, np.arange(0, n * m + 1, m)), shape=(n, d))
    dense = np.zeros((n, d))
    for k, (j, v) in enumerate(zip(cols, vals)):
        dense[k // m, j] += v
    maxes = np.abs(dense).max(axis=0)
    expected = dense * (1.0 / np.where(maxes > 0.0, maxes, 1.0))
    out = scale_max_abs(Dataset(X, np.zeros(n)))
    assert np.array_equal(out.X.toarray(), expected)
    assert out.X.nnz == np.count_nonzero(expected)
    back = parse_libsvm(io.StringIO(dump_libsvm(Dataset(X, np.zeros(n)))), dim=d)
    assert np.array_equal(back.X.toarray(), dense)


def test_scale_max_abs_drops_zeros_at_one_feature_too():
    # scipy's broadcast multiply took a scalar path at d = 1 and kept them
    X = sp.csr_matrix(([0.0, 2.0, -4.0, 1.0, -1.0], [0, 0, 0, 0, 0], [0, 1, 2, 3, 5]),
                      shape=(4, 1))
    out = scale_max_abs(Dataset(X, np.zeros(4)))
    assert out.X.nnz == 2 and out.X.indptr.tolist() == [0, 0, 1, 2, 2]
    assert out.X.data.tolist() == [0.5, -1.0]


def test_scale_max_abs_integer_data_and_empty_columns():
    X = sp.csr_matrix(np.array([[4, 0, 0], [-2, 0, 3]], dtype=np.int64))
    out = scale_max_abs(Dataset(X, np.array([1.0, 2.0])))
    assert out.X.dtype == np.float64
    assert out.X.toarray().tolist() == [[1.0, 0.0, 0.0], [-0.5, 0.0, 1.0]]
    empty = scale_max_abs(Dataset(sp.csr_matrix((2, 3)), np.array([1.0, 2.0])))
    assert empty.X.nnz == 0 and empty.X.shape == (2, 3)


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
