"""Data plumbing: svmlight/libsvm parsing and serialization, label
binarization, edge-list loading, feature scaling, and the seeded synthetic
generators.

On-disk indices are 1-based (both feature indices and edge endpoints);
everything in memory is 0-based.  Both text formats go through one reader:
every number in them must be finite, and every refusal is a ParseError
carrying its line and column.
"""

from __future__ import annotations

import contextlib
import re
import warnings
from itertools import chain, repeat
from operator import contains, itemgetter
from pathlib import Path
from typing import IO, Iterator, Optional, Union

import numpy as np
import scipy.sparse as sp

from .core import _check_bounds
from .problems import Dataset, GFlassoGraph, _dense_csr

__all__ = [
    "ParseError",
    "parse_libsvm",
    "dump_libsvm",
    "binarize_labels",
    "load_edge_list",
    "scale_max_abs",
    "synth_regression",
    "synth_classification",
]

Source = Union[str, Path, IO[str]]

# Redraw rounds synth_classification allows before it gives up on a margin.
_MAX_REDRAW_ROUNDS = 100_000

_TOKEN = re.compile(r"\S+")

# Stored entries parse_libsvm converts per block: its tokens are held one
# block at a time.
_PARSE_BLOCK = 2**14

# The largest feature index parse_libsvm accepts: 0-based indices are int64.
_MAX_INDEX = 2**63 - 1


class ParseError(ValueError):
    """Malformed input line; carries 1-based line and column positions."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _records(source: Source) -> Iterator[tuple[tuple[int, str], list[str]]]:
    """Each non-blank line of a path or text stream as ((line number, line),
    its whitespace-separated fields); the pair locates a refusal."""
    path = isinstance(source, (str, Path))
    with open(source, encoding="utf-8") if path else contextlib.nullcontext(source) as lines:
        for lineno, line in enumerate(lines, start=1):
            fields = line.split()
            if fields:
                yield (lineno, line), fields


def _refusal(message: str, where: tuple[int, str], field: int, offset: int = 0) -> ParseError:
    """A ParseError at 0-based field number ``field`` of a line, ``offset``
    characters into the field.  Columns are found only here, on refusal."""
    lineno, line = where
    starts = [m.start() for m in _TOKEN.finditer(line)]
    return ParseError(message, lineno, starts[field] + offset + 1)


def _number(
    convert: type, what: str, text: str, where: tuple[int, str], field: int, offset: int = 0
) -> float:
    """convert(text) for convert int or float, refused at its position unless
    it is a finite number."""
    try:
        value = convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise _refusal(f"{what} {text!r} is not {kind}", where, field, offset) from None
    if value - value:  # nan for nan and +-inf, 0 for every finite number
        raise _refusal(f"{what} {text!r} is not a finite number", where, field, offset)
    return value


def _blocks(records: Iterator[tuple], limit: int) -> Iterator[list[tuple]]:
    """Consecutive records in lists of at most ``limit`` stored entries (a
    longer line is a list by itself)."""
    block: list[tuple] = []
    entries = 0
    for record in records:
        size = len(record[1]) - 1
        if block and entries + size > limit:
            yield block
            block, entries = [], 0
        block.append(record)
        entries += size
    if block:
        yield block


def _bulk(rows: list[list[str]], dim: Optional[int]) -> Optional[tuple[np.ndarray, ...]]:
    """The labels, 1-based indices, values and entries per line of a block
    of field lists, each column converted by one map, or None when any
    conversion or check fails."""
    fields = list(chain.from_iterable(map(itemgetter(slice(1, None)), rows)))
    n = len(fields)
    counts = np.fromiter(map(len, rows), dtype=int, count=len(rows)) - 1
    # one colon in each field: every field has one and the block has n
    text = " ".join(fields)
    if text.count(":") != n or not all(map(contains, fields, repeat(":"))):
        return None
    parts = text.replace(":", " ").split(" ") if n else []
    try:
        labels = np.fromiter(map(float, map(itemgetter(0), rows)), dtype=float, count=len(rows))
        idx = np.fromiter(map(int, parts[0::2]), dtype=np.int64, count=n)
        values = np.fromiter(map(float, parts[1::2]), dtype=float, count=n)
    except (ValueError, OverflowError):
        return None
    # each index above the one before it in its line, the first above 0
    prev = np.empty_like(idx)
    prev[1:] = idx[:-1]
    ends = np.cumsum(counts)
    prev[(ends - counts)[counts > 0]] = 0
    if not (
        np.isfinite(labels).all()
        and np.isfinite(values).all()
        and (idx > prev).all()
        and (dim is None or not n or idx.max() <= dim)
    ):
        return None
    return labels, idx, values, counts


def _refuse(block: list[tuple], dim: Optional[int]) -> None:
    """Raise the first refusal of a block that failed a bulk conversion or
    check, walking it one field at a time."""
    for where, fields in block:
        _number(float, "label", fields[0], where, 0)
        prev = 0
        for k in range(1, len(fields)):
            idx_s, sep, val_s = fields[k].partition(":")
            if not sep:
                raise _refusal(f"expected idx:value, got {fields[k]!r}", where, k)
            idx = _number(int, "index", idx_s, where, k)
            if idx < 1:
                raise _refusal(f"index {idx} must be >= 1", where, k)
            if idx > _MAX_INDEX:
                raise _refusal(f"index {idx} exceeds the largest index {_MAX_INDEX}", where, k)
            if idx == prev:
                raise _refusal(f"duplicate index {idx}", where, k)
            if idx < prev:
                raise _refusal(f"index {idx} out of order (previous was {prev})", where, k)
            if dim is not None and idx > dim:
                message = f"feature index {idx} exceeds the declared dimension {dim}"
                raise _refusal(message, where, k)
            _number(float, "value", val_s, where, k, len(idx_s) + 1)
            prev = idx
    raise RuntimeError("parse_libsvm: a block failed the bulk checks but no field is refused")


def parse_libsvm(source: Source, dim: Optional[int] = None) -> Dataset:
    """Parse svmlight/libsvm text: one "label idx:val idx:val ..." per line.

    Feature indices are 1-based on disk, strictly increasing within a line
    (duplicates and out-of-order indices are parse errors), at most
    2**63 - 1, and 0-based in the returned CSR matrix.  The feature count is
    the largest index seen unless ``dim``, an integer >= 1, overrides it
    (needed when trailing features are zero in every record); an index above
    ``dim`` is refused where it stands.  Blank lines are skipped; an empty
    source yields an empty Dataset (problem builders reject those at use
    time).

    The source is read once, in blocks of at most 2**14 stored entries, and
    each block's columns are converted and checked in bulk; a block that
    fails is walked one field at a time for its first refusal.
    """
    if dim is not None:
        _check_bounds("parse_libsvm", "int [1, inf)", dim=dim)
    labels = [np.empty(0)]
    indices = [np.empty(0, dtype=int)]
    values = [np.empty(0)]
    counts = [np.empty(0, dtype=int)]
    for block in _blocks(_records(source), _PARSE_BLOCK):
        columns = _bulk([fields for _, fields in block], dim)
        if columns is None:
            _refuse(block, dim)
        for out, column in zip((labels, indices, values, counts), columns):
            out.append(column)
    idx = np.concatenate(indices)
    max_index = int(idx.max(initial=0))
    idx -= 1
    indptr = np.zeros(sum(map(len, counts)) + 1, dtype=int)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    X = sp.csr_matrix(
        (np.concatenate(values), idx, indptr),
        shape=(indptr.size - 1, max_index if dim is None else dim),
    )
    return Dataset(X, np.concatenate(labels))


def _canonical(X: sp.spmatrix) -> sp.csr_matrix:
    """A CSR copy of X with sorted indices and each duplicate entry summed,
    in stored order."""
    X = X.tocsr(copy=True)
    if not X.has_canonical_format:
        X = X.tocsc().tocsr()  # two stable transposes keep duplicates in order
        X.sum_duplicates()
    return X


def dump_libsvm(data: Dataset) -> str:
    """Serialize a Dataset to canonical svmlight text (1-based indices,
    sorted, duplicates summed; shortest round-trip float formatting).
    parse_libsvm(dump_libsvm(ds), dim=ds.d) reproduces ds exactly."""
    X = _canonical(data.X)
    cells = list(map(" {}:{!r}".format, (X.indices + 1).tolist(), map(float, X.data.tolist())))
    ptr = X.indptr.tolist()
    labels = map(repr, map(float, data.y.tolist()))
    return "".join(
        f"{label}{''.join(cells[lo:hi])}\n" for label, lo, hi in zip(labels, ptr, ptr[1:])
    )


def binarize_labels(data: Dataset, positive_class: float) -> Dataset:
    """Map labels equal to positive_class to +1 and all others to -1.
    Warns when the positive class is absent."""
    pos = data.y == positive_class
    if not np.any(pos):
        warnings.warn(
            f"binarize_labels: no label equals {positive_class}; all labels map to -1",
            stacklevel=2,
        )
    y = np.where(pos, 1.0, -1.0)
    return Dataset(data.X, y, data.planted)


def load_edge_list(source: Source, dim: int) -> GFlassoGraph:
    """Parse a weighted edge list: one "i j [s]" per line, endpoints 1-based.

    Missing weights default to 1; weights must be positive.  Equal or
    out-of-range endpoints are parse errors; swapped endpoints (i > j) are
    normalized, since |w_i - w_j| is symmetric.
    """
    _check_bounds("load_edge_list", "int [1, inf)", dim=dim)
    edges: list[tuple[int, int, float]] = []
    for where, fields in _records(source):
        if len(fields) not in (2, 3):
            raise _refusal(f"expected 'i j' or 'i j s', got {len(fields)} fields", where, 0)
        i, j = (_number(int, "endpoint", fields[k], where, k) for k in (0, 1))
        if i == j:
            raise _refusal(f"self-loop at node {i}", where, 0)
        for k, v in enumerate((i, j)):
            if not 1 <= v <= dim:
                raise _refusal(f"endpoint {v} outside 1..{dim}", where, k)
        s = _number(float, "weight", fields[2], where, 2) if len(fields) == 3 else 1.0
        if s <= 0.0:
            raise _refusal(f"weight {s} must be > 0", where, 2)
        edges.append((min(i, j) - 1, max(i, j) - 1, s))
    return GFlassoGraph(dim, tuple(edges))


def scale_max_abs(data: Dataset) -> Dataset:
    """Scale each feature column by its maximum absolute value (columns that
    are identically zero are left alone).  The result is canonical CSR:
    duplicates summed, zeros dropped."""
    X = _canonical(data.X)
    maxes = np.zeros(data.d)
    np.maximum.at(maxes, X.indices, np.abs(X.data))
    scale = np.where(maxes > 0.0, maxes, 1.0)
    X.data = X.data * (1.0 / scale)[X.indices]
    X.eliminate_zeros()
    return Dataset(X, data.y, data.planted)


def synth_regression(n: int, d: int, noise: float, seed: int) -> Dataset:
    """Standard-normal design with planted weights: y = X w* + noise * z.

    Bitwise reproducible for a given seed (PCG64 via numpy default_rng).
    noise = 0 makes the planted vector interpolate exactly, so the mean
    p-th-power residual objective has optimum value 0 there.
    """
    _check_bounds("synth_regression", "int [1, inf)", n=n, d=d)
    _check_bounds("synth_regression", "[0, inf)", noise=noise)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    planted = rng.standard_normal(d)
    y = X @ planted
    if noise > 0.0:
        y = y + noise * rng.standard_normal(n)
    return Dataset(_dense_csr(X), y, planted)


def synth_classification(n: int, d: int, margin: float, seed: int) -> Dataset:
    """Linearly separable labels from a planted unit direction.

    Rows with |x . u| < margin are redrawn until none remain, so
    y_i (x_i . u) >= margin for every row; the stored planted vector is
    u / margin, which attains zero hinge loss, or None where a subnormal
    margin makes u / margin overflow.  margin = 0 disables the enforcement
    (ties label as +1).  Bitwise reproducible per seed.

    Each score is standard normal, so a large margin clears almost no draw
    (about 1 in 10**4 at margin 3.9, 1 in 4 * 10**11 at margin 7): after
    _MAX_REDRAW_ROUNDS rounds with rows still inside the margin, this
    raises ValueError instead of looping on.
    """
    _check_bounds("synth_classification", "int [1, inf)", n=n, d=d)
    _check_bounds("synth_classification", "[0, inf)", margin=margin)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u = u / np.linalg.norm(u)
    X = rng.standard_normal((n, d))
    rounds = 0
    while margin > 0.0:
        scores = X @ u
        bad = np.abs(scores) < margin
        if not np.any(bad):
            break
        if rounds == _MAX_REDRAW_ROUNDS:
            raise ValueError(
                f"synth_classification: {int(bad.sum())} rows still lie within margin "
                f"{margin} after {rounds} redraw rounds; use a smaller margin"
            )
        X[bad] = rng.standard_normal((int(bad.sum()), d))
        rounds += 1
    scores = X @ u
    y = np.where(scores >= 0.0, 1.0, -1.0)
    with np.errstate(over="ignore"):
        planted = u / margin if margin > 0.0 else u.copy()
    return Dataset(_dense_csr(X), y, planted if np.isfinite(planted).all() else None)
