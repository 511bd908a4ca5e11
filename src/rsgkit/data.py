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
import io
import re
import warnings
from pathlib import Path
from typing import IO, Iterator, Optional, Union

import numpy as np
import scipy.sparse as sp

from .core import _check_bounds
from .problems import Dataset, GFlassoGraph

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


def parse_libsvm(source: Source, dim: Optional[int] = None) -> Dataset:
    """Parse svmlight/libsvm text: one "label idx:val idx:val ..." per line.

    Feature indices are 1-based on disk, strictly increasing within a line
    (duplicates and out-of-order indices are parse errors), 0-based in the
    returned CSR matrix.  The feature count is the largest index seen unless
    ``dim``, an integer >= 1, overrides it (needed when trailing features are
    zero in every record); an index above ``dim`` is refused where it
    stands.  Blank lines are skipped; an empty source yields an empty
    Dataset (problem builders reject those at use time).
    """
    if dim is not None:
        _check_bounds("parse_libsvm", "int [1, inf)", dim=dim)
    labels: list[float] = []
    indptr: list[int] = [0]
    indices: list[int] = []
    values: list[float] = []
    max_index = 0
    for where, fields in _records(source):
        labels.append(_number(float, "label", fields[0], where, 0))
        prev = 0
        for k in range(1, len(fields)):
            idx_s, sep, val_s = fields[k].partition(":")
            if not sep:
                raise _refusal(f"expected idx:value, got {fields[k]!r}", where, k)
            idx = _number(int, "index", idx_s, where, k)
            if idx < 1:
                raise _refusal(f"index {idx} must be >= 1", where, k)
            if idx == prev:
                raise _refusal(f"duplicate index {idx}", where, k)
            if idx < prev:
                raise _refusal(f"index {idx} out of order (previous was {prev})", where, k)
            if dim is not None and idx > dim:
                message = f"feature index {idx} exceeds the declared dimension {dim}"
                raise _refusal(message, where, k)
            values.append(_number(float, "value", val_s, where, k, len(idx_s) + 1))
            indices.append(idx - 1)
            prev = idx
        if prev > max_index:
            max_index = prev
        indptr.append(len(indices))
    X = sp.csr_matrix(
        (np.array(values), np.array(indices, dtype=int), np.array(indptr, dtype=int)),
        shape=(len(labels), max_index if dim is None else dim),
    )
    return Dataset(X, np.array(labels))


def dump_libsvm(data: Dataset) -> str:
    """Serialize a Dataset to canonical svmlight text (1-based indices,
    shortest round-trip float formatting).  parse_libsvm(dump_libsvm(ds),
    dim=ds.d) reproduces ds exactly."""
    X = data.X.tocsr()
    out = io.StringIO()
    for i in range(data.n):
        out.write(repr(float(data.y[i])))
        lo, hi = X.indptr[i], X.indptr[i + 1]
        for k in range(lo, hi):
            out.write(f" {X.indices[k] + 1}:{float(X.data[k])!r}")
        out.write("\n")
    return out.getvalue()


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
    are identically zero are left alone)."""
    X = data.X.tocsc(copy=True)
    maxes = np.zeros(data.d)
    if X.nnz:
        m = abs(X).max(axis=0).toarray().ravel()
        maxes[: m.size] = m
    scale = np.where(maxes > 0.0, maxes, 1.0)
    X = X.multiply(sp.csr_matrix(1.0 / scale)).tocsr()
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
    return Dataset(sp.csr_matrix(X), y, planted)


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
    return Dataset(sp.csr_matrix(X), y, planted if np.isfinite(planted).all() else None)
