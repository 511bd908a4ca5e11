"""Problem zoo: non-smooth convex instances with declared subgradient-norm
bounds, minimal-norm subgradient selections at kinks, and (where the class
has one) a declared error-bound exponent.

All builders return :class:`rsgkit.core.ProblemInstance`; objective/subgrad
closures take dense vectors.  ``Dataset.X`` is scipy CSR; the linear-model
builders lay it out once (the fused-difference matrix too): dense when its
stored entries plus ``_CSR_CALL_NNZ`` reach ``_DENSE_MIN_DENSITY`` of its
entries, otherwise CSR with a CSR transpose built once.  So a matrix of up to
``_CSR_CALL_NNZ / _DENSE_MIN_DENSITY`` = 20 000 entries is dense at any
density, and a large one is dense from density 0.4 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .core import (
    Array,
    Oracle,
    ProblemInstance,
    _check_bounds,
    _qnorm,
    _row_dots,
    project_box,
    project_l1_ball,
    project_l2_ball,
)

__all__ = [
    "Dataset",
    "GFlassoGraph",
    "SetFunction",
    "robust_regression",
    "piecewise_linear_erm",
    "gflasso_svm",
    "lovasz_problem",
    "graph_from_correlation",
    "cut_function",
    "enumerate_table",
    "miniature_zoo",
]

_LOSSES = ("hinge", "absolute", "eps_insensitive")
_REGS = ("none", "l1", "linf", "l1_ball", "linf_ball")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n x d, CSR), targets, and an optional planted weight
    vector from the synthetic generators (None for file-backed data).

    n = 0 is a legal container state (an empty file parses); every problem
    builder rejects it.
    """

    X: sp.csr_matrix
    y: np.ndarray
    planted: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"Dataset: X has {self.X.shape[0]} rows but y has {self.y.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _dense_csr(X: np.ndarray) -> sp.csr_matrix:
    """``sp.csr_matrix(X)`` of a dense 2-D float array, built directly: the
    entries X != 0 are stored (nan too, -0.0 not) in row order, with the
    same arrays, dtypes and flags as scipy's own conversion."""
    n, d = X.shape
    data, indices, indptr = X.flatten(), np.tile(np.arange(d), n), d * np.arange(n + 1)
    if np.count_nonzero(data) < data.size:  # drop the zeros
        stored = data != 0
        data, indices = data[stored], indices[stored]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(stored.reshape(n, d).sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr), shape=(n, d))  # scipy picks the index dtype


def _require_rows(data: Dataset, who: str) -> None:
    if data.n < 1:
        raise ValueError(f"{who}: dataset has no rows")
    if data.d < 1:
        raise ValueError(f"{who}: dataset has no features")


def _data_bound(G: float, data: Dataset, who: str) -> float:
    """The builder's bound G, refused with its cause if all-zero features make it 0."""
    if not G > 0.0 and data.X.count_nonzero() == 0:
        raise ValueError(f"{who}: every feature value is zero, so the objective is constant")
    return G


def _require_binary_labels(data: Dataset, who: str) -> None:
    y = data.y
    if not ((y == 1.0) | (y == -1.0)).all():
        raise ValueError(f"{who}: labels must be in {{-1, +1}}, got {np.unique(y)[:8]}")


# X w plus X^T v on one BLAS thread costs about c_d0 + c_d * rows * cols dense
# and c_s0 + c_s * nnz in CSR, so dense wins when
#     nnz + (c_s0 - c_d0) / c_s >= (c_d / c_s) * rows * cols.
# _DENSE_MIN_DENSITY is c_d / c_s: CSR with a prebuilt transpose beats dense
# below it at 2000 x 500.  _CSR_CALL_NNZ is scipy's fixed per-call cost counted
# in stored entries, (c_s0 - c_d0) / c_s: 6 600 to 8 800 measured
# (BENCH_small_operands.json), so small matrices such as the 30 x 20 fused
# C8 F go dense at any density while a 400 x 60 file at density 0.02 stays CSR.
# The term is added to nnz, not scaled by the density, so patching
# _DENSE_MIN_DENSITY to 0 or inf still forces either layout.
_DENSE_MIN_DENSITY = 0.4
_CSR_CALL_NNZ = 8000


def _laid_out(M: sp.spmatrix) -> tuple:
    """M and its transpose in the oracle layout, built once: at or above the
    crossover, views of one dense buffer holding M in Fortran order (so both
    products stream contiguous memory); below it, CSR and a CSR transpose."""
    M = M.tocsr()
    if M.nnz + _CSR_CALL_NNZ >= _DENSE_MIN_DENSITY * M.shape[0] * M.shape[1]:
        A = np.asfortranarray(M.toarray())
        return A, A.T
    return M, M.T.tocsr()


def _row_norms(A: Array | sp.csr_matrix, q: float) -> Array:
    """q-norm of every row of a laid-out matrix (q >= 1 or inf).  A row
    whose sum of powers overflows is recomputed by ``core._qnorm``, with its
    max factored out; a row with a non-finite entry stays non-finite."""
    a = abs(A)
    if math.isinf(q):
        m = a.max(axis=1)
        return m.toarray().ravel() if sp.issparse(a) else m
    with np.errstate(over="ignore"):
        s = a.power(q).sum(axis=1) if sp.issparse(a) else (a**q).sum(axis=1)
    norms = np.asarray(s).ravel() ** (1.0 / q)
    for i in np.nonzero(~np.isfinite(norms))[0]:
        norms[i] = _qnorm(a.getrow(i).data if sp.issparse(a) else a[i], q)
    return norms


def _edge_columns(edges: tuple, dim: int) -> Optional[tuple[Array, Array, Array]]:
    """The endpoints i, j and weights s of edges as three arrays, when every
    edge is a triple with integers 0 <= i < j < dim and a finite s > 0;
    None when one is not, or a conversion raises."""
    if not edges:
        return (), (), ()
    try:
        i, j, s = map(np.asarray, zip(*edges, strict=True))
        valid = (
            i.shape == j.shape == s.shape == (len(edges),)
            and i.dtype.kind in "biu"
            and j.dtype.kind in "biu"
            and s.dtype.kind in "biuf"
            and ((0 <= i) & (i < j) & (j < dim)).all()
            and ((s > 0) & (s < math.inf)).all()
        )
    except (TypeError, ValueError, OverflowError):
        return None
    return (i, j, s) if valid else None


def _fused_matrix(i, j, s, dim: int) -> sp.csr_matrix:
    """F with row k holding s_k at column i_k and -s_k at column j_k."""
    m = len(s)
    indices = np.empty(2 * m, dtype=np.int64)
    indices[0::2], indices[1::2] = i, j
    data = np.empty(2 * m)
    data[0::2] = s
    data[1::2] = -data[0::2]
    return sp.csr_matrix((data, indices, 2 * np.arange(m + 1)), shape=(m, dim))


@dataclass(frozen=True)
class GFlassoGraph:
    """Weighted feature graph: edges (i, j, s) with 0-based integer
    endpoints i < j and finite weights s > 0 (a non-integer endpoint is
    refused, not truncated).

    The fused-difference matrix F has one row per edge with entries +s at i
    and -s at j, so the penalty sum|F w| charges s * |w_i - w_j| per edge.
    """

    dim: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        _check_bounds("GFlassoGraph", "int [1, inf)", dim=self.dim)
        columns = _edge_columns(self.edges, self.dim)
        if columns is None:
            self._check_edges()
            columns = tuple(zip(*self.edges))
        object.__setattr__(self, "_F", _fused_matrix(*columns, self.dim))

    def _check_edges(self) -> None:
        """Raise the first refusal of the edges, checked one at a time:
        every edge's endpoints, then every weight."""
        for k, (i, j, s) in enumerate(self.edges):
            for v in (i, j):
                _check_bounds("GFlassoGraph", "int [-inf, inf]", **{f"edge {k} endpoint": v})
            if not (0 <= i < j < self.dim):
                raise ValueError(
                    f"GFlassoGraph: edge {k} has endpoints ({i}, {j}) outside "
                    f"0 <= i < j < {self.dim}"
                )
        weights = {f"edge {k} weight": s for k, (_, _, s) in enumerate(self.edges)}
        _check_bounds("GFlassoGraph", "(0, inf)", **weights)

    @property
    def F(self) -> sp.csr_matrix:
        return self._F

    @property
    def total_weight(self) -> float:
        return float(sum(s for _, _, s in self.edges))


@dataclass(frozen=True)
class SetFunction:
    """A set function on {0, ..., ground_size-1} evaluated on bitmasks.

    evaluate(0) must be 0.  bulk_evaluate, when given, maps an integer mask
    array to the corresponding values and lets the enumeration paths skip
    the per-mask Python loop.
    """

    ground_size: int
    evaluate: Callable[[int], float]
    bulk_evaluate: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        _check_bounds("SetFunction", "int [1, 24]", ground_size=self.ground_size)
        if self.evaluate(0) != 0.0:
            raise ValueError("SetFunction: evaluate(empty set) must be 0")


def enumerate_table(setfn: SetFunction, budget: int = 1 << 20) -> np.ndarray:
    """Values of setfn on all 2**d masks (index = mask).  Refuses above budget."""
    d = setfn.ground_size
    size = 1 << d
    if size > budget:
        raise ValueError(
            f"enumerate_table: 2**{d} = {size} evaluations exceed the budget {budget}"
        )
    masks = np.arange(size, dtype=np.int64)
    if setfn.bulk_evaluate is not None:
        table = np.asarray(setfn.bulk_evaluate(masks), dtype=float)
        if table.shape != (size,):
            raise ValueError("enumerate_table: bulk_evaluate returned a wrong shape")
        return table
    return np.array([setfn.evaluate(int(m)) for m in masks], dtype=float)


def cut_function(dim: int, edges: list[tuple[int, int, float]] | tuple) -> SetFunction:
    """Weighted graph cut as a set function: F(A) = sum of s over edges with
    exactly one endpoint in A.  Nonnegative weights make it submodular.  The
    edges are checked as given, as :class:`GFlassoGraph` checks them; only
    then are the weights read as floats."""
    edges = [(i, j, float(s)) for i, j, s in GFlassoGraph(dim, tuple(edges)).edges]

    def evaluate(mask: int) -> float:
        total = 0.0
        for i, j, s in edges:
            if ((mask >> i) & 1) != ((mask >> j) & 1):
                total += s
        return total

    def bulk_evaluate(masks: np.ndarray) -> np.ndarray:
        out = np.zeros(masks.shape, dtype=float)
        for i, j, s in edges:
            out += s * (((masks >> i) & 1) != ((masks >> j) & 1))
        return out

    return SetFunction(dim, evaluate, bulk_evaluate)


def _check_submodular(setfn: SetFunction) -> None:
    """Exhaustive diminishing-returns check via the full value table."""
    d = setfn.ground_size
    table = enumerate_table(setfn)
    masks = np.arange(1 << d, dtype=np.int64)
    for i in range(d):
        bi = 1 << i
        for j in range(i + 1, d):
            bj = 1 << j
            base = masks[(masks & (bi | bj)) == 0]
            lhs = table[base | bi] + table[base | bj]
            rhs = table[base | bi | bj] + table[base]
            if np.any(lhs < rhs - 1e-12):
                k = int(base[np.argmax(rhs - lhs)])
                raise ValueError(
                    f"lovasz_problem: set function is not submodular "
                    f"(violated at mask {k} with elements {i}, {j})"
                )


# (value, minimal-norm slope) of each loss in t, the margin y z for hinge and
# the residual z - y otherwise; a is the tube half-width or the power.
# sign(0) = 0, and a margin of exactly 1 and the tube boundary are inactive.
_LOSS_FNS = {
    "hinge": (lambda t, a: np.maximum(0.0, 1.0 - t), lambda t, a: -(t < 1.0).astype(float)),
    "absolute": (lambda t, a: np.abs(t), lambda t, a: np.sign(t)),
    "eps_insensitive": (
        lambda t, a: np.maximum(0.0, np.abs(t) - a),
        lambda t, a: np.sign(t) * (np.abs(t) - a > 0.0).astype(float),
    ),
    "power": (lambda t, a: np.abs(t) ** a, lambda t, a: a * np.abs(t) ** (a - 1.0) * np.sign(t)),
}


# entries of the n x rows score block of one batched product: rows =
# _SCORE_BLOCK // n keeps its memory flat whatever the dataset size.  The grid
# oracles hand values() points x dim blocks of the same size.
_SCORE_BLOCK = 1 << 20


def _blockwise(project: Callable[[Array], Array]):
    """project, which maps a point or each row of an (m, d) block, as its own batch."""
    project.batch = project
    return project


def _linf_sub(u: Array) -> Array:
    """sign(u_j) at the largest |u_j| of u or of each column of u, 0 elsewhere."""
    top = (np.abs(u).argmax(axis=0), *np.indices(u.shape[1:]))  # lowest index wins ties
    s = np.zeros_like(u)
    s[top] = np.sign(u[top])
    return s


# penalties before the factor lam, in u = w (u = F w for fused): (value
# along axis 0, subgradient in u).  sign(0) = 0.
_PENALTIES = {
    "l1": (lambda u: np.abs(u).sum(axis=0), np.sign),
    "linf": (lambda u: np.abs(u).max(axis=0), _linf_sub),
}


def _linear_model(
    layout: tuple, y: Array, loss: str, a: float = 0.0, reg: str = "none", lam: float = 0.0, F=None
) -> Oracle:
    """The one pass of mean_i loss(t_i) + penalty(w), z = X w on a
    :func:`_laid_out` X.  l1: lam * sum|w|, sign(0) = 0; linf: lam * max|w|
    on the largest-magnitude coordinate (lowest index wins ties, 0 at w = 0);
    fused: l1 of F w mapped back through F^T, F laid out like X; any other
    reg adds nothing.  One X w (and one F w) serves both halves.  The kept
    row holds the scores t and u = w (F w for fused); the values of a block
    of such rows are bitwise their 1-d values (a row-wise reduction of a
    C-order block is the 1-d one).  A block call takes _SCORE_BLOCK // n
    points."""
    value, slope = _LOSS_FNS[loss]
    A, AT = layout
    n = y.shape[0]
    margin = loss == "hinge"
    yc = y[:, None]
    pen_f, pen_g = _PENALTIES.get("l1" if reg == "fused" else reg, (None, None))
    Fa, FT = _laid_out(F) if reg == "fused" else (None, None)

    def run(W: Array, want_f: bool, want_g: bool, row=None, kept: bool = False) -> tuple:
        """(f, g) at w, or at each column of W; an output not wanted is None."""
        yy = y if W.ndim == 1 else yc
        if kept:
            t, u = W[:, :n].T, W[:, n:].T
        else:
            Z = A.dot(W)
            u = None if pen_f is None else W if Fa is None else Fa.dot(W)
            if row is None:
                t = yy * Z if margin else Z - yy
            else:  # the scores of w straight into its kept row
                t = np.multiply(y, Z, out=row[:n]) if margin else np.subtract(Z, y, out=row[:n])
                if u is not None:
                    row[n:] = u
        f = value(t, a).sum(axis=0) / n if want_f else None
        s = slope(t, a) if want_g else None
        g = AT.dot(yy * s if margin else s) / n if want_g else None
        if pen_f is not None:
            if want_f:
                f = f + lam * pen_f(u)
            if want_g:
                g = g + lam * (pen_g(u) if FT is None else FT.dot(pen_g(u)))
        return f, g

    width = n + (0 if pen_f is None else A.shape[1] if Fa is None else Fa.shape[0])
    return Oracle(run, width, max(1, _SCORE_BLOCK // n))


def robust_regression(
    data: Dataset,
    p_loss: float,
    region_radius: Optional[float] = None,
    constrain_to_region: bool = False,
    norm_q: float = 2.0,
) -> ProblemInstance:
    """Mean p-th-power absolute residual regression, 1 < p_loss < 2.

    f(w) = mean_i |x_i . w - y_i|**p.  Differentiable (p > 1); gradient
    (p/n) X^T (|r|**(p-1) sign r).  The declared subgradient bound holds on
    the ball ||w||_2 <= region_radius (default 10 * max(1, rms(y))); pass
    constrain_to_region=True to install that ball as the feasible set.
    Declared error-bound exponent: 1/2, valid but loose when the data are
    interpolated (f* = 0): f - f* then grows like dist(w, W*)**p_loss, so
    the local exponent is 1/p_loss (0.667 fitted on the zoo's rr_1d_p15).
    """
    _check_bounds("robust_regression", "(1, 2)", p_loss=p_loss)
    _require_rows(data, "robust_regression")
    y, n = data.y, data.n
    if region_radius is None:
        region_radius = 10.0 * max(1.0, float(np.linalg.norm(y)) / math.sqrt(n))
    _check_bounds("robust_regression", "(0, inf)", region_radius=region_radius)
    layout = _laid_out(data.X)
    rn2 = _row_norms(layout[0], 2.0)
    rnq = rn2 if norm_q == 2.0 else _row_norms(layout[0], norm_q)
    r_bar = rn2 * region_radius + np.abs(y)
    G = float(p_loss / n * np.sum(r_bar ** (p_loss - 1.0) * rnq))
    radius = float(region_radius)
    project = _blockwise(lambda w: project_l2_ball(w, radius)) if constrain_to_region else None
    return ProblemInstance(
        dim=data.d,
        oracle=_linear_model(layout, y, "power", p_loss),
        lipschitz_bound=_data_bound(G, data, "robust_regression"),
        project=project,
        lipschitz_norm_q=norm_q,
        eb_theta=0.5,
        name=f"robust_regression_p{p_loss:g}",
    )


def _erm_bound(A: Array | sp.csr_matrix, reg: str, lam: float, norm_q: float) -> float:
    loss_part = float(_row_norms(A, norm_q).max())
    if reg == "l1":
        return loss_part + lam * (A.shape[1] ** (1.0 / norm_q) if not math.isinf(norm_q) else 1.0)
    return loss_part + (lam if reg == "linf" else 0.0)


def piecewise_linear_erm(
    data: Dataset,
    loss: str = "hinge",
    reg: str = "none",
    lam: float = 0.0,
    radius: float = 1.0,
    eps_ins: float = 0.1,
    norm_q: float = 2.0,
) -> ProblemInstance:
    """Piecewise-linear empirical risk: hinge / absolute / eps-insensitive
    loss, optionally an l1 or l-infinity penalty or ball constraint.

    Subgradients take the minimal-norm element at every kink: 0 at an exact
    hinge margin, sign(r) with sign(0) = 0 for the absolute and
    eps-insensitive losses (the tube boundary counts as inactive), 0 at
    zero weights for the l1 penalty.  The l-infinity penalty puts its whole
    weight on the single largest-magnitude coordinate (lowest index wins
    ties), which is the unique subgradient whenever the max is unique.
    Declared error-bound exponent: 1 (polyhedral).
    """
    if loss not in _LOSSES:
        raise ValueError(f"piecewise_linear_erm: unknown loss {loss!r}")
    if reg not in _REGS:
        raise ValueError(f"piecewise_linear_erm: unknown reg {reg!r}")
    _check_bounds("piecewise_linear_erm", "[0, inf)", lam=lam, eps_ins=eps_ins)
    _check_bounds("piecewise_linear_erm", "(0, inf)", radius=radius)
    _require_rows(data, "piecewise_linear_erm")
    if loss == "hinge":
        _require_binary_labels(data, "piecewise_linear_erm")
    layout = _laid_out(data.X)
    projections = {
        "l1_ball": _blockwise(lambda w: project_l1_ball(w, radius)),
        "linf_ball": _blockwise(lambda w: project_box(w, -radius, radius)),
    }
    return ProblemInstance(
        dim=data.d,
        oracle=_linear_model(layout, data.y, loss, eps_ins, reg, lam),
        lipschitz_bound=_data_bound(
            _erm_bound(layout[0], reg, lam, norm_q), data, "piecewise_linear_erm"
        ),
        project=projections.get(reg),
        lipschitz_norm_q=norm_q,
        eb_theta=1.0,
        name=f"{loss}_{reg}",
    )


def gflasso_svm(
    data: Dataset, graph: GFlassoGraph, lam: float, norm_q: float = 2.0
) -> ProblemInstance:
    """Hinge-loss classifier with a graph-fused l1 penalty.

    f(w) = mean_i max(0, 1 - y_i x_i . w) + lam * sum over edges of
    s * |w_i - w_j|.  At w = 0 every margin is 0 and the penalty vanishes,
    so f(0) = 1.  Unconstrained; declared error-bound exponent 1.
    """
    _check_bounds("gflasso_svm", "[0, inf)", lam=lam)
    _require_rows(data, "gflasso_svm")
    _require_binary_labels(data, "gflasso_svm")
    if graph.dim != data.d:
        raise ValueError(
            f"gflasso_svm: graph is over {graph.dim} features, data has {data.d}"
        )
    layout = _laid_out(data.X)
    fused_G = lam * (2.0 ** (1.0 / norm_q)) * graph.total_weight
    G = float(_row_norms(layout[0], norm_q).max()) + fused_G
    return ProblemInstance(
        dim=data.d,
        oracle=_linear_model(layout, data.y, "hinge", reg="fused", lam=lam, F=graph.F),
        lipschitz_bound=_data_bound(G, data, "gflasso_svm"),
        lipschitz_norm_q=norm_q,
        eb_theta=1.0,
        name=f"gflasso_lam{lam:g}",
    )


def lovasz_problem(
    setfn: SetFunction,
    norm_q: float = 2.0,
    fstar_lower_bound: Optional[float] = None,
) -> ProblemInstance:
    """Convex extension of a submodular set function over the unit box.

    The value at w sorts coordinates descending (ties broken by coordinate
    index), walks the prefix chain of that order, and weights the chain
    increments by w; the increment vector is the returned subgradient.  Its
    box minimum equals the set-function minimum.  Submodularity is verified
    exhaustively for ground sets of up to 12 elements.

    The subgradient bound uses the marginal-range envelope: chain
    increments for element i lie between F(V) - F(V \\ {i}) and F({i}).
    With ``bulk_evaluate`` a block of points walks all its chains with one
    bulk call.
    """
    d = setfn.ground_size
    if d <= 12:
        _check_submodular(setfn)
    evaluate = setfn.evaluate
    full = (1 << d) - 1
    f_full = evaluate(full)
    M = np.array(
        [
            max(abs(evaluate(1 << i)), abs(f_full - evaluate(full ^ (1 << i))))
            for i in range(d)
        ]
    )
    if not M.max() > 0:
        raise ValueError("lovasz_problem: set function is identically zero")
    with np.errstate(over="ignore"):
        G = float(np.sum(M**norm_q) ** (1 / norm_q))
    if not math.isfinite(G) or math.isinf(norm_q):
        G = _qnorm(M, norm_q)  # the sum overflowed, or q = inf, where it reads 1
    if fstar_lower_bound is None:
        fstar_lower_bound = min(0.0, -float(np.sum(M)))

    def _chain(w: Array) -> Array:
        order = np.argsort(-w, kind="stable")
        s = np.empty(d)
        mask = 0
        prev = 0.0
        for idx in order:
            mask |= 1 << int(idx)
            cur = evaluate(mask)
            s[idx] = cur - prev
            prev = cur
        return s

    bulk = setfn.bulk_evaluate

    def chains(W: Array) -> Array:
        """_chain of each row (with bulk_evaluate, all prefix masks in one call)."""
        if bulk is None:
            return np.array([_chain(w) for w in W]).reshape(W.shape)
        order = np.argsort(-W, axis=1, kind="stable")
        masks = np.bitwise_or.accumulate(np.left_shift(1, order), axis=1)
        cur = np.asarray(bulk(masks.ravel()), dtype=float).reshape(masks.shape)
        S = np.empty_like(W)
        np.put_along_axis(S, order, np.diff(cur, axis=1, prepend=0.0), axis=1)
        return S

    def run(W: Array, want_f: bool, want_g: bool) -> tuple:
        """(w . chain(w), chain(w)), or both at each column of W."""
        if W.ndim == 1:
            s = _chain(W)
            return (np.dot(W, s) if want_f else None), s
        R = np.ascontiguousarray(W.T)
        S = chains(R)
        return (_row_dots(R, S) if want_f else None), S.T

    return ProblemInstance(
        dim=d,
        oracle=Oracle(run),
        lipschitz_bound=G,
        project=_blockwise(lambda w: project_box(w, 0.0, 1.0)),
        lipschitz_norm_q=norm_q,
        fstar_lower_bound=float(fstar_lower_bound),
        eb_theta=1.0,
        name=f"lovasz_d{d}",
    )


def graph_from_correlation(data: Dataset, cutoff: float) -> GFlassoGraph:
    """Unit-weight feature graph joining column pairs whose empirical
    correlation magnitude reaches the cutoff.  Constant columns never
    join.  (Plumbing for experiments on data without a given graph.)
    """
    _check_bounds("graph_from_correlation", "(0, 1]", cutoff=cutoff)
    _require_rows(data, "graph_from_correlation")
    Xd = np.asarray(data.X.todense(), dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(Xd, rowvar=False)
    corr = np.atleast_2d(corr)
    edges = []
    for i in range(data.d):
        for j in range(i + 1, data.d):
            c = corr[i, j]
            if np.isfinite(c) and abs(c) >= cutoff:
                edges.append((i, j, 1.0))
    return GFlassoGraph(data.d, tuple(edges))


def _dense_dataset(X_rows: list[list[float]], y: list[float]) -> Dataset:
    return Dataset(_dense_csr(np.array(X_rows, dtype=float)), np.array(y, dtype=float))


def miniature_zoo() -> dict[str, ProblemInstance]:
    """Small fully-determined instances used by the verification suites.

    known_fstar values are frozen from independent computations: closed
    forms for the one-dimensional pieces (weighted median of {1, 2, 10}
    gives 2, so the mean absolute loss there is (1 + 0 + 8)/3 = 3; the
    eps-insensitive pair {0, 4} with a unit tube is flat at 1 on [1, 3])
    and exact interpolation/separation for the planted instances.
    """
    zoo: dict[str, ProblemInstance] = {}

    abs_1d = piecewise_linear_erm(_dense_dataset([[1.0]], [0.0]), loss="absolute")
    zoo["abs_1d"] = replace(abs_1d, known_fstar=0.0, name="abs_1d")

    med = piecewise_linear_erm(
        _dense_dataset([[1.0], [1.0], [1.0]], [1.0, 2.0, 10.0]), loss="absolute"
    )
    zoo["abs_median_1d"] = replace(med, known_fstar=3.0, name="abs_median_1d")

    def square(W: Array, want_f: bool, want_g: bool) -> tuple:
        return (W[0] * W[0] if want_f else None), (2.0 * np.asarray(W, float) if want_g else None)

    def l1(W: Array, want_f: bool, want_g: bool) -> tuple:
        f = np.abs(W).sum(axis=0) if want_f else None
        return f, (np.sign(np.asarray(W, float)) if want_g else None)

    zoo["square_1d"] = ProblemInstance(
        dim=1,
        oracle=Oracle(square),
        lipschitz_bound=8.0,  # valid while probes stay inside |w| <= 4
        known_fstar=0.0,
        eb_theta=0.5,
        name="square_1d",
    )

    zoo["l1_2d"] = ProblemInstance(
        dim=2,
        oracle=Oracle(l1),
        lipschitz_bound=float(math.sqrt(2.0)),
        known_fstar=0.0,
        eb_theta=1.0,
        name="l1_2d",
    )

    sep = _dense_dataset(
        [
            [2.0, 0.5],
            [1.5, -0.2],
            [2.2, 1.0],
            [-2.0, 0.3],
            [-1.8, -0.5],
            [-2.5, 0.1],
        ],
        [1.0, 1.0, 1.0, -1.0, -1.0, -1.0],
    )
    hinge = piecewise_linear_erm(sep, loss="hinge")  # w = (1, 0) separates with margin
    zoo["hinge_sep_2d"] = replace(hinge, known_fstar=0.0, name="hinge_sep_2d")

    rr_data = Dataset(
        _dense_csr(np.array([[1.0], [2.0], [-1.0]])),
        np.array([1.5, 3.0, -1.5]),
        planted=np.array([1.5]),
    )
    rr = robust_regression(rr_data, p_loss=1.5, region_radius=8.0)
    zoo["rr_1d_p15"] = replace(rr, known_fstar=0.0, name="rr_1d_p15")

    tube = piecewise_linear_erm(
        _dense_dataset([[1.0], [1.0]], [0.0, 4.0]), loss="eps_insensitive", eps_ins=1.0
    )
    zoo["eps_ins_1d"] = replace(tube, known_fstar=1.0, name="eps_ins_1d")

    ball = piecewise_linear_erm(sep, loss="hinge", reg="l1_ball", radius=0.8)
    zoo["hinge_l1ball_2d"] = replace(ball, name="hinge_l1ball_2d")

    path = cut_function(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    zoo["lovasz_path4"] = replace(
        lovasz_problem(path, fstar_lower_bound=0.0), known_fstar=0.0, name="lovasz_path4"
    )

    return zoo
