"""Numerical primitives shared by the solvers and the problem zoo.

p-norms and their conjugates, the projections used by the constrained
problems, and the ``ProblemInstance`` contract every solver consumes.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import KW_ONLY, dataclass
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

__all__ = [
    "Array",
    "pnorm",
    "conjugate_exponent",
    "project_l1_ball",
    "project_l2_ball",
    "project_box",
    "PNormSpace",
    "ErrorBoundParams",
    "Oracle",
    "ProblemInstance",
]


_add = np.add.reduce
_max = np.maximum.reduce


def _qnorm(a: Array, q: float) -> float:
    """||v||_q from a = |v| (flat, non-empty), q >= 1 with math.inf meaning max.

    The one q-norm kernel behind :func:`pnorm`, the p-norm prox and the dual
    averaging weights.  It checks nothing: a non-finite entry gives a
    non-finite result, which the callers tell apart from overflow.
    """
    if q == 2.0:
        s = np.vdot(a, a)  # np.dot's kernel, without its floating-point warnings
        if 0.0 < s < math.inf:
            return math.sqrt(s)
    elif q == 1.0:
        return float(_add(a))
    amax = float(_max(a))
    if q == math.inf or not 0.0 < amax < math.inf:
        return amax
    # factor out the max so a**q cannot overflow (nor, at q = 2, underflow to
    # 0); the scaled entries lie in [0, 1] (underflow of tiny ratios only sharpens zero)
    return amax * float(_add((a / amax) ** q) ** (1.0 / q))


def _row_dots(A: Array, B: Array) -> Array:
    """np.dot of each row of A with the same row of B: the stacked matmul
    runs the 1-d dot kernel per row, so each entry is bitwise ``A[i] @ B[i]``."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


@functools.cache
def _interval(bounds: str) -> tuple:
    """(integers only?, interval, lo, hi) of a bounds string, a literal in the code."""
    count, bounds = bounds.startswith("int "), bounds.removeprefix("int ")
    return (count, bounds, *(float(x) for x in bounds[1:-1].split(",")))


def _check_bounds(who: str, bounds: Optional[str], **values) -> None:
    """Raise ValueError naming the first of values outside the interval
    bounds, such as "(0, inf)" (> 0 and finite) or "[0, inf]" (inf
    admitted); nan lies outside every interval, and an "int " prefix also
    requires an integer.  A value that is not a real number (a str, None)
    is refused before any comparison.  The one wording of a range violation,
    for config keys (who = "") and library arguments ("<who>: <name> must
    ...") alike."""
    if bounds is None:
        return
    count, bounds, lo, hi = _interval(bounds)
    for name, value in values.items():
        real = isinstance(value, numbers.Real)
        integral = real and (not count or isinstance(value, (int, np.integer)))
        above = integral and (value >= lo if bounds[0] == "[" else value > lo)
        if above and (value <= hi if bounds[-1] == "]" else value < hi):
            continue
        key = f"{who}: {name}" if who else name
        if not real:
            raise ValueError(f"{key} must be a number, got {value!r}")
        if not integral:
            raise ValueError(f"{key} must be an integer, got {value}")
        if math.isinf(hi):
            finite = "finite and " if isinstance(value, float) and bounds[-1] == ")" else ""
            rel = ">=" if bounds[0] == "[" else ">"
            raise ValueError(f"{key} must be {finite}{rel} {lo:g}, got {value}")
        raise ValueError(f"{key} must lie in {bounds}, got {value}")


# The schedule cap: at most 2**62 iterations, so every counter stays a machine
# integer (at about 9 us per iteration that is 10**6 years), and every power
# within float range.  Exact counts are compared as integers, logs less 1e-9
# for the rounding of the logs.
_MAX_ITERS = 2**62
_LOG_CAPS = (62.0 * math.log(2.0) - 1e-9, math.log(sys.float_info.max) - 1e-9)


def _check_schedule(
    who: str, key: str, log_iters: float = 0.0, log_power: float = 0.0, iters: int = 1
) -> None:
    """Raise ValueError naming key when a schedule passes the cap: iters is
    the exact count of its planned iterations, log_iters the log of a bound
    on them, log_power that of the largest power it takes, such as
    alpha**stages, or minus that of the least."""
    if iters > _MAX_ITERS or log_iters > _LOG_CAPS[0] or log_power > _LOG_CAPS[1]:
        cap = "at most 2**62 iterations, alpha**stages and every power within float range"
        raise ValueError(f"{who}: {key} put the schedule past its cap ({cap})")


def _check_shape(who: str, name: str, w, dim: int) -> None:
    """Raise ValueError naming who and name unless w is a point of shape (dim,)."""
    if np.shape(w) != (dim,):
        raise ValueError(f"{who}: {name} must have shape ({dim},), got {np.shape(w)}")


def _check_finite(w: Array, r: float) -> float:
    """r, unless it is non-finite because w has a non-finite entry: a
    non-finite entry always makes the norm non-finite, so only a non-finite
    result pays for the scan that tells it apart from overflow."""
    if not math.isfinite(r) and not np.all(np.isfinite(w)):
        raise ValueError("pnorm: input has a non-finite entry")
    return r


def pnorm(w: Array, p: float) -> float:
    """(sum_i |w_i|**p)**(1/p) for p >= 1, with math.inf meaning max|w_i|.

    Raises ValueError for p < 1 or non-finite entries; finite entries whose
    norm overflows give inf.
    """
    w = np.asarray(w, dtype=float)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"pnorm: order must be >= 1, got {p}")
    if w.size == 0:
        return 0.0
    return _check_finite(w, _qnorm(np.abs(w).ravel(), p))


def conjugate_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1.  Requires p > 1 (q = p/(p-1))."""
    _check_bounds("conjugate_exponent", "(1, inf]", p=p)
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


# Up to this many coordinates the l1-ball pivot runs on Python floats, where
# numpy's per-call cost dominates.  Best of 25 on 2 cores, one BLAS thread
# (BENCH_small_operands.json): the list pivot costs 7.7 us at d = 2 plus about
# 0.2 us per coordinate, the numpy pivot about 14.5 us flat, so they tie near
# d = 40; at d = 1 000 the list pivot takes 273 us against 36 us.
_SCALAR_PIVOT_MAX_DIM = 32


def _l1_threshold(b: Array, radius: float) -> float:
    """theta with sum_i (b_i - theta)+ == radius: the sort-based pivot of
    Duchi et al. (ICML 2008).  Sort b descending and keep the last k with
    cumsum_k - k b_(k) < radius (the same rule as b_(k) > (cumsum_k -
    radius)/k, written so the subtraction cancels exactly at k = 1); then
    theta = (cumsum_k - radius)/k.

    Small inputs take the list form, which does the same IEEE operations in
    the same order (``np.cumsum`` is a running sum), so theta is bitwise the
    same on either side of the cut.
    """
    if b.size <= _SCALAR_PIVOT_MAX_DIM:
        u = sorted(b.tolist(), reverse=True)
        k = kept = 0
        for i, (c, x) in enumerate(zip(accumulate(u), u), 1):
            if c - i * x < radius:
                k, kept = i, c
        return (kept - radius) / k
    u = np.sort(b)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    k = int(np.nonzero(css - ks * u < radius)[0][-1]) + 1
    return (css[k - 1] - radius) / k


def _project_l1_rows(W: Array, radius: float) -> Array:
    """:func:`project_l1_ball` of each row of W: the same steps, masked by
    row, with the pivot's sort and sequential ``cumsum`` run along the rows,
    so each row is bitwise its 1-d projection."""
    W = np.ascontiguousarray(W)
    A = np.abs(W)
    total = A.sum(axis=1)
    out = W.copy()
    bad = ~np.isfinite(total) & ~np.isfinite(W).all(axis=1)
    out[bad] = math.nan
    act = ~((total <= radius) | bad)
    if not act.any():
        return out
    A, W = A[act], W[act]
    top = A.max(axis=1, keepdims=True)
    B = np.maximum(A - np.maximum(top - radius - 1.0, 0.0), 0.0)
    lost = (top - radius - 1.0 > 0.0) & (B.max(axis=1, keepdims=True) <= radius)
    B = np.where(lost, np.maximum(A - top, -2.0 * radius), B)
    u = -np.sort(-B, axis=1)
    css = np.cumsum(u, axis=1)
    k = B.shape[1] - np.argmax((css - np.arange(1, B.shape[1] + 1) * u < radius)[:, ::-1], axis=1)
    theta = (css[np.arange(k.size), k - 1] - radius) / k
    out[act] = np.sign(W) * np.maximum(B - theta[:, None], 0.0)
    return out


def project_l1_ball(w: Array, radius: float) -> Array:
    """Euclidean projection of w onto {u : sum|u_i| <= radius}, or of each
    row of an (m, d) block w.

    Soft-thresholds |w| at the level :func:`_l1_threshold` finds.  Points
    already inside the ball are returned unchanged, and a non-finite entry
    gives all NaN (in its row).

    Soft-thresholding composes ((a - m - t)+ == ((a - m)+ - t)+ for m, t >= 0),
    so magnitudes are first reduced by m = max|w| - radius - 1: the pivot then
    runs on O(radius)-sized numbers and stays exact even when w is huge, where
    the raw cumsum - radius comparison would be swallowed by rounding.  Once
    ulp(max|w|) exceeds radius + 1 that shift rounds up to max|w| itself and
    leaves nothing to pivot on; the pivot then runs on the gaps |w_i| - max|w|,
    floored at -2 radius (an entry more than radius below the max cannot
    survive, and the floor keeps the clamped entries clear of the threshold).
    For every entry within radius of the max that subtraction is exact
    (Sterbenz), so the largest entry always keeps its mass and the result lies
    on the boundary.
    """
    if not radius > 0.0:
        raise ValueError(f"project_l1_ball: radius must be > 0, got {radius}")
    w = np.asarray(w, dtype=float)
    if w.ndim == 2:
        return _project_l1_rows(w, radius)
    a = np.abs(w)
    total = float(a.sum())
    if total <= radius:
        return w.copy()
    # a non-finite entry makes the sum non-finite, so only then is w scanned
    if not math.isfinite(total) and not np.all(np.isfinite(w)):
        return np.full_like(w, math.nan)
    top = float(a.max())
    shift = max(top - radius - 1.0, 0.0)
    b = a
    if shift > 0.0:
        b = np.maximum(a - shift, 0.0)
        if float(b.max()) <= radius:
            b = np.maximum(a - top, -2.0 * radius)
    return np.sign(w) * np.maximum(b - _l1_threshold(b, radius), 0.0)


def project_l2_ball(w: Array, radius: float) -> Array:
    """Euclidean projection onto the ball of given radius centred at 0, of
    w or of each row of an (m, d) block w, by ``_qnorm``'s overflow-free norm."""
    if not radius > 0.0:
        raise ValueError(f"project_l2_ball: radius must be > 0, got {radius}")
    w = np.asarray(w, dtype=float)
    if w.ndim == 2:
        with np.errstate(over="ignore"):
            s = _row_dots(w, w)
        n = np.sqrt(s)[:, None]
        for i in np.nonzero(~((0.0 < s) & (s < math.inf)))[0] if w.shape[1] else ():
            n[i] = _qnorm(np.abs(w[i]), 2.0)  # its sum of squares overflowed or underflowed
        return np.where(n <= radius, w, w * (radius / np.maximum(n, radius)))
    n = _qnorm(np.abs(w), 2.0) if w.size else 0.0
    if n <= radius:
        return w.copy()
    return w * (radius / n)


def project_box(w: Array, lo, hi) -> Array:
    """Componentwise clip of w to [lo, hi] (scalars broadcast), so each row
    of an (m, d) block is clipped as a 1-d point would be."""
    w = np.asarray(w, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("project_box: lower bound exceeds upper bound")
    return np.clip(w, lo, hi)


@dataclass(frozen=True)
class ErrorBoundParams:
    """Growth-law parameters: distance-to-optima <= c * gap**theta on the
    relevant sublevel set.  theta = 0 is the plain bounded-level-set case
    (c then bounds the sublevel-set radius divided by the accuracy)."""

    theta: float
    c: float

    def __post_init__(self) -> None:
        _check_bounds("ErrorBoundParams", "[0, 1]", theta=self.theta)
        _check_bounds("ErrorBoundParams", "(0, inf)", c=self.c)


@dataclass(frozen=True)
class PNormSpace:
    """The geometry used by the p-norm prox solvers: p in (1, 2].

    The conjugate exponent and the strong-convexity modulus of
    0.5*||.||_p^2 are derived from p, never stored independently.
    """

    p: float

    def __post_init__(self) -> None:
        _check_bounds("PNormSpace", "(1, 2]", p=self.p)

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)

    @property
    def modulus(self) -> float:
        return self.p - 1.0


class Oracle:
    """A problem's objective and subgradient from one pass, at a point or a block.

    ``run(W, want_f, want_g)`` takes a point w of shape (dim,), or a block
    of points as the columns of a (dim, m) array, and returns (f, g): the
    value (a scalar, or (m,)) and a subgradient ((dim,), or (dim, m)); an
    output not wanted may be None.  A block call takes at most ``rows``
    points (None: any number).  With ``width`` > 0 the pass can defer its
    value half: ``run(w, False, True, row)`` also writes what the value at
    w needs into ``row`` (``width`` entries), and ``run(R, True, False,
    kept=True)`` returns the values of the rows of R, each bitwise its
    point's value.  The other forms are derived here, once: the per-point
    ``objective`` and ``subgrad``, and ``keep`` and ``kept_values`` (the
    two calls above).
    """

    __slots__ = ("run", "width", "rows", "objective", "subgrad", "keep", "kept_values")

    def __init__(self, run: Callable[..., tuple], width: int = 0, rows: Optional[int] = None):
        _check_bounds("Oracle", "int [0, inf)", width=width)
        _check_bounds("Oracle", None if rows is None else "int [1, inf)", rows=rows)
        self.run, self.width, self.rows = run, width, rows
        self.objective = lambda w: float(run(w, True, False)[0])
        self.subgrad = lambda w: run(w, False, True)[1]
        self.keep = lambda w, row: run(w, False, True, row)[1]
        self.kept_values = lambda R: run(R, True, False, kept=True)[0]


@dataclass(frozen=True)
class ProblemInstance:
    """A convex, G-Lipschitz objective with a feasible-set projection.

    Give ``oracle``, the problem's one pass, and objective and subgrad are
    derived from it; or give per-point objective and subgrad callables on a
    dense float vector of length ``dim``.  subgrad returns any subgradient
    (builders in :mod:`rsgkit.problems` return the documented minimal-norm
    choice at kinks).  ``project`` is None for unconstrained problems.
    ``lipschitz_bound`` bounds the subgradient norm in the dual norm
    recorded by ``lipschitz_norm_q`` (2.0 unless the instance was built for
    a p-norm solver).

    known_fstar is a test-only reference value; fstar_lower_bound feeds
    the default initial-gap estimate (losses here are nonnegative, so 0
    is always sound); eb_theta records the declared error-bound exponent
    when the problem class has one.

    :meth:`values`, :meth:`subgrads` and :meth:`feasible_rows` evaluate the
    objective, the subgradient and the projection at many points at once.
    One rule per half: the oracle's value half is used only while
    ``objective`` is the callable derived from it, and its gradient half
    only while ``subgrad`` is; the solvers defer logged values to its kept
    rows only while both are.  So a ``dataclasses.replace`` that swaps
    either callable falls back to per-point calls of it.
    """

    dim: int
    objective: Optional[Callable[[Array], float]] = None
    subgrad: Optional[Callable[[Array], Array]] = None
    _: KW_ONLY
    lipschitz_bound: float
    project: Optional[Callable[[Array], Array]] = None
    lipschitz_norm_q: float = 2.0
    known_fstar: Optional[float] = None
    fstar_lower_bound: float = 0.0
    eb_theta: Optional[float] = None
    name: str = ""
    oracle: Optional[Oracle] = None

    def __post_init__(self) -> None:
        _check_bounds("ProblemInstance", "int [1, inf)", dim=self.dim)
        _check_bounds("ProblemInstance", "(0, inf)", lipschitz_bound=self.lipschitz_bound)
        o = self.oracle
        if o is not None and self.objective is None:
            object.__setattr__(self, "objective", o.objective)
        if o is not None and self.subgrad is None:
            object.__setattr__(self, "subgrad", o.subgrad)
        if self.objective is None or self.subgrad is None:
            raise ValueError("ProblemInstance: give an oracle, or objective and subgrad")

    def feasible(self, w: Array) -> Array:
        """Project w onto the feasible set (identity when unconstrained)."""
        w = np.asarray(w, dtype=float)
        return w if self.project is None else self.project(w)

    def _deferred(self) -> Optional[Oracle]:
        """The oracle, when it keeps rows and both callables are derived from it."""
        o = self.oracle
        both = o is not None and self.objective is o.objective and self.subgrad is o.subgrad
        return o if both and o.width else None

    def _rows(self, k: int, W: Array) -> Array:
        """Callable k (0: objective, 1: subgrad, 2: project) at each row of W:
        through the oracle's block pass while that callable is derived from
        it (``project.batch`` for the projection), else one call per row."""
        who = ("values", "subgrads", "feasible_rows")[k]
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[1] != self.dim:
            raise ValueError(f"{who}: expected an (m, {self.dim}) array, got shape {W.shape}")
        fn, o = (self.objective, self.subgrad, self.project)[k], self.oracle
        block, step = (getattr(fn, "batch", None) if k == 2 else None), len(W)
        if k < 2 and o is not None and fn is (o.objective, o.subgrad)[k]:
            block, step = (lambda B: o.run(B.T, k == 0, k == 1)[k].T), o.rows or step
        shape = W.shape[: 1 + (k > 0)]
        if block is None:
            return np.array([fn(w) for w in W], dtype=float).reshape(shape)
        if len(W) > step:
            out = np.concatenate([block(W[s : s + step]) for s in range(0, len(W), step)])
        else:
            out = block(W)
        out = np.ascontiguousarray(out, dtype=float)
        if out.shape != shape:
            raise ValueError(f"{who}: batch returned shape {out.shape} for {len(W)} rows")
        return out

    def values(self, W: Array) -> Array:
        """Objective at each row of the (m, dim) array W, as an (m,) array,
        from the oracle's block pass while ``objective`` is derived from it."""
        return self._rows(0, W)

    def subgrads(self, W: Array) -> Array:
        """subgrad at each row of W, as an (m, dim) array, by the rule of values."""
        return self._rows(1, W)

    def feasible_rows(self, W: Array) -> Array:
        """:meth:`feasible` of each row of W, in bulk through ``project.batch``
        when the projection carries one."""
        if self.project is None:
            return np.asarray(W, dtype=float)
        return self._rows(2, W)

    def default_eps0(self, w0: Array) -> float:
        """Default initial-gap estimate: f(w0) minus the known lower bound,
        floored at 1e-12 so an optimal start still gives a valid
        ``RestartConfig.eps0``."""
        gap = float(self.objective(np.asarray(w0, dtype=float))) - self.fstar_lower_bound
        return max(gap, 1e-12)
