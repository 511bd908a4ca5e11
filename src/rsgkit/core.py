"""Numerical primitives shared by the solvers and the problem zoo.

p-norms and their conjugates, the projections used by the constrained
problems, and the ``ProblemInstance`` contract every solver consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "ProblemInstance",
]


def pnorm(w: Array, p: float) -> float:
    """(sum_i |w_i|**p)**(1/p) for p >= 1, with math.inf meaning max|w_i|.

    Raises ValueError for p < 1 or non-finite entries.  A non-finite entry
    always makes the norm non-finite, so only a non-finite result pays for
    the scan that tells it apart from overflow.
    """
    w = np.asarray(w, dtype=float)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"pnorm: order must be >= 1, got {p}")
    if w.size == 0:
        return 0.0
    a = np.abs(w)
    if math.isinf(p):
        r = float(a.max())
    elif p == 1.0:
        r = float(a.sum())
    elif p == 2.0:
        r = float(np.sqrt(np.dot(a, a)))
    else:
        # factor out the max so a**p cannot overflow at large p; the scaled
        # entries lie in [0, 1] (underflow of tiny ratios only sharpens zero)
        amax = float(a.max())
        r = amax * float(np.sum((a / amax) ** p) ** (1.0 / p)) if 0.0 < amax < math.inf else amax
    if not math.isfinite(r) and not np.all(np.isfinite(w)):
        raise ValueError("pnorm: input has a non-finite entry")
    return r


def conjugate_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1.  Requires p > 1 (q = p/(p-1))."""
    if not p > 1.0:
        raise ValueError(f"conjugate_exponent: need p > 1, got {p}")
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def project_l1_ball(w: Array, radius: float) -> Array:
    """Euclidean projection of w onto {u : sum|u_i| <= radius}.

    Sort-based exact pivot: sort |w| descending, find the largest k with
    u_k > (cumsum_k - radius)/k, and soft-threshold at that level.  Points
    already inside the ball are returned unchanged, and a non-finite entry
    gives all NaN.

    Soft-thresholding composes ((a - m - t)+ == ((a - m)+ - t)+ for m, t >= 0),
    so magnitudes are first reduced by m = max|w| - radius - 1: the pivot then
    runs on O(radius)-sized numbers and stays exact even when w is huge, where
    the raw cumsum - radius comparison would be swallowed by rounding.
    """
    if not radius > 0.0:
        raise ValueError(f"project_l1_ball: radius must be > 0, got {radius}")
    w = np.asarray(w, dtype=float)
    a = np.abs(w)
    total = float(a.sum())
    if total <= radius:
        return w.copy()
    # a non-finite entry makes the sum non-finite, so only then is w scanned
    if not math.isfinite(total) and not np.all(np.isfinite(w)):
        return np.full_like(w, math.nan)
    shift = max(float(a.max()) - radius - 1.0, 0.0)
    b = np.maximum(a - shift, 0.0)
    # at magnitudes where ulp(max) > radius + 1 the shift itself rounds up to
    # max|w| and erases the headroom; back it off until some mass survives
    while shift > 0.0 and float(b.max()) <= radius:
        shift = float(np.nextafter(shift, 0.0))
        b = np.maximum(a - shift, 0.0)
    u = np.sort(b)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    # same pivot rule as u*k > css - radius, written so the subtraction
    # cancels exactly at k = 1 instead of losing the radius to rounding
    k = int(np.nonzero(css - ks * u < radius)[0][-1]) + 1
    theta = (css[k - 1] - radius) / k
    return np.sign(w) * np.maximum(b - theta, 0.0)


def project_l2_ball(w: Array, radius: float, center: Optional[Array] = None) -> Array:
    """Euclidean projection onto the ball of given radius (default center 0)."""
    if not radius > 0.0:
        raise ValueError(f"project_l2_ball: radius must be > 0, got {radius}")
    w = np.asarray(w, dtype=float)
    d = w if center is None else w - center
    n = float(np.sqrt(np.dot(d, d)))
    if n <= radius:
        return w.copy()
    scaled = d * (radius / n)
    return scaled if center is None else center + scaled


def project_box(w: Array, lo, hi) -> Array:
    """Componentwise clip of w to [lo, hi] (scalars broadcast)."""
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
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"ErrorBoundParams: need 0 <= theta <= 1, got {self.theta}")
        if not self.c > 0.0:
            raise ValueError(f"ErrorBoundParams: need c > 0, got {self.c}")


@dataclass(frozen=True)
class PNormSpace:
    """The geometry used by the p-norm prox solvers: p in (1, 2].

    The conjugate exponent and the strong-convexity modulus of
    0.5*||.||_p^2 are derived from p, never stored independently.
    """

    p: float

    def __post_init__(self) -> None:
        if not (1.0 < self.p <= 2.0):
            raise ValueError(f"PNormSpace: need 1 < p <= 2, got {self.p}")

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)

    @property
    def modulus(self) -> float:
        return self.p - 1.0


@dataclass(frozen=True)
class ProblemInstance:
    """A convex, G-Lipschitz objective with a feasible-set projection.

    objective/subgrad take a dense float vector of length ``dim``;
    subgrad returns any subgradient (builders in :mod:`rsgkit.problems`
    return the documented minimal-norm choice at kinks).  ``project`` is
    None for unconstrained problems.  ``lipschitz_bound`` bounds the
    subgradient norm in the dual norm recorded by ``lipschitz_norm_q``
    (2.0 unless the instance was built for a p-norm solver).

    known_fstar is a test-only reference value; fstar_lower_bound feeds
    the default initial-gap estimate (losses here are nonnegative, so 0
    is always sound); eb_theta records the declared error-bound exponent
    when the problem class has one.  :meth:`values` evaluates the
    objective at many points at once.

    subgrad may carry ``with_value``, a fused form returning
    ``(objective(w), subgrad(w))`` from one pass (the linear-model builders
    attach one, bitwise equal to the two calls).  The solvers use it on
    logged iterations only while ``with_value.objective is objective``;
    after ``dataclasses.replace`` swaps either callable they fall back to
    separate calls.
    """

    dim: int
    objective: Callable[[Array], float]
    subgrad: Callable[[Array], Array]
    lipschitz_bound: float
    project: Optional[Callable[[Array], Array]] = None
    lipschitz_norm_q: float = 2.0
    known_fstar: Optional[float] = None
    fstar_lower_bound: float = 0.0
    eb_theta: Optional[float] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"ProblemInstance: dim must be >= 1, got {self.dim}")
        if not (math.isfinite(self.lipschitz_bound) and self.lipschitz_bound > 0):
            raise ValueError(
                f"ProblemInstance: lipschitz_bound must be finite and > 0, "
                f"got {self.lipschitz_bound}"
            )

    @property
    def is_unconstrained(self) -> bool:
        return self.project is None

    def feasible(self, w: Array) -> Array:
        """Project w onto the feasible set (identity when unconstrained)."""
        w = np.asarray(w, dtype=float)
        return w if self.project is None else self.project(w)

    def values(self, W: Array) -> Array:
        """Objective at each row of the (m, dim) array W, as an (m,) array.

        Evaluates in bulk through ``objective.batch`` when the objective
        callable carries one (the linear-model builders and the hand-written
        zoo members attach it); any other objective, including one swapped
        in by ``dataclasses.replace``, is called once per row.
        """
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[1] != self.dim:
            raise ValueError(f"values: expected an (m, {self.dim}) array, got shape {W.shape}")
        batch = getattr(self.objective, "batch", None)
        if batch is None:
            return np.array([float(self.objective(w)) for w in W], dtype=float)
        out = np.asarray(batch(W), dtype=float)
        if out.shape != (W.shape[0],):
            raise ValueError(f"values: batch returned shape {out.shape} for {W.shape[0]} rows")
        return out

    def default_eps0(self, w0: Array) -> float:
        """Default initial-gap estimate: f(w0) minus the known lower bound,
        floored at 1e-12 so an optimal start still gives a valid
        ``RestartConfig.eps0``."""
        gap = float(self.objective(np.asarray(w0, dtype=float))) - self.fstar_lower_bound
        return max(gap, 1e-12)
