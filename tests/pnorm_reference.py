"""Frozen references for the q-norm kernel: ``pnorm`` and ``pnorm_prox`` as
they were written before they shared one kernel, kept literally so the
tests compare the library against code that does not follow it.  Every
result of the library must equal theirs bit for bit, and every error must
carry the same message."""

import math

import numpy as np


def pnorm(w, p: float) -> float:
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


def pnorm_prox(w, g, p: float):
    """Minimizer of <g, u> + 0.5*||u - w||_p**2 over all of R^d, p in (1, 2].

    Closed form: u_i = w_i - ||g||_q**((p-q)/p) * sign(g_i) * |g_i|**(q-1)
    with q = p/(p-1); it satisfies ||u - w||_p = ||g||_q.  For p = 2 this is
    the plain step w - g.  g = 0 returns w unchanged.
    """
    if not (1.0 < p <= 2.0):
        raise ValueError(f"pnorm_prox: p must lie in (1, 2], got {p}")
    w = np.asarray(w, dtype=float)
    g = np.asarray(g, dtype=float)
    if p == 2.0:
        return w - g
    q = p / (p - 1.0)
    gq = pnorm(g, q)
    if gq == 0.0:
        return w.copy()
    # ||g||_q**((p-q)/p) * |g_i|**(q-1) == ||g||_q * (|g_i|/||g||_q)**(q-1)
    # since (p-q)/p + (q-1) = 1; the normalized ratios stay in [0, 1], so
    # the q-1 power cannot overflow even as p -> 1 drives q huge.
    ratio = np.abs(g) / gq
    return w - gq * np.sign(g) * ratio ** (q - 1.0)
