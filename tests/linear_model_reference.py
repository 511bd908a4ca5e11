"""Frozen reference for the linear-model oracles: ``_linear_model`` as it was
written with one body per oracle form (objective, batch, subgrad and the
fused pair) and one closure per penalty and form, kept literally so the
tests compare the library's single oracle pass against code that does not
follow it.  Every value, subgradient and batch row of the library must
equal theirs bit for bit.

The matrix layout and the score-block size are read from
``rsgkit.problems`` when a model is built, so a test that patches
``_DENSE_MIN_DENSITY`` or ``_SCORE_BLOCK`` patches both sides alike."""

from typing import Callable

import numpy as np

from rsgkit import problems
from rsgkit.core import Array

_LOSS_FNS = {
    "hinge": (lambda t, a: np.maximum(0.0, 1.0 - t), lambda t, a: -(t < 1.0).astype(float)),
    "absolute": (lambda t, a: np.abs(t), lambda t, a: np.sign(t)),
    "eps_insensitive": (
        lambda t, a: np.maximum(0.0, np.abs(t) - a),
        lambda t, a: np.sign(t) * (np.abs(t) - a > 0.0).astype(float),
    ),
    "power": (lambda t, a: np.abs(t) ** a, lambda t, a: a * np.abs(t) ** (a - 1.0) * np.sign(t)),
}


def _batched(objective: Callable[[Array], float], batch: Callable[[Array], Array]):
    objective.batch = batch
    return objective


def linear_model(
    layout: tuple, y: Array, loss: str, a: float = 0.0, reg: str = "none", lam: float = 0.0, F=None
) -> tuple:
    """objective and subgrad of mean_i loss(t_i) + penalty(w), z = X w on a
    laid-out X.  l1: lam * sum|w|, sign(0) = 0; linf: lam * max|w|
    on the largest-magnitude coordinate (lowest index wins ties, 0 at w = 0);
    fused: lam * sum|F w|, F laid out like X; any other reg adds nothing.
    The objective carries a batch form with one product X W^T per block.
    The subgrad carries ``with_value``, the pair (objective(w), subgrad(w))
    from one product X w (and one F w)."""
    value, slope = _LOSS_FNS[loss]
    A, AT = layout
    n = y.shape[0]
    margin = loss == "hinge"
    pen = pen_sub = pen_rows = None
    pen_both = lambda w: (pen(w), pen_sub(w))  # noqa: E731
    if reg == "l1":
        pen, pen_sub = (lambda w: lam * float(np.sum(np.abs(w)))), (lambda w: lam * np.sign(w))
        pen_rows = lambda W: lam * np.abs(W).sum(axis=1)  # noqa: E731
    elif reg == "linf":
        pen = lambda w: lam * float(np.max(np.abs(w)))  # noqa: E731
        pen_rows = lambda W: lam * np.abs(W).max(axis=1)  # noqa: E731

        def pen_sub(w: Array) -> Array:
            s = np.zeros_like(w)
            j = int(np.argmax(np.abs(w)))
            s[j] = lam * np.sign(w[j])
            return s

    elif reg == "fused":
        Fa, FT = problems._laid_out(F)
        pen = lambda w: lam * float(np.sum(np.abs(Fa.dot(w))))  # noqa: E731
        pen_sub = lambda w: lam * FT.dot(np.sign(Fa.dot(w)))  # noqa: E731
        pen_rows = lambda W: lam * np.abs(Fa.dot(W.T)).sum(axis=0)  # noqa: E731

        def pen_both(w: Array) -> tuple:
            u = Fa.dot(w)
            return lam * float(np.sum(np.abs(u))), lam * FT.dot(np.sign(u))

    def objective(w: Array) -> float:
        z = A.dot(w)
        f = float(value(y * z if margin else z - y, a).sum()) / n
        return f if pen is None else f + pen(w)

    rows = max(1, problems._SCORE_BLOCK // n)
    yc = y[:, None]

    def batch(W: Array) -> Array:
        f = np.empty(W.shape[0])
        for s in range(0, W.shape[0], rows):
            Ws = W[s : s + rows]
            Z = A.dot(Ws.T)
            f[s : s + rows] = value(yc * Z if margin else Z - yc, a).sum(axis=0) / n
            if pen_rows is not None:
                f[s : s + rows] += pen_rows(Ws)
        return f

    def subgrad(w: Array) -> Array:
        z = A.dot(w)
        s = slope(y * z if margin else z - y, a)
        g = AT.dot(y * s if margin else s) / n
        return g if pen is None else g + pen_sub(w)

    def with_value(w: Array) -> tuple:
        z = A.dot(w)
        t = y * z if margin else z - y
        f = float(value(t, a).sum()) / n
        s = slope(t, a)
        g = AT.dot(y * s if margin else s) / n
        if pen is None:
            return f, g
        pf, pg = pen_both(w)
        return f + pf, g + pg

    with_value.objective = objective = _batched(objective, batch)
    subgrad.with_value = with_value
    return objective, subgrad
