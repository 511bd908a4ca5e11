"""Frozen per-point forms of the ground-truth consumers that now evaluate in
blocks: the ray loop of ``oracles.estimate_B_eps`` and the pair, norm
and idempotence loops of ``verify.zoo_suite`` (with its per-point probe
box), kept literally as they were written with one ``objective`` /
``subgrad`` / ``project`` call per point.  The tests compare the library's
block forms against them: the same sublevel-set radius and the same verdicts."""

import math
import warnings

import numpy as np

from rsgkit.core import pnorm
from rsgkit.oracles import _check_report, _ray_directions
from rsgkit.problems import miniature_zoo


def sample_level_points(problem, eps, oracle, ray_count=16, seed=0, xtol=1e-13, max_expand=80):
    f_arg = _check_report("sample_level_points", problem, oracle)
    level = oracle.fstar + eps
    assert not f_arg > level
    center = np.asarray(oracle.argmin, dtype=float)
    G = problem.lipschitz_bound

    def point_at(t: float, direction):
        return problem.feasible(center + t * direction)

    points = []
    for direction in _ray_directions(problem.dim, ray_count, seed):
        t_hi = max(eps / G, 1e-9)
        t_lo = 0.0
        crossed = False
        for _ in range(max_expand):
            if float(problem.objective(point_at(t_hi, direction))) > level:
                crossed = True
                break
            t_lo = t_hi
            t_hi *= 2.0
        if not crossed:
            warnings.warn(
                f"estimate_B_eps: ray stayed below the level for {max_expand} doublings "
                "(an unbounded direction, or a projected ray stalled on the feasible "
                "set's boundary); skipped",
                stacklevel=2,
            )
            continue
        while t_hi - t_lo > xtol * max(1.0, t_hi):
            mid = 0.5 * (t_lo + t_hi)
            if float(problem.objective(point_at(mid, direction))) > level:
                t_hi = mid
            else:
                t_lo = mid
        if t_lo > 0.0:
            points.append(point_at(t_lo, direction))
    return points


def _probe_box(rng, problem, n):
    pts = rng.uniform(-2.0, 2.0, size=(n, problem.dim))
    if problem.project is not None:
        pts = np.array([problem.project(p) for p in pts])
    return pts


def zoo_suite(n_pairs=1000, seed=20240603, zoo=None):
    """The suite's report lines from the per-point loops; ``zoo`` replaces
    the miniature zoo."""
    rng = np.random.default_rng(seed)
    zoo = miniature_zoo() if zoo is None else zoo
    lines = []
    fails = 0
    for name, problem in zoo.items():
        us = _probe_box(rng, problem, n_pairs)
        vs = _probe_box(rng, problem, n_pairs)
        worst = -math.inf
        for u, v in zip(us, vs):
            fu = float(problem.objective(u))
            fv = float(problem.objective(v))
            g = problem.subgrad(v)
            lin = fv + float(g @ (u - v))
            viol = (lin - fu) / max(1.0, abs(fu), abs(fv))
            worst = max(worst, viol)
        if worst > 1e-9:
            fails += 1
            lines.append(f"[FAIL] convexity certificate on {name}: violation {worst:.3e}")
        q = problem.lipschitz_norm_q
        over = 0.0
        for u in us[:200]:
            gn = pnorm(problem.subgrad(u), q)
            over = max(over, gn - problem.lipschitz_bound)
        if over > 1e-9 * max(1.0, problem.lipschitz_bound):
            fails += 1
            lines.append(
                f"[FAIL] subgradient bound on {name}: exceeds declared G by {over:.3e}"
            )
        if problem.project is not None:
            for u in us[:50]:
                raw = np.asarray(u) + rng.standard_normal(problem.dim)
                once = problem.project(raw)
                twice = problem.project(once)
                if np.max(np.abs(twice - once)) > 1e-12:
                    fails += 1
                    lines.append(f"[FAIL] projection not idempotent on {name} at {raw.tolist()}")
                    break
    ok = fails == 0
    lines.append(
        f"[{'pass' if ok else 'FAIL'}] zoo suite: {len(zoo)} instances, "
        f"{n_pairs} convexity pairs each, {fails} failures"
    )
    return ok, lines
