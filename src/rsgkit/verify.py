"""Numerical verification suites behind ``rsgkit verify`` and reused by the
test suite: prox identities, the averaging/dual-averaging progress bounds,
oracle cross-checks, and zoo-wide convexity/subgradient certificates.

Each suite returns (passed, report lines); counterexamples are embedded in
the failing lines.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import PNormSpace, ProblemInstance, _row_dots, conjugate_exponent, pnorm
from .oracles import grid_min, long_run_min, submodular_min_enumerate, weighted_median
from .problems import _row_norms, cut_function, miniature_zoo
from .solvers import dap_run, pnorm_prox, sg_run

__all__ = ["prox_suite", "lemmas_suite", "oracle_suite", "zoo_suite", "run_suite", "SUITES"]


def _probe_box(rng: np.random.Generator, problem: ProblemInstance, n: int) -> np.ndarray:
    """Deterministic probe points: uniform on [-2, 2]^d, then made feasible.
    Every zoo instance declares its subgradient bound on a region containing
    that box."""
    return problem.feasible_rows(rng.uniform(-2.0, 2.0, size=(n, problem.dim)))


def prox_suite(n_triples: int = 1000, seed: int = 20240601) -> tuple[bool, list[str]]:
    """Random (w, g, p) triples: the closed-form prox step must satisfy its
    step-length identity exactly and beat nearby perturbations."""
    rng = np.random.default_rng(seed)
    lines: list[str] = []
    bad_identity = 0
    bad_local = 0
    worst = 0.0
    for _ in range(n_triples):
        d = int(rng.integers(1, 11))
        p = float(rng.uniform(1.2, 2.0))
        w = rng.standard_normal(d)
        g = rng.standard_normal(d)
        q = conjugate_exponent(p)
        u = pnorm_prox(w, g, p)
        gq = pnorm(g, q)
        err = abs(pnorm(u - w, p) - gq) / (1.0 + gq)
        worst = max(worst, err)
        if err > 1e-10:
            bad_identity += 1
            lines.append(
                f"[FAIL] prox identity: rel err {err:.3e} at p={p!r}, w={w.tolist()}, "
                f"g={g.tolist()}"
            )
            continue
        # u, then 8 perturbations of it, scored by g.x + ||x - w||_p^2 / 2
        X = u + np.vstack([np.zeros(d), 1e-3 * rng.standard_normal((8, d))])
        phi = X @ g + 0.5 * _row_norms(X - w, p) ** 2
        better = np.nonzero(phi[1:] < phi[0] - 1e-9)[0]
        if better.size:
            bad_local += 1
            lines.append(
                f"[FAIL] prox not locally optimal at p={p!r}, w={w.tolist()}, "
                f"g={g.tolist()}: perturbation improved by "
                f"{phi[0] - phi[1 + better[0]]:.3e}"
            )
    ok = bad_identity == 0 and bad_local == 0
    lines.append(
        f"[{'pass' if ok else 'FAIL'}] prox suite: {n_triples} triples, "
        f"{bad_identity} identity failures, {bad_local} local-optimality failures, "
        f"worst identity rel err {worst:.3e}"
    )
    return ok, lines


def _progress_check(
    problem: ProblemInstance,
    avg: np.ndarray,
    probes: np.ndarray,
    bounds: list[float],
    label: str,
) -> list[str]:
    """A failure line for each probe u whose gap f(avg) - f(u), for the
    averaged point avg of the run label names, exceeds its bound."""
    f_avg = float(problem.objective(avg))
    gaps = [f_avg - float(problem.objective(u)) for u in probes]
    return [
        f"[FAIL] {label} bound on {problem.name}: gap {gap!r} > bound {bound!r} "
        f"(u={u.tolist()})"
        for u, gap, bound in zip(probes, gaps, bounds)
        if gap > bound + 1e-9
    ]


def lemmas_suite(seed: int = 20240602) -> tuple[bool, list[str]]:
    """Per-stage progress bounds on the miniature zoo, across step sizes,
    horizons, and (for the unconstrained one-dimensional instances plus the
    Euclidean case) both dual-averaging weight modes."""
    rng = np.random.default_rng(seed)
    zoo = miniature_zoo()
    fails: list[str] = []
    checks = 0
    for problem in zoo.values():
        G = problem.lipschitz_bound
        w1 = problem.feasible(np.full(problem.dim, 1.2))
        probes = _probe_box(rng, problem, 5)
        for eta in (0.05, 0.2):
            for T in (40, 200):
                # fixed-step averaging: G**2 eta / 2 + ||w1 - u||**2 / (2 eta T)
                avg, _ = sg_run(problem, w1, eta, T, stride=T)
                bounds = [
                    G * G * eta / 2.0 + float(np.sum((w1 - u) ** 2)) / (2.0 * eta * T)
                    for u in probes
                ]
                label = f"averaging (eta={eta}, T={T})"
                fails += _progress_check(problem, avg, probes, bounds, label)
                checks += len(probes)
    dap_euclid = [n for n, pr in zoo.items() if pr.project is None]
    # d = 1: every norm agrees, so the stored G is the q-norm bound at p = 1.5
    dap_runs = [(n, 2.0) for n in dap_euclid] + [(n, 1.5) for n in dap_euclid if zoo[n].dim == 1]
    eta, T = 0.1, 100
    for mode in ("unit", "inv_grad_norm"):
        for name, p in dap_runs:
            problem = zoo[name]
            G = problem.lipschitz_bound
            probes = _probe_box(rng, problem, 4)
            w1 = np.full(problem.dim, 1.1)
            # weighted dual averaging in the p-norm geometry: with weights
            # 1/||g||_q the distance term gains a factor G, the step term 1/G
            avg, _ = dap_run(problem, w1, eta, T, PNormSpace(p), mode, stride=T)
            dist2 = [pnorm(u - w1, p) ** 2 for u in probes]
            if mode == "unit":
                bounds = [d / (2.0 * eta * T) + eta * G * G / (2.0 * (p - 1.0)) for d in dist2]
            else:
                bounds = [G * d / (2.0 * eta * T) + eta * G / (2.0 * (p - 1.0)) for d in dist2]
            label = f"dual-averaging (p={p}, mode={mode}, eta={eta}, T={T})"
            fails += _progress_check(problem, avg, probes, bounds, label)
            checks += len(probes)
    ok = not fails
    return ok, fails + [
        f"[{'pass' if ok else 'FAIL'}] lemmas suite: {checks} bound checks across "
        f"{len(zoo)} instances, {len(fails)} violations"
    ]


def oracle_suite() -> tuple[bool, list[str]]:
    """Cross-checks between independent oracles: grid vs long-run agreement
    within summed tolerances on every member of dimension <= 2 (and the grid
    vs the known minimum where one is declared), the weighted-median closed
    form, and subset enumeration on a path cut."""
    zoo = miniature_zoo()
    lines: list[str] = []
    fails = 0
    checked = 0
    for name, problem in zoo.items():
        if problem.dim > 2:
            continue
        checked += 1
        ppd = 4001 if problem.dim == 1 else 401
        grid = grid_min(problem, -4.0, 4.0, ppd)
        longrun = long_run_min(problem, np.full(problem.dim, 1.7), total_iters=60_000)
        slack = grid.certified_tol + longrun.certified_tol + 1e-7
        if abs(grid.fstar - longrun.fstar) > slack:
            fails += 1
            lines.append(
                f"[FAIL] oracle mismatch on {name}: grid {grid.fstar!r} vs "
                f"long-run {longrun.fstar!r}, slack {slack!r}"
            )
        if problem.known_fstar is None:
            continue
        if abs(grid.fstar - problem.known_fstar) > grid.certified_tol + 1e-9:
            fails += 1
            lines.append(
                f"[FAIL] grid vs known minimum on {name}: {grid.fstar!r} vs "
                f"{problem.known_fstar!r} (tol {grid.certified_tol!r})"
            )
    med_cases = [
        (([0.0, 1.0], None), 0.0),
        (([1.0, 2.0, 10.0], None), 2.0),
        (([1.0, 2.0, 10.0], [5.0, 1.0, 1.0]), 1.0),
    ]
    for (vals, wts), expected in med_cases:
        got = weighted_median(vals, wts)
        if got != expected:
            fails += 1
            lines.append(f"[FAIL] weighted_median({vals}, {wts}) = {got}, expected {expected}")
    path = cut_function(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    mn, mask = submodular_min_enumerate(path)
    if mn != 0.0 or mask != 0:
        fails += 1
        lines.append(f"[FAIL] path-cut enumeration gave ({mn}, {mask}), expected (0.0, 0)")
    ok = fails == 0
    lines.append(
        f"[{'pass' if ok else 'FAIL'}] oracle suite: {checked} members grid-checked, "
        f"{fails} failures"
    )
    return ok, lines


def _block_gap(problem: ProblemInstance, W: np.ndarray) -> float:
    """Largest gap between the block forms (values, subgrads) and one
    objective / subgrad call per row of W, relative to max(1, |per point|);
    nan when either side is nan."""
    forms = ((problem.values, problem.objective), (problem.subgrads, problem.subgrad))
    gaps = [
        np.max(np.abs(b - p) / np.maximum(1.0, np.abs(p)))
        for block, one in forms
        for b, p in zip(block(W), map(one, W))
    ]
    return float(np.max(gaps, initial=0.0))


def zoo_suite(n_pairs: int = 1000, seed: int = 20240603) -> tuple[bool, list[str]]:
    """Zoo-wide certificates: convexity via the subgradient inequality over
    sampled pairs, subgradient norms within the declared bound, projection
    idempotence, and agreement of known minima with direct evaluation.  The
    pairs, norms and projections are evaluated as blocks, and the block
    forms are checked against per-point calls on each member's first 8 rows."""
    rng = np.random.default_rng(seed)
    zoo = miniature_zoo()
    lines: list[str] = []
    fails = 0
    for name, problem in zoo.items():
        us = _probe_box(rng, problem, n_pairs)
        vs = _probe_box(rng, problem, n_pairs)
        gap = _block_gap(problem, us[:8])
        if not gap <= 1e-12:
            fails += 1
            lines.append(
                f"[FAIL] block oracles on {name}: differ from per-point calls by {gap:.3e}"
            )
        fu, fv = problem.values(us), problem.values(vs)
        lin = fv + _row_dots(problem.subgrads(vs), us - vs)
        viol = (lin - fu) / np.maximum(1.0, np.maximum(np.abs(fu), np.abs(fv)))
        worst = float(np.fmax.reduce(viol, initial=-math.inf))
        if worst > 1e-9:
            fails += 1
            lines.append(f"[FAIL] convexity certificate on {name}: violation {worst:.3e}")
        gn = _row_norms(problem.subgrads(us[:200]), problem.lipschitz_norm_q)
        over = float(np.max(gn - problem.lipschitz_bound, initial=0.0))
        if not over <= 1e-9 * max(1.0, problem.lipschitz_bound):
            fails += 1
            lines.append(
                f"[FAIL] subgradient bound on {name}: exceeds declared G by {over:.3e}"
            )
        if problem.project is not None:
            raw = us[:50] + rng.standard_normal((len(us[:50]), problem.dim))
            once = problem.feasible_rows(raw)
            moved = np.max(np.abs(problem.feasible_rows(once) - once), axis=1) > 1e-12
            if moved.any():
                fails += 1
                at = raw[np.argmax(moved)].tolist()
                lines.append(f"[FAIL] projection not idempotent on {name} at {at}")
    ok = fails == 0
    lines.append(
        f"[{'pass' if ok else 'FAIL'}] zoo suite: {len(zoo)} instances, "
        f"{n_pairs} convexity pairs each, {fails} failures"
    )
    return ok, lines


SUITES: dict[str, Callable[[], tuple[bool, list[str]]]] = {
    "prox": prox_suite,
    "lemmas": lemmas_suite,
    "oracle": oracle_suite,
    "zoo": zoo_suite,
}


def run_suite(name: str) -> tuple[bool, list[str]]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    return SUITES[name]()
