"""One rule per half of a problem's oracle pass, on every builder.

A ``dataclasses.replace`` that swaps ``objective``, ``subgrad`` or both
(here with pass-through wrappers, as a tracer or a probe would) must fall
back to per-point calls of the swapped callable, keep the block pass for
the other half, and leave every solver trace bitwise the per-point one.
The unswapped instances still match the frozen reference bodies."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import linear_model_reference as ref
from rsgkit import problems
from rsgkit.data import synth_classification, synth_regression
from rsgkit.problems import (
    GFlassoGraph,
    SetFunction,
    cut_function,
    gflasso_svm,
    lovasz_problem,
    miniature_zoo,
    piecewise_linear_erm,
    robust_regression,
)
from rsgkit.solvers import (
    DoublingConfig,
    RestartConfig,
    baseline_sg_decreasing,
    r2sg,
    rsg,
    rsg_dap,
)

REG = synth_regression(12, 4, noise=0.3, seed=7)
CLS = synth_classification(12, 4, margin=0.3, seed=8)
GRAPH = GFlassoGraph(4, ((0, 1, 1.0), (1, 2, 0.5), (0, 3, 2.0)))
CUT = cut_function(5, [(0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (3, 4, 0.4), (0, 4, 0.9)])
LOSSES = ("hinge", "absolute", "eps_insensitive")
REGS = ("none", "l1", "linf", "l1_ball", "linf_ball")

# the zoo's hinge members differ from their per-point values in the last
# bit: a matrix product and a matrix-vector product round their two-term
# dot products differently (see tests/test_problems.py)
ZOO_NOT_BITWISE = {"hinge_sep_2d", "hinge_l1ball_2d"}


def builders():
    """name -> (instance, reference (objective, subgrad) or None)."""
    out = {}
    cls, reg = problems._laid_out(CLS.X), problems._laid_out(REG.X)
    for loss in LOSSES:
        data, layout = (CLS, cls) if loss == "hinge" else (REG, reg)
        for r in REGS:
            inst = piecewise_linear_erm(data, loss, r, lam=0.2, radius=0.7, eps_ins=0.25)
            out[f"{loss}_{r}"] = (inst, ref.linear_model(layout, data.y, loss, 0.25, r, 0.2))
    fused = ref.linear_model(cls, CLS.y, "hinge", 0.0, "fused", 0.3, GRAPH.F)
    out["gflasso"] = (gflasso_svm(CLS, GRAPH, lam=0.3), fused)
    out["robust"] = (robust_regression(REG, 1.5), ref.linear_model(reg, REG.y, "power", 1.5))
    ball = robust_regression(REG, 1.3, region_radius=2.0, constrain_to_region=True)
    out["robust_ball"] = (ball, ref.linear_model(reg, REG.y, "power", 1.3))
    out["lovasz_bulk"] = (lovasz_problem(CUT), None)
    out["lovasz_scalar"] = (lovasz_problem(SetFunction(5, CUT.evaluate)), None)
    for name, inst in miniature_zoo().items():
        out[f"zoo_{name}"] = (inst, None)
    return out


BUILDERS = builders()
SWAPS = ("objective", "subgrad", "both")


def counting(fn, calls):
    """A pass-through wrapper of fn that counts its calls."""

    def wrapper(w):
        calls.append(1)
        return fn(w)

    return wrapper


def swapped(inst, swap, calls):
    """inst with the named callable(s) replaced by counting pass-throughs."""
    changes = {}
    if swap in ("objective", "both"):
        changes["objective"] = counting(inst.objective, calls)
    if swap in ("subgrad", "both"):
        changes["subgrad"] = counting(inst.subgrad, calls)
    return replace(inst, **changes)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def probe_block(inst, m=23):
    rng = np.random.default_rng(inst.dim)
    W = rng.uniform(-1.5, 1.5, size=(m, inst.dim))
    W[0] = 0.0  # kinks: zero weights, zero residuals, margin 0
    return inst.feasible_rows(W)


@pytest.mark.parametrize("swap", SWAPS)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_swapped_half_is_called_per_point_and_the_other_keeps_the_pass(name, swap):
    inst, _ = BUILDERS[name]
    W = probe_block(inst)
    calls = []
    s = swapped(inst, swap, calls)
    per_point = {
        "values": np.array([s.objective(w) for w in W]),
        "subgrads": np.array([s.subgrad(w) for w in W]).reshape(W.shape),
    }
    for form, half in (("values", "objective"), ("subgrads", "subgrad")):
        calls.clear()
        got = getattr(s, form)(W)
        if swap in (half, "both"):
            assert len(calls) == len(W), (form, len(calls))
            assert bits(got) == bits(per_point[form])
        else:
            assert calls == []
            assert bits(got) == bits(getattr(inst, form)(W))
    # the solvers defer values only while neither callable is swapped
    assert s._deferred() is None
    assert inst._deferred() is (inst.oracle if inst.oracle.width else None)


def solver_traces(problem, w0, stride):
    eps0 = problem.default_eps0(w0)
    cfg = RestartConfig(alpha=2.0, stages=3, inner_iters=20, eps0=eps0)
    dcfg = DoublingConfig(t1=6, restart_every=2, max_calls=3)
    runs = {
        "rsg": lambda: rsg(problem, w0, cfg, stride)[1],
        "r2sg": lambda: r2sg(problem, w0, dcfg, cfg, stride)[1],
        "baseline": lambda: baseline_sg_decreasing(problem, w0, 0.1, 40, stride),
    }
    if problem.project is None:
        pcfg = replace(cfg, norm_p=1.5, lambda_mode="inv_grad_norm")
        runs["rsg_dap"] = lambda: rsg_dap(problem, w0, pcfg, stride)[1]
    return {name: run() for name, run in runs.items()}


def trace_fields(trace):
    """Every field of a trace, timing aside; repr tells every float apart."""
    return repr((
        [r._replace(wallclock_ns=0) for r in trace.records],
        trace.stage_results,
        trace.total_iters,
        trace.final_objective,
        bits(trace.final_point),
    ))


@pytest.mark.parametrize("stride", [1, None, 7])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_swapped_traces_are_bitwise_the_per_point_traces(name, stride):
    inst, _ = BUILDERS[name]
    w0 = inst.feasible(0.5 * np.random.default_rng(5).standard_normal(inst.dim))
    # both callables swapped: nothing but per-point calls
    want = solver_traces(swapped(inst, "both", []), w0, stride)
    for variant in (inst, swapped(inst, "objective", []), swapped(inst, "subgrad", [])):
        got = solver_traces(variant, w0, stride)
        assert got.keys() == want.keys()
        for solver in want:
            assert trace_fields(got[solver]) == trace_fields(want[solver]), solver


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_unswapped_instances_match_the_references(name):
    inst, reference = BUILDERS[name]
    W = probe_block(inst)
    assert inst.objective is inst.oracle.objective and inst.subgrad is inst.oracle.subgrad
    per_point = np.array([inst.objective(w) for w in W])
    if reference is not None:
        ref_objective, ref_subgrad = reference
        assert bits(inst.values(W)) == bits(ref_objective.batch(W))
        for w in W[:5]:
            assert bits(inst.objective(w)) == bits(ref_objective(w))
            assert bits(inst.subgrad(w)) == bits(ref_subgrad(w))
    elif name.removeprefix("zoo_") in ZOO_NOT_BITWISE:
        vals = inst.values(W)
        assert np.all(np.abs(vals - per_point) <= 1e-12 * np.abs(per_point))
    else:
        assert bits(inst.values(W)) == bits(per_point)
        assert bits(inst.subgrads(W)) == bits([inst.subgrad(w) for w in W])


def test_lovasz_passes_agree_with_and_without_bulk_evaluate():
    bulk, _ = BUILDERS["lovasz_bulk"]
    scalar, _ = BUILDERS["lovasz_scalar"]
    W = np.random.default_rng(2).uniform(-1.0, 1.0, size=(40, 5))
    assert bits(bulk.values(W)) == bits(scalar.values(W))
    assert bits(bulk.subgrads(W)) == bits(scalar.subgrads(W))


def test_a_csr_layout_swaps_the_same_way(monkeypatch):
    monkeypatch.setattr(problems, "_DENSE_MIN_DENSITY", np.inf)
    inst = piecewise_linear_erm(CLS, loss="hinge", reg="l1", lam=0.2)
    assert sp.issparse(problems._laid_out(CLS.X)[0])
    W = probe_block(inst)
    calls = []
    s = swapped(inst, "objective", calls)
    assert bits(s.values(W)) == bits([inst.objective(w) for w in W]) and len(calls) == len(W)
    assert bits(s.subgrads(W)) == bits(inst.subgrads(W))
