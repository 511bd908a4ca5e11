"""One range check behind every config key and library argument.

``rsgkit.core._check_bounds`` decides what is in range, how nan and inf are
treated, and how a refusal is worded, for the config table and for the
library alike.  The agreement test below feeds each ranged ``_KEYS`` row's
boundary values, the floats (or integers) just inside and just outside
them, a non-integer for the integer rows, nan and +-inf to the library
arguments the row reaches, and asserts that the library accepts exactly
what the config accepts and names the argument in every refusal.
"""

import io
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from rsgkit import cli
from rsgkit.core import ErrorBoundParams, PNormSpace, ProblemInstance, _check_bounds
from rsgkit.data import load_edge_list, parse_libsvm, synth_classification, synth_regression
from rsgkit.oracles import (
    OracleReport,
    estimate_B_eps,
    grid_min,
    long_run_min,
    sublevel_project,
    submodular_min_enumerate,
)
from rsgkit.problems import (
    Dataset,
    GFlassoGraph,
    SetFunction,
    cut_function,
    enumerate_table,
    gflasso_svm,
    graph_from_correlation,
    miniature_zoo,
    piecewise_linear_erm,
    robust_regression,
)
from rsgkit.solvers import (
    DoublingConfig,
    RestartConfig,
    baseline_sg_decreasing,
    compute_inner_iters,
    compute_stage_count,
    dap_run,
    r2sg,
    rsg,
    rsg_dap,
    sg_run,
)

ABS = miniature_zoo()["abs_1d"]  # f(w) = |w|, minimized at the start 0: g = 0
ZERO = np.zeros(1)
DATA = Dataset(sp.csr_matrix(np.array([[1.0], [2.0]])), np.array([1.0, -1.0]))


def _instance(dim):
    return ProblemInstance(dim=dim, objective=abs, subgrad=np.sign, lipschitz_bound=1.0)


# each ranged key -> the library arguments it reaches: (argument name, call)
PAIRS = {
    "problem.dim": [
        ("dim", _instance),
        ("dim", lambda v: load_edge_list(io.StringIO(""), dim=v)),
        ("dim", lambda v: parse_libsvm(io.StringIO(""), dim=v)),
    ],
    "problem.n": [
        ("n", lambda v: synth_regression(v, 1, 0.0, 0)),
        ("n", lambda v: synth_classification(v, 1, 0.5, 0)),
    ],
    "problem.d": [
        ("d", lambda v: synth_regression(2, v, 0.0, 0)),
        ("d", lambda v: synth_classification(2, v, 0.5, 0)),
    ],
    "problem.noise": [("noise", lambda v: synth_regression(2, 1, v, 0))],
    "problem.margin": [("margin", lambda v: synth_classification(2, 1, v, 0))],
    "problem.p_loss": [("p_loss", lambda v: robust_regression(DATA, p_loss=v))],
    "problem.region_radius": [
        ("region_radius", lambda v: robust_regression(DATA, 1.5, region_radius=v))
    ],
    "problem.lam": [
        ("lam", lambda v: piecewise_linear_erm(DATA, reg="l1", lam=v)),
        ("lam", lambda v: gflasso_svm(DATA, GFlassoGraph(1, ()), lam=v)),
    ],
    "problem.radius": [
        ("radius", lambda v: piecewise_linear_erm(DATA, reg="l1_ball", radius=v))
    ],
    "problem.eps_ins": [
        ("eps_ins", lambda v: piecewise_linear_erm(DATA, loss="eps_insensitive", eps_ins=v))
    ],
    "problem.corr_cutoff": [("cutoff", lambda v: graph_from_correlation(DATA, v))],
    "solver.alpha": [
        ("alpha", lambda v: RestartConfig(alpha=v)),
        ("alpha", lambda v: compute_stage_count(1.0, 0.5, v)),
        ("alpha", lambda v: compute_inner_iters(1.0, ErrorBoundParams(1.0, 1.0), 1.0, v)),
    ],
    "solver.stages": [
        ("stages", lambda v: RestartConfig(stages=v)),
        ("restart_every", lambda v: DoublingConfig(t1=1, restart_every=v)),
    ],
    "solver.t": [("inner_iters", lambda v: RestartConfig(inner_iters=v))],
    "solver.eps0": [
        ("eps0", lambda v: RestartConfig(eps0=v)),
        ("eps0", lambda v: compute_stage_count(v, 5e-324, 2.0)),
    ],
    "solver.target_eps": [
        ("eps", lambda v: compute_inner_iters(1.0, ErrorBoundParams(1.0, 1.0), v, 2.0))
    ],
    "solver.norm_p": [
        ("norm_p", lambda v: RestartConfig(norm_p=v)),
        ("p", PNormSpace),
    ],
    "solver.eta_scale": [("eta_scale", lambda v: RestartConfig(eta_scale=v))],
    "solver.eta": [
        ("eta", lambda v: sg_run(ABS, ZERO, v, 1)),
        ("eta", lambda v: dap_run(ABS, ZERO, v, 1, PNormSpace(2.0))),
    ],
    "solver.T": [
        ("T", lambda v: sg_run(ABS, ZERO, 0.1, v)),
        ("T", lambda v: dap_run(ABS, ZERO, 0.1, v, PNormSpace(2.0))),
        ("T", lambda v: baseline_sg_decreasing(ABS, ZERO, 0.1, v)),
    ],
    "solver.eta0": [("eta0", lambda v: baseline_sg_decreasing(ABS, ZERO, v, 1))],
    "solver.t1": [("t1", lambda v: DoublingConfig(t1=v))],
    "solver.theta": [("theta", lambda v: DoublingConfig(t1=1, theta=v))],
    "solver.growth": [("growth", lambda v: DoublingConfig(t1=1, growth=v))],
    "solver.max_calls": [("max_calls", lambda v: DoublingConfig(t1=1, max_calls=v))],
    "solver.rel_tol": [("rel_tol", lambda v: DoublingConfig(t1=1, rel_tol=v))],
    "solver.theta_eb": [("theta", lambda v: ErrorBoundParams(v, 1.0))],
    "solver.c_eb": [("c", lambda v: ErrorBoundParams(0.5, v))],
    "output.stride": [("stride", lambda v: sg_run(ABS, ZERO, 0.1, 2, stride=v))],
}

# ranged keys whose value reaches no library range check, by design
UNPAIRED = {
    "problem.data_seed": "a seed goes to numpy's default_rng, which checks it itself",
    "solver.seed": "a seed goes to numpy's default_rng, which checks it itself",
}


def probes(row) -> list:
    """The row's finite ends, the values just inside and just outside each,
    a non-integer for an integer row, nan and +-inf."""
    lo, hi = (float(x) for x in row.bounds[1:-1].split(","))
    out = [math.nan, math.inf, -math.inf]
    for end, inward in ((lo, math.inf), (hi, -math.inf)):
        if math.isinf(end):
            continue
        if row.type is int:
            step = 1 if inward > 0 else -1
            out += [int(end), int(end) + step, int(end) - step, end + step / 2]
        else:
            out += [end, math.nextafter(end, inward), math.nextafter(end, -inward)]
    return out


def config_accepts(key, value) -> bool:
    """What a config line ``key = repr(value)`` passes: the parser's type
    conversion, then the row's range."""
    row = cli._KEYS[key]
    try:
        _check_bounds("", row.bounds, **{key: row.type(repr(value))})
    except ValueError:
        return False
    return True


def library_accepts(call, name, value) -> bool:
    """Whether call(value) raises no ValueError; a refusal must name the
    argument."""
    try:
        call(value)
    except ValueError as exc:
        assert re.search(rf"(^|: ){re.escape(name)} must ", str(exc)), str(exc)
        return False
    return True


def test_every_ranged_key_is_paired_or_excused():
    ranged = {key for key, row in cli._KEYS.items() if row.bounds}
    assert set(PAIRS) | set(UNPAIRED) == ranged
    assert not set(PAIRS) & set(UNPAIRED)


@pytest.mark.parametrize("key", sorted(PAIRS))
def test_library_and_config_agree_on_each_range(key):
    row = cli._KEYS[key]
    for name, call in PAIRS[key]:
        for value in probes(row):
            expected = config_accepts(key, value)
            assert library_accepts(call, name, value) == expected, (key, name, value, expected)


def test_target_eps_lies_in_zero_to_eps0_by_design():
    # the config key is only > 0 and finite: the cap eps0 is another key's
    # value (or f(w0) when unset), so it is checked once eps0 is known
    for value in probes(cli._KEYS["solver.target_eps"]):
        expected = config_accepts("solver.target_eps", value) and value <= 1.0
        try:
            RestartConfig(eps0=1.0, target_eps=value)
            accepted = True
        except ValueError as exc:
            assert re.search(r": target_eps (must be|\S+ exceeds eps0)", str(exc)), str(exc)
            accepted = False
        assert accepted == expected, value


@pytest.mark.parametrize("eps0,eps,alpha", [(1.0, 5e-324, 2.0), (1e300, 1e-8, 4.0)])
def test_compute_stage_count_refuses_a_count_that_overflows(eps0, eps, alpha):
    # eps0 / eps = inf, or alpha**round(r) past the float range, used to
    # raise OverflowError, which a config run showed as a traceback
    with pytest.raises(ValueError, match="compute_stage_count: eps put the schedule past its cap"):
        compute_stage_count(eps0, eps, alpha)


@pytest.mark.parametrize("c,eps", [(1e148, 1e300), (1e-200, 1e-180)], ids=["over", "under"])
def test_compute_inner_iters_refuses_a_factor_outside_float_range(c, eps):
    # the budget (2 c)**2 / eps**2 is small, but eps**2 overflows, or
    # underflows to 0 with the numerator; the cap refuses both before the
    # budget is computed
    with pytest.raises(ValueError, match="compute_inner_iters: eps put the schedule past its cap"):
        compute_inner_iters(1.0, ErrorBoundParams(0.0, c), eps, 2.0)


def test_cli_exits_1_on_a_stage_count_that_overflows(tmp_path, capsys):
    cfg = tmp_path / "tiny_target.cfg"
    cfg.write_text(
        "problem.kind = pwl\nproblem.synth = regression\nproblem.n = 5\nproblem.d = 2\n"
        "problem.loss = absolute\nsolver.algo = rsg\nsolver.t = 5\nsolver.eps0 = 1.0\n"
        "solver.target_eps = 5e-324\n"
    )
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "compute_stage_count: eps put the schedule past its cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# the wording


@pytest.mark.parametrize(
    "bounds,value,message",
    [
        ("(1, inf)", 1.0, "x must be finite and > 1, got 1.0"),
        ("(1, inf)", math.inf, "x must be finite and > 1, got inf"),
        ("(0, inf)", 0, "x must be > 0, got 0"),
        ("[0, inf]", math.nan, "x must be >= 0, got nan"),
        ("[0, inf)", -0.5, "x must be finite and >= 0, got -0.5"),
        ("(1, 2]", np.float64(2.5), "x must lie in (1, 2], got 2.5"),
        ("int [1, inf)", 0, "x must be >= 1, got 0"),
        ("int [1, inf)", 2.0, "x must be an integer, got 2.0"),
        ("int [1, 24]", 25, "x must lie in [1, 24], got 25"),
        # a value that is not a real number is refused before any comparison
        ("(0, inf)", "2", "x must be a number, got '2'"),
        ("[0, inf]", None, "x must be a number, got None"),
        ("int [1, inf)", "3", "x must be a number, got '3'"),
    ],
)
def test_check_bounds_wording(bounds, value, message):
    with pytest.raises(ValueError) as exc:
        _check_bounds("", bounds, x=value)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        _check_bounds("who", bounds, x=value)
    assert str(exc.value) == f"who: {message}"


def test_check_bounds_accepts_in_range_values_and_no_bounds():
    _check_bounds("", "[0, inf]", a=0.0, b=math.inf, c=-0.0)
    _check_bounds("", "int [1, inf)", n=1, m=np.int64(7))
    _check_bounds("", None, anything=math.nan)


# ---------------------------------------------------------------------------
# counts are integers, refused at construction


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: RestartConfig(stages=2.5), "stages"),
        (lambda: RestartConfig(inner_iters=10.0), "inner_iters"),
        (lambda: DoublingConfig(t1=1.5), "t1"),
        (lambda: DoublingConfig(t1=1, max_calls=2.0), "max_calls"),
        (lambda: _instance(1.5), "dim"),
        (lambda: sg_run(ABS, ZERO, 0.1, 3.0), "T"),
        (lambda: sg_run(ABS, ZERO, 0.1, 3, stride=1.5), "stride"),
        (lambda: synth_regression(2.5, 1, 0.0, 0), "n"),
    ],
)
def test_non_integer_counts_are_refused_at_construction(build, name):
    # each used to be accepted here and to fail later (mid-run, or in numpy)
    # with "TypeError: 'float' object cannot be interpreted as an integer"
    with pytest.raises(ValueError, match=rf"(^|: ){name} must be an integer, got "):
        build()


def test_restart_config_refuses_a_non_numeric_alpha():
    # before, the comparison in _check_bounds raised a bare TypeError
    with pytest.raises(ValueError) as info:
        RestartConfig(alpha="2")
    assert str(info.value) == "RestartConfig: alpha must be a number, got '2'"


def test_long_run_min_refuses_zero_stages():
    # total_iters // stages used to raise ZeroDivisionError
    with pytest.raises(ValueError, match="long_run_min: stages must be >= 1, got 0"):
        long_run_min(ABS, ZERO, total_iters=100, stages=0)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: piecewise_linear_erm(DATA, loss="eps_insensitive", eps_ins=math.nan),
         "piecewise_linear_erm: eps_ins must be finite and >= 0, got nan"),
        (lambda: piecewise_linear_erm(DATA, reg="l1", lam=math.nan),
         "piecewise_linear_erm: lam must be finite and >= 0, got nan"),
        (lambda: synth_regression(2, 1, math.nan, 0),
         "synth_regression: noise must be finite and >= 0, got nan"),
        (lambda: synth_classification(2, 1, math.nan, 0),
         "synth_classification: margin must be finite and >= 0, got nan"),
        (lambda: ErrorBoundParams(0.5, math.inf),
         "ErrorBoundParams: c must be finite and > 0, got inf"),
        (lambda: robust_regression(DATA, 1.5, region_radius=math.inf),
         "robust_regression: region_radius must be finite and > 0, got inf"),
        (lambda: compute_inner_iters(1.0, ErrorBoundParams(1.0, 1.0), math.inf, 2.0),
         "compute_inner_iters: eps must be finite and > 0, got inf"),
    ],
)
def test_nan_and_inf_arguments_are_refused_by_name(build, message):
    # each used to build silently (nan at 0, no noise, no margin, eps = inf
    # taken as a budget of 1) or to be refused by an internal value's name,
    # "lipschitz_bound must be finite and > 0"
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


SHORT = RestartConfig(stages=2, inner_iters=5, eps0=1.0)
L1_2D = miniature_zoo()["l1_2d"]
AT_ZERO = OracleReport(0.0, np.zeros(2), "grid", 0.0, True)

# each solver and each oracle that takes a point -> (its name for it, call)
START_POINTS = {
    "sg_run": ("start point", lambda w: sg_run(L1_2D, w, 0.1, 5)),
    "dap_run": ("start point", lambda w: dap_run(L1_2D, w, 0.1, 5, PNormSpace(1.5))),
    "baseline_sg_decreasing": ("start point", lambda w: baseline_sg_decreasing(L1_2D, w, 0.1, 5)),
    "rsg": ("start point", lambda w: rsg(L1_2D, w, SHORT)),
    "rsg_dap": ("start point", lambda w: rsg_dap(L1_2D, w, RestartConfig(eps0=1.0, norm_p=1.5))),
    "r2sg": ("start point", lambda w: r2sg(L1_2D, w, DoublingConfig(t1=2, max_calls=2), SHORT)),
    "long_run_min": ("w0", lambda w: long_run_min(L1_2D, w, total_iters=10, stages=2)),
    "sublevel_project": ("w", lambda w: sublevel_project(L1_2D, w, 0.3, AT_ZERO)),
}


@pytest.mark.parametrize("w", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0])
@pytest.mark.parametrize("who", sorted(START_POINTS))
def test_a_point_of_the_wrong_shape_is_refused_by_name(who, w):
    # before, a 1-entry start on l1_2d ran to a 1-entry "solution"
    name, call = START_POINTS[who]
    with pytest.raises(ValueError) as exc:
        call(w)
    assert str(exc.value) == f"{who}: {name} must have shape (2,), got {np.shape(w)}"


def _counted_cut(calls):
    """A 16-element path cut whose evaluations append to calls."""
    cut = cut_function(16, [(i, i + 1, 1.0) for i in range(15)])
    return SetFunction(16, lambda mask: calls.append(mask) or cut.evaluate(mask))


def _counted_abs(calls):
    """|w| in one dimension, whose objective calls append to calls."""
    return ProblemInstance(
        dim=1, objective=lambda w: calls.append(w) or abs(w[0]), subgrad=np.sign,
        lipschitz_bound=1.0,
    )


# each budgeted oracle -> (a builder of what it evaluates, the call)
BUDGETS = {
    "grid_min": (_counted_abs, lambda inst, b: grid_min(inst, -1.0, 1.0, 11, budget=b)),
    "enumerate_table": (_counted_cut, lambda fn, b: enumerate_table(fn, budget=b)),
    "submodular_min_enumerate": (_counted_cut, lambda fn, b: submodular_min_enumerate(fn, budget=b)),
}


@pytest.mark.parametrize(
    "budget, message",
    [
        (math.nan, "must be an integer, got nan"),
        (2.5, "must be an integer, got 2.5"),
        (math.inf, "must be an integer, got inf"),
        (0, "must be >= 1, got 0"),
        ("9", "must be a number, got '9'"),
    ],
)
@pytest.mark.parametrize("who", sorted(BUDGETS))
def test_an_oracle_budget_is_refused_before_any_evaluation(who, budget, message):
    # before, nan switched the cap off (total > nan is False): the cut's
    # 65 536 masks were enumerated where a budget of 1000 refuses
    calls = []
    build, call = BUDGETS[who]
    target = build(calls)
    calls.clear()  # the builders may evaluate, as cut_function does
    with pytest.raises(ValueError) as exc:
        call(target, budget)
    assert str(exc.value) == f"{who}: budget {message}" and not calls


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"eps": -1.0}, "eps must be finite and > 0, got -1.0"),
        ({"ray_count": 0}, "ray_count must be >= 1, got 0"),
        ({"ray_count": -5}, "ray_count must be >= 1, got -5"),
        ({"ray_count": 2.5}, "ray_count must be an integer, got 2.5"),
        ({"ray_count": math.nan}, "ray_count must be an integer, got nan"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
    ],
)
def test_estimate_B_eps_refuses_its_arguments_by_name(kwargs, message):
    # before, eps was refused as sample_level_points', ray counts of 0, -5,
    # 2.5 and nan ran, and seed -1 ended in numpy's own error
    args = {"eps": 0.3, "ray_count": 16, "seed": 0, **kwargs}
    with pytest.raises(ValueError) as exc:
        estimate_B_eps(L1_2D, oracle=AT_ZERO, **args)
    assert str(exc.value) == f"estimate_B_eps: {message}"
