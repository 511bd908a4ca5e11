"""Benchmark CLI: single runs, multi-config comparisons, and the numerical
verification suites.

Config files are flat ``section.key = value`` lines (blank lines and
``#`` comments ignored).  Unknown keys and keys that do not apply to the
selected problem kind / solver algo are rejected.  Exit codes: 0 success,
1 config error, 2 data error, 3 divergence (the partial trace is still
written), 4 verification failure.

Outputs per run: ``<run_id>.csv`` — the iteration trace with header
``run_id,algo,stage,iter,cum_iter,objective,eta,wallclock_ns`` (rows
ordered by cum_iter; the wallclock column is written as 0 unless --timing
is passed, keeping default outputs bitwise reproducible) — and
``<run_id>.json``, a summary whose echoed config reproduces the run (its
``wallclock_ns_total`` is 0 unless --timing, too).

Every CSV is RFC 4180 with CRLF row ends and no quoting: its fields are hex
run ids, fixed algo names, ints, floats as Python ``repr`` and empty cells,
none of which holds a comma, quote or line break.  The run and merged CSVs
are formatted row by row as they stream to disk, so neither is held whole
in memory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core import ErrorBoundParams, ProblemInstance, _check_bounds, conjugate_exponent
from .data import (
    binarize_labels,
    load_edge_list,
    parse_libsvm,
    scale_max_abs,
    synth_classification,
    synth_regression,
)
from .oracles import long_run_min
from .problems import (
    _LOSSES,
    _REGS,
    Dataset,
    cut_function,
    gflasso_svm,
    graph_from_correlation,
    lovasz_problem,
    piecewise_linear_erm,
    robust_regression,
)
from .solvers import (
    DivergenceError,
    DoublingConfig,
    RestartConfig,
    SolveTrace,
    _prepare,
    baseline_sg_decreasing,
    compute_inner_iters,
    compute_stage_count,
    r2sg,
    rsg,
    rsg_dap,
    sg_run,
)
from .verify import SUITES, run_suite

__all__ = ["ConfigError", "DataError", "RunSpec", "cmd_run", "cmd_compare", "cmd_verify", "main"]

CSV_HEADER = ["run_id", "algo", "stage", "iter", "cum_iter", "objective", "eta", "wallclock_ns"]


class ConfigError(ValueError):
    """Bad configuration: unknown key, bad value, or inconsistent block."""


class DataError(Exception):
    """Unreadable or unusable input data."""


@contextlib.contextmanager
def _raised_as(error: type, caught: tuple = (ValueError,), prefix: str = "") -> Iterator[None]:
    """Raise the caught exceptions as error, ConfigError (exit 1) or
    DataError (exit 2), with prefix before their message."""
    try:
        yield
    except caught as exc:
        raise error(prefix + str(exc)) from exc


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean (true/false), got {s!r}")


_KINDS = ("robust_regression", "pwl", "gflasso", "lovasz_cut")
_ALGOS = ("sg", "rsg", "rsg_dap", "r2sg", "baseline_sg")

_DATA_KINDS = ("robust_regression", "pwl", "gflasso")
_SCHEDULED = ("rsg", "rsg_dap", "r2sg")
_FIXED_BUDGET = ("rsg", "rsg_dap")
_PNORM = ("rsg_dap", "r2sg")
_PLAIN = ("sg", "baseline_sg")
_ROBUST = ("robust_regression",)


class _Key(NamedTuple):
    """A config key: its python type, default, the problem kinds / solver
    algos it applies to, the interval a numeric value must lie in (as
    :func:`rsgkit.core._check_bounds` reads it), the values a named choice
    may take, and the kinds / algos that must set it.  Other "str" values
    are validated further downstream."""

    type: type
    default: object
    applies: tuple[str, ...]
    bounds: Optional[str] = None
    choices: Optional[tuple[str, ...]] = None
    required: tuple[str, ...] = ()


# output.* keys apply everywhere; echo() materializes only solver.* and
# output.* defaults.  problem.kind and solver.algo lead the rows that apply
# by them, so validate() checks each choice before those rows.
_KEYS: dict[str, _Key] = {
    "problem.kind": _Key(str, None, _KINDS, choices=_KINDS),
    "problem.path": _Key(str, None, _DATA_KINDS),
    "problem.dim": _Key(int, None, _KINDS, "[1, inf)", required=("lovasz_cut",)),
    "problem.positive_class": _Key(float, None, _DATA_KINDS),
    "problem.scale_features": _Key(bool, False, _DATA_KINDS),
    "problem.synth": _Key(str, None, _DATA_KINDS, choices=("regression", "classification")),
    "problem.n": _Key(int, None, _DATA_KINDS, "[1, inf)"),
    "problem.d": _Key(int, None, _DATA_KINDS, "[1, inf)"),
    "problem.noise": _Key(float, 0.0, _DATA_KINDS, "[0, inf)"),
    "problem.margin": _Key(float, 1.0, _DATA_KINDS, "[0, inf)"),
    "problem.data_seed": _Key(int, 0, _DATA_KINDS, "[0, inf)"),
    "problem.p_loss": _Key(float, None, _ROBUST, "(1, 2)", required=_ROBUST),
    "problem.region_radius": _Key(float, None, _ROBUST, "(0, inf)"),
    "problem.constrain_region": _Key(bool, False, _ROBUST),
    "problem.loss": _Key(str, "hinge", ("pwl",), choices=_LOSSES),
    "problem.reg": _Key(str, "none", ("pwl",), choices=_REGS),
    "problem.lam": _Key(float, 0.0, ("pwl", "gflasso"), "[0, inf)", required=("gflasso",)),
    "problem.radius": _Key(float, 1.0, ("pwl",), "(0, inf)"),
    "problem.eps_ins": _Key(float, 0.1, ("pwl",), "[0, inf)"),
    "problem.edges": _Key(str, None, ("gflasso", "lovasz_cut"), required=("lovasz_cut",)),
    "problem.corr_cutoff": _Key(float, None, ("gflasso",), "(0, 1]"),
    "solver.algo": _Key(str, None, _ALGOS, choices=_ALGOS),
    "solver.alpha": _Key(float, 2.0, _SCHEDULED, "(1, inf)"),
    "solver.stages": _Key(int, None, _SCHEDULED, "[1, inf)", required=("r2sg",)),
    "solver.t": _Key(int, None, _FIXED_BUDGET, "[1, inf)"),
    "solver.eps0": _Key(float, None, _SCHEDULED, "(0, inf)"),
    "solver.target_eps": _Key(float, None, _SCHEDULED, "(0, inf)"),
    "solver.norm_p": _Key(float, 2.0, _PNORM, "(1, 2]"),
    "solver.lambda_mode": _Key(str, "unit", _PNORM, choices=("unit", "inv_grad_norm")),
    "solver.eta_scale": _Key(float, 1.0, _SCHEDULED, "(0, inf)"),
    "solver.eta": _Key(float, None, ("sg",), "(0, inf)", required=("sg",)),
    "solver.T": _Key(int, None, _PLAIN, "[1, inf)", required=_PLAIN),
    "solver.eta0": _Key(float, None, ("baseline_sg",), "(0, inf)", required=("baseline_sg",)),
    "solver.t1": _Key(int, None, ("r2sg",), "[1, inf)", required=("r2sg",)),
    "solver.theta": _Key(float, 0.0, ("r2sg",), "[0, 1)"),
    "solver.growth": _Key(float, None, ("r2sg",), "(1, inf)"),
    "solver.max_calls": _Key(int, 1, ("r2sg",), "[1, inf)"),
    "solver.rel_tol": _Key(float, 1e-10, ("r2sg",), "[0, inf]"),
    "solver.recalibrate_eps0": _Key(bool, False, ("r2sg",)),
    "solver.theta_eb": _Key(float, None, _FIXED_BUDGET, "[0, 1]"),
    "solver.c_eb": _Key(float, None, _FIXED_BUDGET, "(0, inf)"),
    "solver.w0": _Key(str, "zeros", _ALGOS, choices=("zeros", "gaussian")),
    "solver.seed": _Key(int, 0, _ALGOS, "[0, inf)"),
    "output.dir": _Key(str, ".", _ALGOS),
    "output.stride": _Key(int, None, _ALGOS, "[1, inf)"),
    "output.timing": _Key(bool, False, _ALGOS),
    "output.oracle_report": _Key(bool, False, _ALGOS),
}


def _canon(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class RunSpec:
    """A validated run configuration.  ``values`` maps schema keys to typed
    values; echo() renders the canonical form (defaults materialized) that
    reproduces the run and seeds the run id."""

    values: dict

    @classmethod
    def from_text(cls, text: str, origin: str = "<config>") -> "RunSpec":
        values: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{origin}:{lineno}: expected key = value, got {raw!r}")
            key = key.strip()
            value = value.strip()
            if key not in _KEYS:
                raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
            typ = _KEYS[key].type
            try:
                values[key] = _parse_bool(value) if typ is bool else typ(value)
            except ValueError:
                raise ConfigError(
                    f"{origin}:{lineno}: key {key!r} expects {typ.__name__}, got {value!r}"
                ) from None
        spec = cls(values)
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path: str | Path) -> "RunSpec":
        with _raised_as(ConfigError, (OSError,), f"cannot read config {path}: "):
            text = Path(path).read_text(encoding="utf-8")
        return cls.from_text(text, origin=str(path))

    def with_overrides(self, overrides: dict) -> "RunSpec":
        values = dict(self.values)
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in _KEYS:
                raise ConfigError(f"unknown override key {key!r}")
            values[key] = val
        spec = RunSpec(values)
        spec.validate()
        return spec

    def get(self, key: str):
        return self.values.get(key, _KEYS[key].default)

    def require(self, key: str):
        val = self.get(key)
        if val is None:
            raise ConfigError(f"missing required key {key!r}")
        return val

    def validate(self) -> None:
        """One pass over _KEYS, which checks each set key's choice, then
        whether it applies (so a key that does not apply is named so, in
        range or not), then its range, and that every key the kind or algo
        requires is set; then the rules that span keys."""
        kind, algo = self.require("problem.kind"), self.require("solver.algo")
        for key, row in _KEYS.items():
            by = "problem.kind" if key.startswith("problem.") else "solver.algo"
            owner = self.values[by]
            if key not in self.values:
                if owner in row.required:
                    raise ConfigError(f"missing required key {key!r}")
                continue
            value = self.values[key]
            if row.choices is not None and value not in row.choices:
                raise ConfigError(f"{key} must be one of {row.choices}, got {value!r}")
            if owner not in row.applies:
                raise ConfigError(f"key {key!r} does not apply to {by}={owner}")
            with _raised_as(ConfigError):
                _check_bounds("", row.bounds, **{key: value})
        if kind == "lovasz_cut":  # SetFunction's ground-set range, before any file is read
            with _raised_as(ConfigError):
                _check_bounds("", "int [1, 24]", **{"problem.dim": self.get("problem.dim")})
        else:
            if self.get("problem.path") is None and self.get("problem.synth") is None:
                raise ConfigError("need problem.path or problem.synth")
            if self.get("problem.synth") is not None:
                for need in ("problem.n", "problem.d"):
                    self.require(need)
        if kind == "gflasso":
            if self.get("problem.edges") is None and self.get("problem.corr_cutoff") is None:
                raise ConfigError("gflasso needs problem.edges or problem.corr_cutoff")
        if algo in _FIXED_BUDGET:
            if self.get("solver.stages") is None and self.get("solver.target_eps") is None:
                raise ConfigError(f"{algo} needs solver.stages or solver.target_eps")
            if self.get("solver.t") is None and (
                self.get("solver.theta_eb") is None
                or self.get("solver.c_eb") is None
                or self.get("solver.target_eps") is None
            ):
                raise ConfigError(
                    f"{algo} needs solver.t, or solver.theta_eb + solver.c_eb + "
                    f"solver.target_eps to derive it"
                )

    def echo(self) -> dict[str, str]:
        """Canonical config: every set key plus materialized defaults.

        Only defaults that apply to the selected algo are added, so the
        echo itself parses as a valid config (the round-trip invariant).
        output.dir is excluded — where artifacts land is not part of the
        run's identity, so the same config written to two directories
        yields the same run id and bitwise-identical artifacts."""
        algo = self.require("solver.algo")
        out = {k: _canon(v) for k, v in self.values.items()}
        for key, row in _KEYS.items():
            if row.default is not None and not key.startswith("problem.") and algo in row.applies:
                out.setdefault(key, _canon(row.default))
        out.pop("output.dir", None)
        return dict(sorted(out.items()))

    @property
    def run_id(self) -> str:
        blob = "\n".join(f"{k}={v}" for k, v in self.echo().items())
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _load_dataset(spec: RunSpec) -> Dataset:
    path = spec.get("problem.path")
    with _raised_as(DataError, (OSError, ValueError, MemoryError)):
        if path is not None:
            data = parse_libsvm(path, dim=spec.get("problem.dim"))
        else:
            synth = spec.require("problem.synth")
            n = spec.require("problem.n")
            d = spec.require("problem.d")
            seed = spec.get("problem.data_seed")
            if synth == "regression":
                data = synth_regression(n, d, spec.get("problem.noise"), seed)
            else:
                data = synth_classification(n, d, spec.get("problem.margin"), seed)
        if spec.get("problem.positive_class") is not None:
            data = binarize_labels(data, spec.get("problem.positive_class"))
        if spec.get("problem.scale_features"):
            data = scale_max_abs(data)
        return data


@contextlib.contextmanager
def _naming_the_file(spec: RunSpec, data: Dataset) -> Iterator[None]:
    """Raise a ValueError or MemoryError from building a problem on a data
    file as a DataError naming the file and its largest feature index, which
    sets the dimension unless problem.dim does."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        path = spec.get("problem.path")
        if path is None:
            raise
        largest = int(data.X.indices.max(initial=-1)) + 1
        raise DataError(f"{path}, largest feature index {largest}: {exc}") from exc


def build_problem(spec: RunSpec, data: Optional[Dataset] = None) -> ProblemInstance:
    """Construct the configured ProblemInstance.  Its data is loaded here
    unless given as data, which must be what the spec's problem block loads.
    Config mistakes raise ConfigError; bad or unusable data raises DataError."""
    kind = spec.require("problem.kind")
    norm_q = conjugate_exponent(float(spec.get("solver.norm_p")))
    with _raised_as(DataError, (OSError, ValueError, MemoryError)):
        if kind == "lovasz_cut":
            dim = spec.require("problem.dim")
            graph = load_edge_list(spec.require("problem.edges"), dim)
            setfn = cut_function(dim, graph.edges)
            return lovasz_problem(setfn, norm_q=norm_q, fstar_lower_bound=0.0)
        if data is None:
            data = _load_dataset(spec)
        graph = None
        if kind == "gflasso" and spec.get("problem.edges") is not None:
            graph = load_edge_list(spec.require("problem.edges"), data.d)
        with _naming_the_file(spec, data):
            if kind == "robust_regression":
                return robust_regression(
                    data,
                    p_loss=spec.require("problem.p_loss"),
                    region_radius=spec.get("problem.region_radius"),
                    constrain_to_region=spec.get("problem.constrain_region"),
                    norm_q=norm_q,
                )
            if kind == "pwl":
                return piecewise_linear_erm(
                    data,
                    loss=spec.get("problem.loss"),
                    reg=spec.get("problem.reg"),
                    lam=spec.get("problem.lam"),
                    radius=spec.get("problem.radius"),
                    eps_ins=spec.get("problem.eps_ins"),
                    norm_q=norm_q,
                )
            # gflasso
            if graph is None:
                graph = graph_from_correlation(data, spec.require("problem.corr_cutoff"))
            return gflasso_svm(data, graph, lam=spec.require("problem.lam"), norm_q=norm_q)


def _initial_point(spec: RunSpec, problem: ProblemInstance) -> np.ndarray:
    mode = spec.get("solver.w0")
    if mode == "gaussian":
        rng = np.random.default_rng(int(spec.get("solver.seed")))
        w0 = rng.standard_normal(problem.dim)
    else:
        w0 = np.zeros(problem.dim)
    return problem.feasible(w0)


def _plan(spec: RunSpec, problem: ProblemInstance) -> tuple[Callable[[], SolveTrace], dict]:
    """Everything a run does short of iterating: the start point, eps0, the
    derived budgets and the solver configs.  Returns the solve as a closure
    plus the summary extras.  The solvers' one entry checks it here, so a
    bad value raises ConfigError before any artifact exists."""
    algo = spec.require("solver.algo")
    stride = spec.get("output.stride")
    extras: dict[str, object] = {"problem_name": problem.name, "dim": problem.dim}
    with _raised_as(ConfigError):
        w0 = _initial_point(spec, problem)
        if algo == "sg":
            eta, T = spec.require("solver.eta"), spec.require("solver.T")
            _prepare("sg_run", problem, w0, stride, eta, T)
            return (lambda: sg_run(problem, w0, eta, T, stride)[1]), extras
        if algo == "baseline_sg":
            eta0, T = spec.require("solver.eta0"), spec.require("solver.T")
            _prepare("baseline_sg_decreasing", problem, w0, stride, eta0, T, decreasing=True)
            return (lambda: baseline_sg_decreasing(problem, w0, eta0, T, stride)), extras
        alpha = float(spec.get("solver.alpha"))
        eps0 = spec.get("solver.eps0")
        if eps0 is None:
            eps0 = problem.default_eps0(w0)
        extras["eps0_effective"] = eps0
        target = spec.get("solver.target_eps")
        stages = spec.get("solver.stages")
        t = spec.get("solver.t")
        if stages is None:
            stages = compute_stage_count(eps0, target, alpha)
            extras["stages_derived"] = stages
        if t is None and algo in _FIXED_BUDGET:
            eb = ErrorBoundParams(spec.require("solver.theta_eb"), spec.require("solver.c_eb"))
            t = compute_inner_iters(problem.lipschitz_bound, eb, target, alpha)
            extras["t_derived"] = t
        cfg = RestartConfig(
            alpha=alpha,
            stages=int(stages),
            inner_iters=int(t) if t is not None else 1,
            eps0=float(eps0),
            target_eps=target,
            norm_p=float(spec.get("solver.norm_p")),
            lambda_mode=spec.get("solver.lambda_mode"),
            eta_scale=float(spec.get("solver.eta_scale")),
        )
        if algo in _FIXED_BUDGET:
            _prepare(algo, problem, w0, stride, cfg=cfg, dap=algo == "rsg_dap")
            solver = rsg if algo == "rsg" else rsg_dap
            return (lambda: solver(problem, w0, cfg, stride)[1]), extras
        dcfg = DoublingConfig(
            t1=spec.require("solver.t1"),
            restart_every=int(stages),
            theta=float(spec.get("solver.theta")),
            max_calls=int(spec.get("solver.max_calls")),
            growth=spec.get("solver.growth"),
            rel_tol=float(spec.get("solver.rel_tol")),
            recalibrate_eps0=bool(spec.get("solver.recalibrate_eps0")),
        )
        _prepare("r2sg", problem, w0, stride, cfg=cfg, dcfg=dcfg, dap=cfg.norm_p != 2.0)
        return (lambda: r2sg(problem, w0, dcfg, cfg, stride)[1]), extras


class _ReprCache:
    """repr of a float, formatted again only when a different object comes:
    a stage logs one eta object on every row, and the best-so-far object
    stays the same while the objective does not improve."""

    __slots__ = ("obj", "text")

    def __init__(self) -> None:
        self.obj, self.text = None, "None"

    def __call__(self, x: float) -> str:
        if x is not self.obj:
            self.obj, self.text = x, repr(x)
        return self.text


def _trace_csv_rows(run_id: str, algo: str, trace: SolveTrace, timing: bool) -> Iterator[str]:
    """The run CSV, one CRLF-terminated row at a time."""
    yield ",".join(CSV_HEADER) + "\r\n"
    head = f"{run_id},{algo},"
    eta = _ReprCache()
    for r in trace.records:
        yield (
            f"{head}{r.stage},{r.iter},{r.cum_iter},{r.objective!r},{eta(r.eta)},"
            f"{int(r.wallclock_ns) if timing else 0}\r\n"
        )


def _merged_csv_rows(ids: Sequence[str], traces: Sequence[SolveTrace]) -> Iterator[str]:
    """The compare CSV: one row per cum_iter any member logged, with each
    member's objective and best-so-far, or two empty cells where it logged
    nothing."""
    yield "cum_iter" + "".join(f",objective_{rid},best_{rid}" for rid in ids) + "\r\n"
    per_run = [{r.cum_iter: r for r in tr.records} for tr in traces]
    members = [(m.get, _ReprCache()) for m in per_run]
    for cum in sorted(set().union(*per_run)):
        cells = []
        for rec_at, best in members:
            rec = rec_at(cum)
            cells.append(",," if rec is None else f",{rec.objective!r},{best(rec.best)}")
        yield f"{cum}{''.join(cells)}\r\n"


def _crossings(trace: SolveTrace, thresholds: Sequence[float]) -> list[Optional[int]]:
    """cum_iter of the first record whose best-so-far reaches each threshold
    (None if none does).  best never rises along a trace, so one walk over
    the records serves the thresholds in descending order; a NaN threshold
    is never reached."""
    reachable = [i for i, thr in enumerate(thresholds) if thr == thr]
    order = sorted(reachable, key=lambda i: -thresholds[i])
    hits: list[Optional[int]] = [None] * len(thresholds)
    k = 0
    for r in trace.records:
        while k < len(order) and r.best <= thresholds[order[k]]:
            hits[order[k]] = r.cum_iter
            k += 1
        if k == len(order):
            break
    return hits


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the chunks to a temporary file next to path, then move it into
    place: a failure, in the chunks' producer too, leaves neither behind."""
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _json_safe(obj):
    """Replace non-finite floats with strings so the summary stays strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def cmd_run(spec: RunSpec, out_dir: Optional[str] = None) -> tuple[int, dict]:
    """Execute one run and write ``<run_id>.csv`` + ``<run_id>.json``.

    Returns (exit code, artifacts); exit code 3 flags divergence, in which
    case the partial trace is still written.  Config and data problems
    raise ConfigError / DataError instead (the caller maps them to exit
    codes 1 / 2 before any artifact exists).
    """
    problem = build_problem(spec)
    solve, extras = _plan(spec, problem)
    return _write_run(spec, problem, solve, extras, _out_dir(spec, out_dir))


def _out_dir(spec: RunSpec, out_dir: Optional[str]) -> Path:
    """The output directory (out_dir, else output.dir), made before any solve:
    a path that cannot be a directory is a config error with no artifact."""
    out = Path(out_dir if out_dir is not None else spec.get("output.dir"))
    with _raised_as(ConfigError, (OSError,), f"output.dir {str(out)!r} is not a directory: "):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run(
    spec: RunSpec,
    problem: ProblemInstance,
    solve: Callable[[], SolveTrace],
    extras: dict,
    out: Path,
) -> tuple[int, dict]:
    """Run a planned solve and write its artifacts into the directory out."""
    run_id = spec.run_id
    algo = spec.require("solver.algo")
    code = 0
    error: Optional[str] = None
    try:
        # the solvers raise ValueError only on their arguments, before the
        # first step: one the plan let through is still a config mistake
        with _raised_as(ConfigError):
            trace = solve()
    except DivergenceError as exc:
        trace = exc.trace
        code = 3
        error = str(exc)
    csv_path = out / f"{run_id}.csv"
    timing = bool(spec.get("output.timing"))
    _atomic_write(csv_path, _trace_csv_rows(run_id, algo, trace, timing))
    summary = {
        "run_id": run_id,
        "algo": algo,
        "exit_code": code,
        "error": error,
        "config": spec.echo(),
        "seed": int(spec.get("solver.seed")),
        "w0_mode": spec.get("solver.w0"),
        "prng": "pcg64",
        "final_objective": trace.final_objective,
        "best_objective": trace.best_objective,
        "total_iters": trace.total_iters,
        "stages": [
            {"stage": s.stage, "cum_iter": s.cum_iter, "eta": s.eta, "objective": s.objective}
            for s in trace.stage_results
        ],
        "wallclock_ns_total": trace.wallclock_ns_total if timing else 0,
        "csv": csv_path.name,
        **extras,
    }
    if code == 0 and spec.get("output.oracle_report") and trace.final_point is not None:
        report = long_run_min(problem, trace.final_point, total_iters=20_000, stages=20)
        summary["oracle"] = report.to_dict()
    json_path = out / f"{run_id}.json"
    _atomic_write(
        json_path,
        [json.dumps(_json_safe(summary), sort_keys=True, indent=2, allow_nan=False), "\n"],
    )
    return code, {"csv": csv_path, "summary": json_path, "trace": trace, "run_id": run_id}


def cmd_compare(
    specs: Sequence[RunSpec],
    out_dir: Optional[str] = None,
    thresholds: Sequence[float] = (),
) -> tuple[int, dict]:
    """Run several solver configs on one problem and merge the traces.

    All specs must share an identical problem block.  Every member is
    planned (problem built, solver config checked) before the first one
    runs, so a config or data error leaves no artifact.  Member runs write
    their usual artifacts (atomically); the merge
    aligns records by cumulative iteration, adds per-run objective and
    best-so-far columns, and tabulates iterations-to-threshold on the
    best-so-far values.  Returns the max member exit code.
    """
    if not specs:
        raise ConfigError("cmd_compare: no run configs given")
    base = {k: v for k, v in specs[0].echo().items() if k.startswith("problem.")}
    for spec in specs[1:]:
        block = {k: v for k, v in spec.echo().items() if k.startswith("problem.")}
        if block != base:
            raise ConfigError("cmd_compare: all configs must share the same problem block")
    # plan every member before the first run writes: the problem block is
    # shared, so its data is loaded once and the problem built from it once
    # per solver.norm_p (which sets the dual norm of its declared bound)
    data: Optional[Dataset] = None
    problems: dict[float, ProblemInstance] = {}
    planned = []
    for spec in specs:
        norm_p = float(spec.get("solver.norm_p"))
        if norm_p not in problems:
            if data is None and spec.require("problem.kind") in _DATA_KINDS:
                data = _load_dataset(spec)
            problems[norm_p] = build_problem(spec, data)
        planned.append((spec, problems[norm_p], *_plan(spec, problems[norm_p])))
    ids = [s.run_id for s in specs]
    out = _out_dir(specs[0], out_dir)
    results = [_write_run(*member, out) for member in planned]
    code = max(r[0] for r in results)
    traces = [r[1]["trace"] for r in results]
    algos = [s.require("solver.algo") for s in specs]

    merged_id = hashlib.sha256("|".join(ids).encode()).hexdigest()[:12]
    merged_path = out / f"compare_{merged_id}.csv"
    _atomic_write(merged_path, _merged_csv_rows(ids, traces))

    lines = [f"compare {merged_id}: {len(specs)} runs"]
    for rid, algo, tr in zip(ids, algos, traces):
        lines.append(
            f"  {rid} {algo}: final {tr.final_objective!r} best {tr.best_objective!r} "
            f"iters {tr.total_iters}"
        )
    thresholds_path = None
    if thresholds:
        thr_text = [repr(float(thr)) for thr in thresholds]
        hits = [_crossings(tr, thresholds) for tr in traces]
        table = [",".join(["threshold", *ids]) + "\r\n"]
        for i, thr in enumerate(thr_text):
            table.append(thr + "".join("," if h[i] is None else f",{h[i]}" for h in hits) + "\r\n")
            lines.append(
                f"  threshold {thr}: "
                + ", ".join(f"{rid}@{'-' if h[i] is None else h[i]}" for rid, h in zip(ids, hits))
            )
        thresholds_path = out / f"compare_{merged_id}_thresholds.csv"
        _atomic_write(thresholds_path, table)
    print("\n".join(lines))
    return code, {
        "merged": merged_path,
        "thresholds": thresholds_path,
        "runs": results,
        "compare_id": merged_id,
    }


def cmd_verify(suite: str) -> int:
    """Run a verification suite; prints the report, exit 0 on pass, 4 on fail."""
    ok, lines = run_suite(suite)
    print("\n".join(lines))
    return 0 if ok else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsgkit",
        description="Restarted subgradient benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory (overrides output.dir)")
    common.add_argument("--seed", type=int, help="override solver.seed")
    common.add_argument("--stride", type=int, help="override output.stride")
    common.add_argument("--timing", action="store_true", help="write real wallclock_ns")

    runp = sub.add_parser("run", parents=[common], help="execute one configured run")
    runp.add_argument("--config", required=True, help="path to a key=value config file")

    cmp_p = sub.add_parser("compare", parents=[common], help="run several configs on one problem")
    cmp_p.add_argument(
        "--config", action="append", required=True, help="config file (repeatable)"
    )
    cmp_p.add_argument(
        "--thresholds",
        help="comma-separated objective thresholds for the crossing table",
    )

    ver = sub.add_parser("verify", help="run a numerical verification suite")
    ver.add_argument("suite", choices=sorted(SUITES))
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The keys the shared flags of run and compare override; None (a flag
    not given) overrides nothing."""
    return {
        "output.dir": args.out,
        "solver.seed": args.seed,
        "output.stride": args.stride,
        "output.timing": args.timing or None,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            spec = RunSpec.from_file(args.config).with_overrides(_overrides_from_args(args))
            code, artifacts = cmd_run(spec)
            trace: SolveTrace = artifacts["trace"]
            status = "diverged" if code == 3 else "done"
            print(
                f"run {artifacts['run_id']} {status}: final {trace.final_objective!r} "
                f"best {trace.best_objective!r} iters {trace.total_iters} "
                f"-> {artifacts['csv']}"
            )
            return code
        if args.command == "compare":
            over = _overrides_from_args(args)
            specs = [RunSpec.from_file(p).with_overrides(over) for p in args.config]
            thresholds: list[float] = []
            if args.thresholds:
                with _raised_as(ConfigError, prefix="--thresholds expects numbers: "):
                    thresholds = [float(x) for x in args.thresholds.split(",") if x.strip()]
            code, _ = cmd_compare(specs, args.out, thresholds=thresholds)
            return code
        # verify
        return cmd_verify(args.suite)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
