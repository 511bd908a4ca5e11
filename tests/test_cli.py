"""CLI behaviour: config parsing, run ids, artifacts, exit codes, compare."""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from rsgkit import cli
from rsgkit.cli import CSV_HEADER, ConfigError, RunSpec, build_problem, cmd_compare, cmd_run, main
from rsgkit.data import (
    binarize_labels,
    dump_libsvm,
    parse_libsvm,
    scale_max_abs,
    synth_classification,
    synth_regression,
)
from rsgkit.problems import (
    GFlassoGraph,
    gflasso_svm,
    graph_from_correlation,
    piecewise_linear_erm,
)
from rsgkit.solvers import (
    DoublingConfig,
    RestartConfig,
    SolveTrace,
    TraceRecord,
    compute_inner_iters,
    compute_stage_count,
    r2sg,
    rsg,
)
from rsgkit.core import ErrorBoundParams, conjugate_exponent

BASE = """\
# small separable hinge problem
problem.kind = pwl
problem.synth = classification
problem.n = 20
problem.d = 3
problem.margin = 0.5
problem.data_seed = 1
problem.loss = hinge

solver.algo = rsg
solver.stages = 3
solver.t = 40
solver.eps0 = 1.0
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------------------
# RunSpec


def test_runspec_parses_comments_and_defaults():
    spec = RunSpec.from_text(BASE)
    assert spec.get("solver.alpha") == 2.0  # default materializes on read
    assert spec.get("solver.t") == 40
    echo = spec.echo()
    assert echo["solver.alpha"] == "2.0"
    assert echo["solver.w0"] == "zeros"
    assert "output.dir" not in echo


def test_runspec_run_id_ignores_key_order_and_output_dir():
    lines = [ln for ln in BASE.splitlines() if ln.strip() and not ln.startswith("#")]
    shuffled = "\n".join(reversed(lines))
    assert RunSpec.from_text(BASE).run_id == RunSpec.from_text(shuffled).run_id
    moved = RunSpec.from_text(BASE).with_overrides({"output.dir": "elsewhere"})
    assert moved.run_id == RunSpec.from_text(BASE).run_id


def test_runspec_run_id_tracks_semantic_changes():
    other = BASE.replace("solver.t = 40", "solver.t = 41")
    assert RunSpec.from_text(BASE).run_id != RunSpec.from_text(other).run_id


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda t: t + "nonsense.key = 1\n", "unknown key"),
        (lambda t: t + "solver.t = 40\n", "duplicate"),
        (lambda t: t.replace("solver.t = 40", "solver.t = forty"), "expects int"),
        (lambda t: t.replace("problem.kind = pwl\n", ""), "problem.kind"),
        (lambda t: t + "problem.p_loss = 1.5\n", "does not apply"),
        (lambda t: t + "solver.eta = 0.1\n", "does not apply"),
        (lambda t: t + "solver.norm_p = 1.5\n", "does not apply"),
        (lambda t: t.replace("solver.stages = 3\n", ""), "stages or solver.target_eps"),
        (lambda t: t.replace("solver.t = 40\n", ""), "solver.t"),
        (lambda t: t + "solver.w0 = random\n", "w0"),
        (lambda t: t.replace("problem.n = 20\n", ""), "problem.n"),
        (lambda t: t.replace("problem.synth = classification\n", ""), "path or problem.synth"),
    ],
)
def test_runspec_rejects_bad_configs(mutate, match):
    with pytest.raises(ConfigError, match=match):
        RunSpec.from_text(mutate(BASE))


def test_runspec_sg_requires_eta_and_T():
    text = BASE.replace("solver.algo = rsg", "solver.algo = sg")
    text = "\n".join(
        ln for ln in text.splitlines() if not ln.startswith(("solver.stages", "solver.t ", "solver.eps0"))
    )
    with pytest.raises(ConfigError, match="solver.eta"):
        RunSpec.from_text(text)
    RunSpec.from_text(text + "\nsolver.eta = 0.1\nsolver.T = 10\n")


def test_runspec_r2sg_requires_t1_and_schedule():
    text = BASE.replace("solver.algo = rsg", "solver.algo = r2sg")
    with pytest.raises(ConfigError, match="t1"):
        RunSpec.from_text(text.replace("solver.t = 40\n", ""))
    ok = text.replace("solver.t = 40", "solver.t1 = 40")
    RunSpec.from_text(ok)
    with pytest.raises(ConfigError, match="missing required key 'solver.stages'"):
        RunSpec.from_text(ok.replace("solver.stages = 3\n", ""))


# Which keys validate() accepts per problem.kind and per solver.algo, and
# the defaults echo() materializes per algo: pinned literally so a change to
# the key table cannot move a run id or widen what a config may say.
_KIND_ACCEPTS = {
    "robust_regression": {
        "problem.constrain_region", "problem.d", "problem.data_seed", "problem.dim",
        "problem.kind", "problem.margin", "problem.n", "problem.noise", "problem.p_loss",
        "problem.path", "problem.positive_class", "problem.region_radius",
        "problem.scale_features", "problem.synth",
    },
    "pwl": {
        "problem.d", "problem.data_seed", "problem.dim", "problem.eps_ins", "problem.kind",
        "problem.lam", "problem.loss", "problem.margin", "problem.n", "problem.noise",
        "problem.path", "problem.positive_class", "problem.radius", "problem.reg",
        "problem.scale_features", "problem.synth",
    },
    "gflasso": {
        "problem.corr_cutoff", "problem.d", "problem.data_seed", "problem.dim",
        "problem.edges", "problem.kind", "problem.lam", "problem.margin", "problem.n",
        "problem.noise", "problem.path", "problem.positive_class", "problem.scale_features",
        "problem.synth",
    },
    "lovasz_cut": {"problem.dim", "problem.edges", "problem.kind"},
}
_EVERY_ALGO = {
    "output.dir", "output.oracle_report", "output.stride", "output.timing",
    "solver.algo", "solver.seed", "solver.w0",
}
_SCHEDULE = {
    "solver.alpha", "solver.eps0", "solver.eta_scale", "solver.stages", "solver.target_eps",
}
_FIXED_SCHEDULE = _SCHEDULE | {"solver.c_eb", "solver.t", "solver.theta_eb"}
_ALGO_ACCEPTS = {
    "sg": _EVERY_ALGO | {"solver.T", "solver.eta"},
    "baseline_sg": _EVERY_ALGO | {"solver.T", "solver.eta0"},
    "rsg": _EVERY_ALGO | _FIXED_SCHEDULE,
    "rsg_dap": _EVERY_ALGO | _FIXED_SCHEDULE | {"solver.lambda_mode", "solver.norm_p"},
    "r2sg": _EVERY_ALGO
    | _SCHEDULE
    | {
        "solver.growth", "solver.lambda_mode", "solver.max_calls", "solver.norm_p",
        "solver.recalibrate_eps0", "solver.rel_tol", "solver.t1", "solver.theta",
    },
}
_ECHOED_EVERYWHERE = {
    "output.oracle_report": "false", "output.timing": "false", "solver.seed": "0",
    "solver.w0": "zeros",
}
_ECHOED_SCHEDULE = {**_ECHOED_EVERYWHERE, "solver.alpha": "2.0", "solver.eta_scale": "1.0"}
_ECHOED_PNORM = {**_ECHOED_SCHEDULE, "solver.lambda_mode": "unit", "solver.norm_p": "2.0"}
_ECHOED_DEFAULTS = {
    "sg": _ECHOED_EVERYWHERE,
    "baseline_sg": _ECHOED_EVERYWHERE,
    "rsg": _ECHOED_SCHEDULE,
    "rsg_dap": _ECHOED_PNORM,
    "r2sg": {
        **_ECHOED_PNORM, "solver.max_calls": "1", "solver.recalibrate_eps0": "false",
        "solver.rel_tol": "1e-10", "solver.theta": "0.0",
    },
}
_MINIMAL_PROBLEM = {
    "robust_regression": "problem.kind = robust_regression\nproblem.synth = regression\n"
    "problem.n = 5\nproblem.d = 2\nproblem.p_loss = 1.5\n",
    "pwl": "problem.kind = pwl\nproblem.synth = regression\nproblem.n = 5\nproblem.d = 2\n",
    "gflasso": "problem.kind = gflasso\nproblem.synth = classification\nproblem.n = 5\n"
    "problem.d = 2\nproblem.lam = 0.1\nproblem.corr_cutoff = 0.5\n",
    "lovasz_cut": "problem.kind = lovasz_cut\nproblem.dim = 3\nproblem.edges = g.txt\n",
}
_MINIMAL_SOLVER = {
    "sg": "solver.algo = sg\nsolver.eta = 0.1\nsolver.T = 5\n",
    "baseline_sg": "solver.algo = baseline_sg\nsolver.eta0 = 0.1\nsolver.T = 5\n",
    "rsg": "solver.algo = rsg\nsolver.stages = 2\nsolver.t = 5\n",
    "rsg_dap": "solver.algo = rsg_dap\nsolver.stages = 2\nsolver.t = 5\n",
    "r2sg": "solver.algo = r2sg\nsolver.t1 = 5\nsolver.stages = 2\n",
}
# a value of the right type for every key, valid wherever the key applies
_SAMPLE_VALUE = {
    "problem.synth": "regression", "problem.loss": "hinge", "problem.reg": "none",
    "problem.path": "x", "problem.edges": "x", "problem.constrain_region": "true",
    "problem.scale_features": "true", "problem.dim": "3", "problem.n": "3", "problem.d": "3",
    "problem.data_seed": "3", "solver.lambda_mode": "unit", "solver.w0": "gaussian",
    "solver.recalibrate_eps0": "true", "solver.alpha": "2.0", "solver.growth": "2.0",
    "solver.norm_p": "1.5", "solver.stages": "3", "solver.t": "3", "solver.T": "3",
    "solver.t1": "3", "solver.max_calls": "3", "solver.seed": "3",
    "output.dir": "x", "output.stride": "3", "output.timing": "true",
    "output.oracle_report": "true",
}


@pytest.mark.parametrize("kind", sorted(_MINIMAL_PROBLEM))
@pytest.mark.parametrize("algo", sorted(_MINIMAL_SOLVER))
def test_runspec_key_applicability_matrix(kind, algo):
    base = _MINIMAL_PROBLEM[kind] + _MINIMAL_SOLVER[algo]
    expected = _KIND_ACCEPTS[kind] | _ALGO_ACCEPTS[algo]
    every_key = set().union(*_KIND_ACCEPTS.values(), *_ALGO_ACCEPTS.values())
    for key in sorted(every_key):
        if f"{key} =" in base:
            assert key in expected
            continue
        text = base + f"{key} = {_SAMPLE_VALUE.get(key, '0.5')}\n"
        if key in expected:
            RunSpec.from_text(text)
        else:
            with pytest.raises(ConfigError, match="does not apply"):
                RunSpec.from_text(text)
    with pytest.raises(ConfigError, match="unknown key"):
        RunSpec.from_text(base + "solver.norm_q = 2.0\n")


@pytest.mark.parametrize("algo", sorted(_MINIMAL_SOLVER))
def test_runspec_echo_materializes_exact_defaults(algo):
    spec = RunSpec.from_text(_MINIMAL_PROBLEM["pwl"] + _MINIMAL_SOLVER[algo])
    added = {k: v for k, v in spec.echo().items() if k not in spec.values}
    assert added == _ECHOED_DEFAULTS[algo]


def test_readme_config_key_table_names_exactly_the_schema_keys():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Config keys", 1)[1]
    documented = {}
    for row in section.strip().split("\n\n", 1)[0].splitlines():
        block = re.match(r"\| `(\w+)\.\*` \| (.*) \|$", row)
        if block:
            # the choice lists in parentheses name values, not keys
            keys = re.sub(r"\([^)]*\)", "", block.group(2))
            documented[block.group(1)] = set(re.findall(r"`([^`]+)`", keys))
    schema = {}
    for key in cli._KEYS:
        prefix, name = key.split(".", 1)
        schema.setdefault(prefix, set()).add(name)
    assert documented == schema


def test_readme_range_choice_and_required_sentences_match_the_key_table():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Config keys", 1)[1]
    text = " ".join(section.split("\n## ", 1)[0].split())
    ranged = re.search(r"Numeric keys with a range are checked (.*?) The named choices", text)
    choices = re.search(r"The named choices \(([^)]*)\)", text)
    required = re.search(r"Some kinds and algos require keys: (.*?)\. ", text)

    def names(words):
        return set(re.findall(r"`(\w+)`", words))

    def short(keys):
        return {k.split(".", 1)[1] for k in keys}

    rows = cli._KEYS.items()
    assert names(ranged.group(1)) == short(k for k, row in rows if row.bounds)
    assert names(choices.group(1)) == short(
        k for k, row in rows if row.choices and k not in ("problem.kind", "solver.algo")
    )
    documented = {}
    for clause in required.group(1).split("; "):
        owner, *keys = re.findall(r"`(\w+)`", clause)
        documented[owner] = set(keys)
    schema = {}
    for key, row in rows:
        for owner in row.required:
            schema.setdefault(owner, set()).update(short([key]))
    assert documented == schema


# ---------------------------------------------------------------------------
# run command


def test_cli_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    spec = RunSpec.from_text(BASE)
    csv_path = out / f"{spec.run_id}.csv"
    rows = read_rows(csv_path)
    assert rows[0] == ",".join(CSV_HEADER)
    assert len(rows) > 1
    summary = json.loads((out / f"{spec.run_id}.json").read_text())
    assert summary["run_id"] == spec.run_id
    assert summary["exit_code"] == 0
    assert summary["prng"] == "pcg64"
    assert len(summary["stages"]) == 3
    assert spec.run_id in capsys.readouterr().out


def test_cli_run_is_bitwise_reproducible_across_dirs(tmp_path):
    cfg = write_config(tmp_path, BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    rid = RunSpec.from_text(BASE).run_id
    assert (a / f"{rid}.csv").read_bytes() == (b / f"{rid}.csv").read_bytes()


def test_cli_echo_round_trip_reproduces_run(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out1 = tmp_path / "first"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    rid = RunSpec.from_text(BASE).run_id
    summary = json.loads((out1 / f"{rid}.json").read_text())
    echoed = "\n".join(f"{k} = {v}" for k, v in summary["config"].items())
    spec2 = RunSpec.from_text(echoed)
    assert spec2.run_id == rid
    out2 = tmp_path / "second"
    cfg2 = write_config(tmp_path, echoed, name="echoed.cfg")
    assert main(["run", "--config", cfg2, "--out", str(out2)]) == 0
    assert (out1 / f"{rid}.csv").read_bytes() == (out2 / f"{rid}.csv").read_bytes()


def test_cli_timing_flag_controls_wallclock_column(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out_plain, out_timed = tmp_path / "plain", tmp_path / "timed"
    main(["run", "--config", cfg, "--out", str(out_plain)])
    main(["run", "--config", cfg, "--out", str(out_timed), "--timing"])
    rid_plain = RunSpec.from_text(BASE).run_id
    plain_rows = read_rows(out_plain / f"{rid_plain}.csv")[1:]
    assert all(row.rsplit(",", 1)[1] == "0" for row in plain_rows)
    # --timing participates in the run id (it changes output.timing)
    rid_timed = RunSpec.from_text(BASE).with_overrides({"output.timing": True}).run_id
    timed_rows = read_rows(out_timed / f"{rid_timed}.csv")[1:]
    assert any(int(row.rsplit(",", 1)[1]) > 0 for row in timed_rows)


def test_two_runs_of_one_config_write_byte_identical_summaries(tmp_path):
    cfg = write_config(tmp_path, BASE)
    rid = RunSpec.from_text(BASE).run_id
    runs = [tmp_path / "first", tmp_path / "second"]
    for out in runs:
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    first, second = ((out / f"{rid}.json").read_bytes() for out in runs)
    assert first == second
    assert json.loads(first)["wallclock_ns_total"] == 0
    # --timing writes the real total, as it does the CSV column
    timed = tmp_path / "timed"
    assert main(["run", "--config", cfg, "--out", str(timed), "--timing"]) == 0
    rid_timed = RunSpec.from_text(BASE).with_overrides({"output.timing": True}).run_id
    assert json.loads((timed / f"{rid_timed}.json").read_text())["wallclock_ns_total"] > 0


def test_cli_stride_reduces_rows(tmp_path):
    cfg = write_config(tmp_path, BASE)
    dense_dir, sparse_dir = tmp_path / "dense", tmp_path / "sparse"
    main(["run", "--config", cfg, "--out", str(dense_dir)])
    main(["run", "--config", cfg, "--out", str(sparse_dir), "--stride", "20"])
    dense_rid = RunSpec.from_text(BASE).run_id
    sparse_rid = RunSpec.from_text(BASE).with_overrides({"output.stride": 20}).run_id
    n_dense = len(read_rows(dense_dir / f"{dense_rid}.csv"))
    n_sparse = len(read_rows(sparse_dir / f"{sparse_rid}.csv"))
    assert n_sparse < n_dense


def test_cli_gaussian_w0_seed_override(tmp_path):
    text = BASE + "solver.w0 = gaussian\n"
    cfg = write_config(tmp_path, text)

    def first_objective(seed):
        out = tmp_path / f"seed{seed}"
        assert main(["run", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
        rid = RunSpec.from_text(text).with_overrides({"solver.seed": seed}).run_id
        return read_rows(out / f"{rid}.csv")[1].split(",")[5]

    assert first_objective(1) != first_objective(2)
    assert first_objective(3) == first_objective(3)


def test_cli_derive_stages_and_iters(tmp_path):
    text = BASE.replace("solver.stages = 3\n", "").replace("solver.t = 40\n", "")
    text += "solver.target_eps = 0.125\nsolver.theta_eb = 1.0\nsolver.c_eb = 2.0\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "derived"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rid = RunSpec.from_text(text).run_id
    summary = json.loads((out / f"{rid}.json").read_text())
    assert summary["stages_derived"] == compute_stage_count(1.0, 0.125, 2.0)
    from rsgkit.cli import build_problem

    G = build_problem(RunSpec.from_text(text)).lipschitz_bound
    assert summary["t_derived"] == compute_inner_iters(
        G, ErrorBoundParams(1.0, 2.0), 0.125, 2.0
    )


def test_cli_lovasz_cut_end_to_end(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("1 2\n2 3\n")
    text = f"""\
problem.kind = lovasz_cut
problem.dim = 3
problem.edges = {edges}
solver.algo = rsg
solver.stages = 2
solver.t = 30
solver.eps0 = 1.0
"""
    cfg = write_config(tmp_path, text, name="cut.cfg")
    out = tmp_path / "cut"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0


def test_cli_exit_1_on_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + "bogus.key = 3\n")
    assert main(["run", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_cli_exit_2_on_data_error(tmp_path, capsys):
    text = """\
problem.kind = pwl
problem.path = {path}
problem.loss = hinge
solver.algo = sg
solver.eta = 0.1
solver.T = 5
"""
    missing = write_config(tmp_path, text.format(path=tmp_path / "no_such_file.svm"))
    assert main(["run", "--config", missing]) == 2
    assert "data error" in capsys.readouterr().err
    bad = tmp_path / "bad.svm"
    bad.write_text("1 0:3\n")  # feature indices start at 1
    malformed = write_config(tmp_path, text.format(path=bad), name="malformed.cfg")
    assert main(["run", "--config", malformed]) == 2


def test_cli_exit_3_divergence_writes_partial_trace(tmp_path, capsys):
    text = """\
problem.kind = robust_regression
problem.synth = regression
problem.n = 5
problem.d = 2
problem.noise = 0.0
problem.data_seed = 0
problem.p_loss = 1.5
solver.algo = sg
solver.eta = 1e200
solver.T = 50
"""
    cfg = write_config(tmp_path, text, name="diverge.cfg")
    out = tmp_path / "div"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "diverged" in capsys.readouterr().out
    rid = RunSpec.from_text(text).run_id
    rows = read_rows(out / f"{rid}.csv")
    assert rows[0] == ",".join(CSV_HEADER)
    assert 1 < len(rows) < 52  # stopped early, partial trace preserved
    raw = (out / f"{rid}.json").read_text()
    summary = json.loads(
        raw, parse_constant=lambda s: pytest.fail(f"bare {s} in summary JSON")
    )
    assert summary["exit_code"] == 3
    assert summary["error"]


def test_cli_runs_large_features_at_norm_p_near_one(tmp_path, capsys):
    # at norm_p = 1.01 the dual exponent is 101, and 3e4**101 overflows
    data = tmp_path / "big.svm"
    data.write_text("1 1:30000 2:-2.5\n-1 1:1.5 3:29000\n1 2:12000 3:-4\n")
    text = f"""\
problem.kind = pwl
problem.path = {data}
problem.loss = hinge
solver.algo = rsg_dap
solver.norm_p = 1.01
solver.stages = 3
solver.t = 20
solver.eps0 = 1.0
"""
    cfg = write_config(tmp_path, text, name="big.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "big")]) == 0


def test_cli_exit_1_on_target_above_eps0(tmp_path, capsys):
    text = BASE.replace("solver.stages = 3\n", "") + "solver.target_eps = 2.0\n"
    cfg = write_config(tmp_path, text, name="target.cfg")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "t")]) == 1
    assert "exceeds eps0" in capsys.readouterr().err


@pytest.mark.parametrize("lambda_mode", ["unit", "inv_grad_norm"])
def test_cli_exit_3_rsg_dap_divergence_writes_partial_trace(tmp_path, capsys, lambda_mode):
    text = """\
problem.kind = pwl
problem.synth = classification
problem.n = 30
problem.d = 4
problem.margin = 0.5
problem.data_seed = 7
problem.loss = hinge
solver.algo = rsg_dap
solver.norm_p = 1.5
solver.stages = 4
solver.t = 60
solver.eps0 = 1e300
solver.eta_scale = 1e300
solver.w0 = gaussian
solver.seed = 3
"""
    text += f"solver.lambda_mode = {lambda_mode}\n"
    cfg = write_config(tmp_path, text, name="dap_diverge.cfg")
    out = tmp_path / "dap"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "diverged" in capsys.readouterr().out
    rid = RunSpec.from_text(text).run_id
    rows = read_rows(out / f"{rid}.csv")
    assert rows[0] == ",".join(CSV_HEADER)
    assert len(rows) >= 2  # the start point is logged before the blow-up
    summary = json.loads((out / f"{rid}.json").read_text())
    assert summary["exit_code"] == 3 and "non-finite" in summary["error"]


def test_cli_exit_2_on_unreachable_margin(tmp_path, capsys):
    text = BASE.replace("problem.n = 20", "problem.n = 2").replace(
        "problem.margin = 0.5", "problem.margin = 7"
    )
    cfg = write_config(tmp_path, text, name="margin.cfg")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert "margin" in capsys.readouterr().err


SG_BASE = BASE.replace("solver.algo = rsg", "solver.algo = sg").replace(
    "solver.stages = 3\nsolver.t = 40\nsolver.eps0 = 1.0\n", "solver.eta = 0.1\nsolver.T = 5\n"
)
# a seed out of range is a config error even when the data file is missing
MISSING_FILE = SG_BASE.replace(
    "problem.synth = classification\n", "problem.path = no-such-file.libsvm\n"
) + "solver.w0 = gaussian\n"
BASELINE_BASE = SG_BASE.replace("solver.algo = sg", "solver.algo = baseline_sg").replace(
    "solver.eta = 0.1", "solver.eta0 = 0.1"
)


@pytest.mark.parametrize(
    "text,flags,match",
    [
        (SG_BASE, ["--stride", "0"], "stride"),
        (SG_BASE + "output.stride = 0\n", [], "stride"),
        (BASE + "output.stride = 0\n", [], "stride"),
        (SG_BASE.replace("solver.T = 5", "solver.T = 0"), [], "T must be"),
        (SG_BASE.replace("solver.eta = 0.1", "solver.eta = -1"), [], "eta must be"),
        (BASELINE_BASE.replace("solver.T = 5", "solver.T = -3"), [], "T must be"),
        (BASELINE_BASE.replace("solver.eta0 = 0.1", "solver.eta0 = inf"), [], "eta0"),
        (BASELINE_BASE.replace("solver.eta0 = 0.1", "solver.eta0 = 0"), [], "eta0"),
        (SG_BASE + "solver.w0 = gaussian\n", ["--seed", "-1"], "solver.seed must be >= 0"),
        (MISSING_FILE + "solver.seed = -1\n", [], "solver.seed must be >= 0"),
    ],
    ids=[
        "stride-flag", "stride-key", "stride-key-rsg", "sg-T", "sg-eta", "baseline-T",
        "baseline-eta0-inf", "baseline-eta0-zero", "gaussian-seed", "seed-before-data",
    ],
)
def test_cli_exit_1_on_bad_numeric_input(tmp_path, capsys, text, flags, match):
    cfg = write_config(tmp_path, text, name="numeric.cfg")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "n"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and match in err


@pytest.mark.parametrize(
    "solver",
    [
        "solver.algo = rsg_dap\nsolver.norm_p = 1.5\nsolver.stages = 2\nsolver.t = 5\n",
        "solver.algo = rsg_dap\nsolver.stages = 2\nsolver.t = 5\n",
        "solver.algo = r2sg\nsolver.norm_p = 1.5\nsolver.t1 = 5\nsolver.stages = 2\n",
    ],
    ids=["rsg_dap-p1.5", "rsg_dap-p2", "r2sg-p1.5"],
)
def test_cli_exit_1_on_pnorm_stages_with_a_constraint(tmp_path, capsys, solver):
    text = (
        "problem.kind = pwl\nproblem.synth = regression\nproblem.n = 10\nproblem.d = 3\n"
        "problem.loss = absolute\nproblem.reg = l1_ball\n" + solver
    )
    cfg = write_config(tmp_path, text, name="ball.cfg")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "unconstrained" in err


def test_cli_verify_prox_exits_zero(capsys):
    assert main(["verify", "prox"]) == 0
    assert "prox" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# compare command


SG_VARIANT = """\
problem.kind = pwl
problem.synth = classification
problem.n = 20
problem.d = 3
problem.margin = 0.5
problem.data_seed = 1
problem.loss = hinge

solver.algo = sg
solver.eta = 0.05
solver.T = 100
"""


def test_cli_compare_merges_and_thresholds(tmp_path, capsys):
    cfg_a = write_config(tmp_path, BASE, name="a.cfg")
    cfg_b = write_config(tmp_path, SG_VARIANT, name="b.cfg")
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            "--config",
            cfg_a,
            "--config",
            cfg_b,
            "--out",
            str(out),
            "--thresholds",
            "0.5,0.05",
        ]
    )
    assert code == 0
    rid_a = RunSpec.from_text(BASE).run_id
    rid_b = RunSpec.from_text(SG_VARIANT).run_id
    merged = sorted(out.glob("compare_*.csv"))
    merged = [p for p in merged if not p.name.endswith("_thresholds.csv")]
    assert len(merged) == 1
    rows = read_rows(merged[0])
    assert rows[0] == f"cum_iter,objective_{rid_a},best_{rid_a},objective_{rid_b},best_{rid_b}"
    # gaps are empty strings where one run has no record at that cum_iter
    assert any(",," in row or row.endswith(",") for row in rows[1:])
    thr = list(out.glob("compare_*_thresholds.csv"))
    assert len(thr) == 1
    trows = read_rows(thr[0])
    assert trows[0] == f"threshold,{rid_a},{rid_b}"
    assert len(trows) == 3
    # member artifacts land next to the merge
    assert (out / f"{rid_a}.csv").exists() and (out / f"{rid_b}.json").exists()
    assert "compare" in capsys.readouterr().out


def test_cli_compare_duplicate_specs_identical_columns(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE, name="dup.cfg")
    out = tmp_path / "dup_out"
    assert main(["compare", "--config", cfg, "--config", cfg, "--out", str(out)]) == 0
    merged = [
        p for p in out.glob("compare_*.csv") if not p.name.endswith("_thresholds.csv")
    ]
    for row in read_rows(merged[0])[1:]:
        cum, o1, b1, o2, b2 = row.split(",")
        assert o1 == o2 and b1 == b2
    capsys.readouterr()


def test_cli_compare_rejects_mismatched_problems(tmp_path, capsys):
    other = SG_VARIANT.replace("problem.data_seed = 1", "problem.data_seed = 2")
    cfg_a = write_config(tmp_path, SG_VARIANT, name="p1.cfg")
    cfg_b = write_config(tmp_path, other, name="p2.cfg")
    assert main(["compare", "--config", cfg_a, "--config", cfg_b]) == 1
    assert "same problem" in capsys.readouterr().err


def test_cli_compare_bad_thresholds(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["compare", "--config", cfg, "--thresholds", "a,b"]) == 1
    assert "thresholds" in capsys.readouterr().err


def test_cmd_compare_requires_specs():
    with pytest.raises(ConfigError, match="no run configs"):
        cmd_compare([])


def test_cmd_run_returns_trace_artifacts(tmp_path):
    spec = RunSpec.from_text(BASE)
    code, artifacts = cmd_run(spec, str(tmp_path / "direct"))
    assert code == 0
    assert artifacts["csv"].exists() and artifacts["summary"].exists()
    assert artifacts["trace"].total_iters == 120
    assert np.isfinite(artifacts["trace"].final_objective)


# ---------------------------------------------------------------------------
# config mistakes are caught before any data is read or artifact written


RR_FILE = """\
problem.kind = robust_regression
problem.path = {path}
problem.p_loss = 1.5
solver.algo = sg
solver.eta = 0.1
solver.T = 5
"""
PWL_FILE = """\
problem.kind = pwl
problem.path = {path}
problem.loss = absolute
solver.algo = sg
solver.eta = 0.1
solver.T = 5
"""
GFL_FILE = """\
problem.kind = gflasso
problem.path = {path}
problem.lam = 0.1
problem.corr_cutoff = 0.5
solver.algo = sg
solver.eta = 0.1
solver.T = 5
"""

SYNTH_BASE = PWL_FILE.replace(
    "problem.path = {path}", "problem.synth = regression\nproblem.n = 5\nproblem.d = 2"
)


@pytest.mark.parametrize(
    "text,line,match",
    [
        (RR_FILE, "problem.p_loss = 3", "problem.p_loss must lie in (1, 2), got 3.0"),
        (RR_FILE, "problem.p_loss = 1", "problem.p_loss must lie in (1, 2)"),
        (RR_FILE, "problem.p_loss = nan", "problem.p_loss must lie in (1, 2), got nan"),
        (RR_FILE, "problem.region_radius = 0", "problem.region_radius must be finite and > 0"),
        (RR_FILE, "problem.region_radius = inf", "region_radius must be finite and > 0"),
        (PWL_FILE + "problem.reg = l1_ball\n", "problem.radius = -1", "radius must be"),
        (PWL_FILE + "problem.reg = l1\n", "problem.lam = -0.5", "problem.lam must be"),
        (PWL_FILE, "problem.eps_ins = -0.1", "problem.eps_ins must be finite and >= 0"),
        (GFL_FILE, "problem.corr_cutoff = 0", "problem.corr_cutoff must lie in (0, 1]"),
        (GFL_FILE, "problem.corr_cutoff = 1.5", "problem.corr_cutoff must lie in (0, 1]"),
        (GFL_FILE, "problem.lam = -1", "problem.lam must be finite and >= 0"),
        (SYNTH_BASE, "problem.n = 0", "problem.n must be >= 1, got 0"),
        (SYNTH_BASE, "problem.d = 0", "problem.d must be >= 1, got 0"),
        (SYNTH_BASE, "problem.noise = -1", "problem.noise must be finite and >= 0"),
        (SYNTH_BASE.replace("regression", "classification").replace("absolute", "hinge"),
         "problem.margin = -0.5", "problem.margin must be finite and >= 0"),
        (SYNTH_BASE, "problem.data_seed = -1", "problem.data_seed must be >= 0"),
    ],
    ids=[
        "p_loss-3", "p_loss-1", "p_loss-nan", "region_radius-0", "region_radius-inf",
        "radius-neg", "lam-neg", "eps_ins-neg", "corr_cutoff-0", "corr_cutoff-1.5",
        "gflasso-lam-neg", "n-0", "d-0", "noise-neg", "margin-neg", "data_seed-neg",
    ],
)
def test_cli_out_of_range_problem_values_exit_1_before_reading_data(
    tmp_path, capsys, text, line, match
):
    # a value checked only when the data is read (the file does not exist)
    # or generated would exit 2 as a data error
    key = line.split(" = ")[0]
    lines = [ln for ln in text.splitlines() if not ln.startswith(key + " ")]
    cfg = write_config(tmp_path, "\n".join(lines + [line]).format(path=tmp_path / "none.svm"))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and match in err
    assert not out.exists() or not any(out.iterdir())


def test_cli_range_bounds_accept_their_closed_ends(tmp_path):
    synth = "problem.synth = regression\nproblem.n = 20\nproblem.d = 3\n"
    text = PWL_FILE.replace("problem.path = {path}\n", synth)
    spec = RunSpec.from_text(text + "problem.eps_ins = 0\nproblem.reg = l1\nproblem.lam = 0\n")
    assert cmd_run(spec, str(tmp_path / "ok"))[0] == 0
    RunSpec.from_text(GFL_FILE.format(path="x.svm").replace("= 0.5", "= 1"))
    dap = DAP_FILE.replace("problem.path = {path}\n", synth) + "solver.norm_p = 2\n"
    assert cmd_run(RunSpec.from_text(dap), str(tmp_path / "dap"))[0] == 0
    # theta and theta_eb close at 0, theta_eb at 1, and rel_tol admits inf
    RunSpec.from_text(R2SG_FILE.format(path="x.svm") + "solver.theta = 0\nsolver.rel_tol = inf\n")
    for end in ("0", "1"):
        RunSpec.from_text(DERIVE_FILE.format(path="x.svm").replace("= 0.5", f"= {end}"))


def member_outputs(out):
    return sorted(p.name for p in out.iterdir()) if out.exists() else []


@pytest.mark.parametrize(
    "first,second,match",
    [
        (BASE, SG_VARIANT.replace("solver.T = 100", "solver.T = 0"), "T must be"),
        # eps0 defaults to f(w0) = 1 at the zero start, below the target
        (BASE, BASE.replace("solver.stages = 3\nsolver.t = 40\nsolver.eps0 = 1.0\n",
                            "solver.t = 40\nsolver.target_eps = 2.0\n"), "exceeds eps0"),
        # r2sg would divide eps0 by 1e300**3 between its two calls
        (BASE, BASE.replace("solver.algo = rsg", "solver.algo = r2sg").replace(
            "solver.t = 40\n", "solver.t1 = 2\nsolver.max_calls = 2\nsolver.alpha = 1e300\n"
            "solver.recalibrate_eps0 = true\n"), "alpha and stages put the schedule past its cap"),
    ],
    ids=["sg-T0", "target-above-eps0", "recalibration-overflow"],
)
def test_cli_compare_checks_every_member_before_the_first_run(
    tmp_path, capsys, first, second, match
):
    cfg_a = write_config(tmp_path, first, name="a.cfg")
    cfg_b = write_config(tmp_path, second, name="b.cfg")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_a, "--config", cfg_b, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and match in err
    assert member_outputs(out) == []


def test_cli_compare_rejects_pnorm_stages_on_a_constrained_member(tmp_path, capsys):
    ball = (
        "problem.kind = pwl\nproblem.synth = regression\nproblem.n = 10\nproblem.d = 3\n"
        "problem.loss = absolute\nproblem.reg = l1_ball\n"
    )
    cfg_a = write_config(
        tmp_path, ball + "solver.algo = rsg\nsolver.stages = 2\nsolver.t = 5\n", name="a.cfg"
    )
    cfg_b = write_config(
        tmp_path, ball + "solver.algo = rsg_dap\nsolver.norm_p = 1.5\nsolver.stages = 2\n"
        "solver.t = 5\n", name="b.cfg"
    )
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_a, "--config", cfg_b, "--out", str(out)]) == 1
    assert "unconstrained" in capsys.readouterr().err
    assert member_outputs(out) == []


def counting_build(monkeypatch):
    built = []
    real = cli.build_problem

    def build(spec, *data):
        built.append(spec.run_id)
        return real(spec, *data)

    monkeypatch.setattr(cli, "build_problem", build)
    return built


def test_cli_compare_builds_the_shared_problem_once_per_norm(tmp_path, monkeypatch, capsys):
    built = counting_build(monkeypatch)
    dap = BASE.replace("solver.algo = rsg", "solver.algo = rsg_dap")
    specs = [RunSpec.from_text(t) for t in (BASE, SG_VARIANT, dap)]
    code, res = cmd_compare(specs, str(tmp_path / "one"))
    assert code == 0 and len(built) == 1
    pdap = RunSpec.from_text(dap + "solver.norm_p = 1.5\n")
    built.clear()
    code, res = cmd_compare(specs + [pdap], str(tmp_path / "two"))
    assert code == 0 and len(built) == 2
    # members sharing a problem write what their own runs write
    alone, _ = cmd_run(specs[1], str(tmp_path / "alone"))
    rid = specs[1].run_id
    assert (tmp_path / "alone" / f"{rid}.csv").read_bytes() == (
        tmp_path / "two" / f"{rid}.csv"
    ).read_bytes()
    # two norm_p values over one data file: two problems, one parse
    parsed = []
    real_parse = cli.parse_libsvm
    monkeypatch.setattr(
        cli, "parse_libsvm", lambda *a, **k: parsed.append(a[0]) or real_parse(*a, **k)
    )
    data = tmp_path / "reg.svm"
    data.write_text(dump_libsvm(synth_regression(30, 3, noise=0.1, seed=2)))
    on_file = (
        f"problem.kind = pwl\nproblem.path = {data}\nproblem.loss = absolute\n"
        "solver.stages = 2\nsolver.t = 10\n"
    )
    pair = [
        RunSpec.from_text(on_file + "solver.algo = rsg\n"),
        RunSpec.from_text(on_file + "solver.algo = rsg_dap\nsolver.norm_p = 1.5\n"),
    ]
    built.clear()
    code, res = cmd_compare(pair, str(tmp_path / "file"))
    assert code == 0 and len(built) == 2 and parsed == [str(data)]
    for spec in pair:
        rid = spec.run_id
        cmd_run(spec, str(tmp_path / "file_alone"))
        assert (tmp_path / "file_alone" / f"{rid}.csv").read_bytes() == (
            tmp_path / "file" / f"{rid}.csv"
        ).read_bytes()
    capsys.readouterr()


def test_cli_oracle_report_reuses_the_built_problem(tmp_path, monkeypatch):
    built = counting_build(monkeypatch)
    spec = RunSpec.from_text(BASE + "output.oracle_report = true\n")
    code, artifacts = cmd_run(spec, str(tmp_path / "orc"))
    assert code == 0 and len(built) == 1
    summary = json.loads(artifacts["summary"].read_text())
    assert summary["oracle"]["fstar"] <= summary["best_objective"] + 1e-9


# ---------------------------------------------------------------------------
# diverged runs explain themselves, and no numpy warning leaks from them


RR_DIVERGE = """\
problem.kind = robust_regression
problem.synth = regression
problem.n = 5
problem.d = 2
problem.noise = 0.0
problem.data_seed = 0
problem.p_loss = 1.5
solver.algo = rsg
solver.target_eps = 1e-3
solver.theta_eb = 0.5
solver.c_eb = 0.1
"""
PLAN_FIELDS = ("problem_name", "dim", "eps0_effective", "stages_derived", "t_derived")


@pytest.mark.parametrize(
    "healthy,diverging",
    [
        (SG_BASE, SG_BASE.replace("solver.eta = 0.1", "solver.eta = 1e308")),
        (RR_DIVERGE, RR_DIVERGE + "solver.eta_scale = 1e300\n"),
    ],
    ids=["sg", "rsg-derived"],
)
def test_cli_exit_3_summary_keeps_the_plan_fields(tmp_path, healthy, diverging):
    summaries = []
    for name, text in (("ok", healthy), ("bad", diverging)):
        code, artifacts = cmd_run(RunSpec.from_text(text), str(tmp_path / name))
        summaries.append((code, json.loads(artifacts["summary"].read_text())))
    (ok_code, ok), (bad_code, bad) = summaries
    assert (ok_code, bad_code) == (0, 3)
    fields = [k for k in PLAN_FIELDS if k in ok]
    assert "dim" in fields
    assert {k: bad.get(k) for k in fields} == {k: ok[k] for k in fields}


BASELINE_OVERFLOW = BASELINE_BASE.replace("solver.eta0 = 0.1", "solver.eta0 = 1e308")


@pytest.mark.parametrize(
    "text,code",
    [(SG_BASE.replace("solver.eta = 0.1", "solver.eta = 1e308"), 3), (BASELINE_OVERFLOW, 0)],
    ids=["sg-average", "baseline-final-point"],
)
def test_cli_blown_up_points_leak_no_numpy_warning(tmp_path, capsys, text, code):
    # the sg stage average and the baseline's last iterate overflow; both
    # are evaluated under the solver loop's error state
    cfg = write_config(tmp_path, text, name="blowup.cfg")
    out = tmp_path / "w"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out", str(out)]) == code
    rid = RunSpec.from_text(text).run_id
    assert len(read_rows(out / f"{rid}.csv")) == 6
    assert json.loads((out / f"{rid}.json").read_text())["exit_code"] == code
    assert capsys.readouterr().err == ""


# features of about 50: a step of 1e308 overflows to inf before the projection
BIG_FEATURES_SVM = """\
-1 1:-52.739 2:-45.396 3:-40.819
1 1:58.255 2:52.133 3:54.590
-1 1:-58.701 2:56.317 3:40.055
1 1:-54.593 2:-43.513 3:57.264
-1 1:-45.994 2:-48.454 3:-40.566
1 1:52.944 2:-52.308 3:47.674
-1 1:59.617 2:53.711 3:53.009
1 1:-42.702 2:-54.430 3:-50.507
"""


@pytest.mark.parametrize(
    "solver,where",
    [
        ("solver.algo = sg\nsolver.eta = 1e308\n", "stage 1 iter 2"),
        ("solver.algo = baseline_sg\nsolver.eta0 = 1e308\n", "at iter 2"),
    ],
    ids=["sg", "baseline_sg"],
)
def test_cli_overflowing_step_on_the_l1_ball_diverges(tmp_path, capsys, solver, where):
    data = tmp_path / "big.svm"
    data.write_text(BIG_FEATURES_SVM)
    text = (
        f"problem.kind = pwl\nproblem.path = {data}\nproblem.loss = hinge\n"
        f"problem.reg = l1_ball\n{solver}solver.T = 5\n"
    )
    cfg = write_config(tmp_path, text, name="ball.cfg")
    out = tmp_path / "ball"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    rid = RunSpec.from_text(text).run_id
    assert len(read_rows(out / f"{rid}.csv")) == 2  # the start point only
    summary = json.loads((out / f"{rid}.json").read_text())
    assert summary["error"].startswith("non-finite objective (nan)") and where in summary["error"]
    assert "diverged" in capsys.readouterr().out


RSG_FILE = PWL_FILE.replace(
    "solver.algo = sg\nsolver.eta = 0.1\nsolver.T = 5\n",
    "solver.algo = rsg\nsolver.stages = 2\nsolver.t = 5\n",
)
R2SG_FILE = RSG_FILE.replace("solver.algo = rsg", "solver.algo = r2sg").replace(
    "solver.t = 5", "solver.t1 = 5\nsolver.max_calls = 3"
)
DAP_FILE = RSG_FILE.replace("solver.algo = rsg", "solver.algo = rsg_dap")
DERIVE_FILE = RSG_FILE.replace(
    "solver.t = 5\n", "solver.target_eps = 0.1\nsolver.theta_eb = 0.5\nsolver.c_eb = 1.0\n"
)


@pytest.mark.parametrize(
    "text,line,match",
    [
        (PWL_FILE, "problem.loss = foo", "problem.loss must be one of"),
        (PWL_FILE, "problem.reg = foo", "problem.reg must be one of"),
        (RSG_FILE, "solver.alpha = inf", "solver.alpha must be finite and > 1, got inf"),
        (RSG_FILE, "solver.eta_scale = inf", "solver.eta_scale must be finite and > 0"),
        (R2SG_FILE, "solver.growth = inf", "solver.growth must be finite and > 1, got inf"),
        (DAP_FILE, "solver.norm_p = 0.5", "solver.norm_p must lie in (1, 2], got 0.5"),
        (R2SG_FILE, "solver.norm_p = 1", "solver.norm_p must lie in (1, 2], got 1.0"),
        (DAP_FILE, "solver.norm_p = 3", "solver.norm_p must lie in (1, 2], got 3.0"),
        (R2SG_FILE, "solver.norm_p = nan", "solver.norm_p must lie in (1, 2], got nan"),
        (RSG_FILE, "solver.stages = 0", "solver.stages must be >= 1, got 0"),
        (R2SG_FILE, "solver.stages = 0", "solver.stages must be >= 1, got 0"),
        (RSG_FILE, "solver.t = 0", "solver.t must be >= 1, got 0"),
        (R2SG_FILE, "solver.t1 = 0", "solver.t1 must be >= 1, got 0"),
        (R2SG_FILE, "solver.max_calls = 0", "solver.max_calls must be >= 1, got 0"),
        (RSG_FILE, "solver.eps0 = 0", "solver.eps0 must be finite and > 0, got 0.0"),
        (R2SG_FILE, "solver.eps0 = inf", "solver.eps0 must be finite and > 0, got inf"),
        (DERIVE_FILE, "solver.target_eps = -1", "solver.target_eps must be finite and > 0"),
        (DERIVE_FILE, "solver.c_eb = 0", "solver.c_eb must be finite and > 0, got 0.0"),
        (R2SG_FILE, "solver.theta = 1", "solver.theta must lie in [0, 1), got 1.0"),
        (DERIVE_FILE, "solver.theta_eb = 1.5", "solver.theta_eb must lie in [0, 1], got 1.5"),
        (R2SG_FILE, "solver.rel_tol = -1", "solver.rel_tol must be >= 0, got -1.0"),
        (R2SG_FILE, "solver.rel_tol = nan", "solver.rel_tol must be >= 0, got nan"),
    ],
    ids=[
        "loss", "reg", "alpha-inf", "eta_scale-inf", "growth-inf",
        "norm_p-0.5", "norm_p-1", "norm_p-3", "norm_p-nan",
        "stages-0", "r2sg-stages-0", "t-0", "t1-0", "max_calls-0", "eps0-0", "eps0-inf",
        "target_eps-neg", "c_eb-0", "theta-1", "theta_eb-1.5", "rel_tol-neg", "rel_tol-nan",
    ],
)
def test_cli_bad_choices_and_infinite_schedules_exit_1_before_reading_data(
    tmp_path, capsys, text, line, match
):
    key = line.split(" = ")[0]
    lines = [ln for ln in text.splitlines() if not ln.startswith(key + " ")]
    cfg = write_config(tmp_path, "\n".join(lines + [line]).format(path=tmp_path / "none.svm"))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and match in err
    assert not out.exists()


def test_cli_r2sg_budget_that_overflows_exits_1_before_any_artifact(tmp_path, capsys):
    text = BASE.replace("solver.algo = rsg", "solver.algo = r2sg").replace(
        "solver.t = 40\n",
        "solver.t1 = 5\nsolver.max_calls = 3\nsolver.growth = 1e308\nsolver.rel_tol = -0.0\n",
    )
    out = tmp_path / "g"
    assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "max_calls put the schedule past its cap" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        SG_VARIANT,
        SG_VARIANT.replace("algo = sg\nsolver.eta", "algo = baseline_sg\nsolver.eta0"),
    ],
    ids=["sg", "baseline_sg"],
)
def test_cli_plain_run_past_the_cap_exits_1_before_any_artifact(
    tmp_path, capsys, monkeypatch, text
):
    # a plain run of more than 2**62 iterations used to be planned and
    # started, and could only be interrupted
    for name in ("sg_run", "baseline_sg_decreasing"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("solved past the cap"))
    text = text.replace("solver.T = 100", "solver.T = 10000000000000000000")
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "T put the schedule past its cap" in err
    assert "Traceback" not in err
    assert member_outputs(out) == []


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "below-a-file"])
def test_cli_out_that_cannot_be_a_directory_exits_1_before_any_solve(
    tmp_path, capsys, monkeypatch, command, below
):
    # --out naming a file, or a path below one, used to end in an uncaught
    # FileExistsError or NotADirectoryError traceback
    monkeypatch.setattr(cli, "rsg", lambda *args: pytest.fail("solved before the check"))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    cfg = write_config(tmp_path, BASE)
    out = afile / below if below else afile
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: output.dir") and "Traceback" not in err
    assert afile.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]


@pytest.mark.parametrize(
    "line",
    ["solver.t = 5", "solver.theta_eb = 0.5", "solver.c_eb = 1.0", "solver.restart_every = 3"],
    ids=["t", "theta_eb", "c_eb", "restart_every"],
)
def test_cli_r2sg_rejects_keys_it_never_reads_before_reading_data(tmp_path, capsys, line):
    # r2sg's per-call stage count is solver.stages, and its budget comes from
    # t1 and growth: a key that would change nothing is a config error
    text = R2SG_FILE.format(path=tmp_path / "none.svm") + line + "\n"
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert member_outputs(out) == []


def test_cli_all_zero_features_exit_2_naming_the_data(tmp_path, capsys):
    data = tmp_path / "zero.svm"
    data.write_text("1 1:0\n-1 1:0\n1 1:0\n")
    text = PWL_FILE.replace("absolute", "hinge").format(path=data)
    out = tmp_path / "z"
    assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "every feature value is zero" in err
    assert "Traceback" not in err
    assert member_outputs(out) == []


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("stage", ["synth_regression", "piecewise_linear_erm"])
def test_cli_data_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch, command, stage):
    # numpy raises MemoryError for an array it cannot allocate (7.28 TiB at
    # n = 10**11, d = 10), in the data or in the problem laid out from it; a
    # stand-in raises it without allocating.  compare loads the shared data
    # outside build_problem
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, stage, too_large)
    text = SG_VARIANT.replace("synth = classification", "synth = regression").replace(
        "problem.margin = 0.5\n", ""
    )
    out = tmp_path / "big"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Unable to allocate" in err
    assert "Traceback" not in err
    assert member_outputs(out) == []


CUT_FILE = """\
problem.kind = lovasz_cut
problem.dim = 3
problem.edges = {path}
solver.algo = sg
solver.eta = 0.1
solver.T = 5
"""


@pytest.mark.parametrize(
    "config,data,message",
    [
        (PWL_FILE, "1 1:nan\n", "line 1, column 5: value 'nan' is not a finite number"),
        (PWL_FILE, "nan 1:1\n", "line 1, column 1: label 'nan' is not a finite number"),
        (PWL_FILE, "1 1:1e400\n", "line 1, column 5: value '1e400' is not a finite number"),
        (CUT_FILE, "1 2 inf\n", "line 1, column 5: weight 'inf' is not a finite number"),
    ],
    ids=["value-nan", "label-nan-absolute", "value-overflow", "weight-inf"],
)
def test_cli_non_finite_number_in_a_file_exits_2_naming_the_token(
    tmp_path, capsys, config, data, message
):
    # before, these read as a bad lipschitz_bound, a diverged run (exit 3,
    # with a trace) or an unpositioned graph error
    path = tmp_path / "data.txt"
    path.write_text(data)
    out = tmp_path / "n"
    assert main(["run", "--config", write_config(tmp_path, config.format(path=path)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err
    assert "Traceback" not in err
    assert member_outputs(out) == []


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "dim", ["1000000000000000000000000000000", "25"], ids=["past-int64", "past-24"]
)
def test_cli_lovasz_cut_dim_out_of_range_exits_1_before_reading_edges(
    tmp_path, capsys, command, dim
):
    # the [1, 24] ground-set range used to be checked only after the edge
    # file was loaded: 10**30 ended in an OverflowError traceback and 25 in a
    # data error; the edge file named here does not exist
    text = CUT_FILE.format(path=tmp_path / "missing.txt").replace("dim = 3", f"dim = {dim}")
    out = tmp_path / "c"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: problem.dim must lie in [1, 24], got {dim}")
    assert "Traceback" not in err
    assert member_outputs(out) == []


def test_cli_index_past_int64_exits_2_naming_the_limit(tmp_path, capsys):
    # before, the int64 conversion of the indices ended in an OverflowError
    path = tmp_path / "data.txt"
    path.write_text("1 99999999999999999999:1\n")
    out = tmp_path / "n"
    assert main(["run", "--config", write_config(tmp_path, PWL_FILE.format(path=path)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    message = "line 1, column 3: index 99999999999999999999 exceeds the largest index"
    assert err.startswith("data error:") and message in err and str(2**63 - 1) in err
    assert "Traceback" not in err
    assert member_outputs(out) == []


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_largest_index_too_large_to_lay_out_exits_2_naming_file_and_index(
    tmp_path, capsys, command
):
    # the index parses, and the transpose of a 1 x (2**63 - 1) matrix needs
    # 2**63 row pointers, which numpy refuses before allocating anything;
    # before, the message named neither the file nor the index
    path = tmp_path / "huge.svm"
    path.write_text(f"1 {2**63 - 1}:1\n")
    out = tmp_path / "n"
    assert main([command, "--config", write_config(tmp_path, PWL_FILE.format(path=path)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}, largest feature index {2**63 - 1}: ")
    assert "Traceback" not in err
    assert member_outputs(out) == []


@pytest.mark.parametrize(
    "schedule",
    [
        "solver.target_eps = 1e-300\nsolver.theta_eb = 0.5\nsolver.c_eb = 1e300\n",
        "solver.target_eps = 1e-300\nsolver.theta_eb = 0\nsolver.c_eb = 1\n",
    ],
    ids=["overflow", "underflow"],
)
def test_cli_derived_budget_that_overflows_exits_1(tmp_path, capsys, schedule):
    cfg = write_config(tmp_path, BASE.replace("solver.t = 40\n", schedule))
    out = tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "eps put the schedule past its cap" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the CSV artifacts are byte-identical to what csv.writer wrote for them


def ref_trace_csv_text(run_id, algo, trace, timing):
    """The run CSV as csv.writer serialized it before the rows were
    formatted directly; kept as the reference for those bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for r in trace.records:
        writer.writerow(
            [
                run_id,
                algo,
                r.stage,
                r.iter,
                r.cum_iter,
                repr(r.objective),
                repr(r.eta),
                int(r.wallclock_ns) if timing else 0,
            ]
        )
    return buf.getvalue()


def ref_merged_csv_text(ids, traces):
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["cum_iter"]
    for rid in ids:
        header += [f"objective_{rid}", f"best_{rid}"]
    writer.writerow(header)
    per_run = [{r.cum_iter: r for r in tr.records} for tr in traces]
    all_cums = sorted(set().union(*[set(m) for m in per_run]))
    for cum in all_cums:
        row = [cum]
        for m in per_run:
            rec = m.get(cum)
            row += ["", ""] if rec is None else [repr(rec.objective), repr(rec.best)]
        writer.writerow(row)
    return buf.getvalue()


def ref_thresholds(ids, traces, thresholds):
    """The thresholds CSV and the stdout lines that report it."""
    tbuf = io.StringIO()
    twriter = csv.writer(tbuf)
    twriter.writerow(["threshold"] + ids)
    lines = []
    for thr in thresholds:
        row = [repr(float(thr))]
        for tr in traces:
            hit = next((r.cum_iter for r in tr.records if r.best <= thr), "")
            row.append(hit)
        twriter.writerow(row)
        lines.append(
            "  threshold "
            + repr(float(thr))
            + ": "
            + ", ".join(
                f"{rid}@{next((r.cum_iter for r in tr.records if r.best <= thr), '-')}"
                for rid, tr in zip(ids, traces)
            )
        )
    return tbuf.getvalue(), lines


DAP_FILE_RUN = """\
problem.kind = pwl
problem.synth = regression
problem.n = 40
problem.d = 4
problem.noise = 0.3
problem.loss = absolute
solver.algo = rsg_dap
solver.norm_p = 1.5
solver.lambda_mode = inv_grad_norm
solver.stages = 3
solver.t = 30
output.stride = 1
"""


@pytest.mark.parametrize("timing", [False, True])
@pytest.mark.parametrize(
    "text,code",
    [
        (DAP_FILE_RUN, 0),
        (BASE.replace("solver.t = 40", "solver.t = 40\nsolver.w0 = gaussian"), 0),
        (RR_DIVERGE + "solver.eta_scale = 1e300\n", 3),
    ],
    ids=["rsg_dap", "rsg", "exit-3"],
)
def test_run_csv_is_what_csv_writer_wrote(tmp_path, text, code, timing):
    spec = RunSpec.from_text(text + ("output.timing = true\n" if timing else ""))
    got, artifacts = cmd_run(spec, str(tmp_path))
    assert got == code
    trace = artifacts["trace"]
    assert trace.records
    if timing:
        assert any(r.wallclock_ns for r in trace.records)
    expect = ref_trace_csv_text(spec.run_id, spec.require("solver.algo"), trace, timing)
    assert artifacts["csv"].read_bytes() == expect.encode()


def _record(cum, obj, best):
    return TraceRecord(1, cum, cum, obj, 0.5, 0, best)


def test_merged_csv_is_what_csv_writer_wrote():
    # members of different lengths whose cum_iter sets are disjoint or
    # partly shared, an empty member, signed zeros, and non-finite values
    short = SolveTrace(records=[_record(c, 1.0 / c, 1.0 / c) for c in (2, 4, 6)])
    long = SolveTrace(records=[_record(c, -0.0 + c, 0.1 * c) for c in (1, 3, 5, 7, 9, 11)])
    mixed = SolveTrace(
        records=[_record(1, math.inf, 1e300), _record(4, -0.0, -0.0), _record(8, 5e-324, -1.5)]
    )
    ids = ["0123456789ab", "ba9876543210", "00ff00ff00ff", "fedcba987654"]
    traces = [short, long, mixed, SolveTrace()]
    for k in range(1, len(traces) + 1):
        got = "".join(cli._merged_csv_rows(ids[:k], traces[:k]))
        assert got == ref_merged_csv_text(ids[:k], traces[:k])


@pytest.mark.parametrize(
    "thresholds",
    [
        [-1.0, -2.5],
        [1e9, 10.0, 1e300],
        [0.5, -1.0, 1e9, 0.05, 0.5, math.nan, 0.2, math.inf, -math.inf, 0.0, -0.0],
    ],
    ids=["none-crossed", "all-crossed", "mixed"],
)
def test_compare_artifacts_are_what_csv_writer_wrote(tmp_path, capsys, thresholds):
    short = SG_VARIANT.replace("solver.T = 100", "solver.T = 30") + "output.stride = 3\n"
    specs = [RunSpec.from_text(t) for t in (BASE + "output.stride = 2\n", short, SG_VARIANT)]
    code, res = cmd_compare(specs, str(tmp_path), thresholds=thresholds)
    assert code == 0
    ids = [s.run_id for s in specs]
    traces = [art["trace"] for _, art in res["runs"]]
    assert res["merged"].read_bytes() == ref_merged_csv_text(ids, traces).encode()
    table, lines = ref_thresholds(ids, traces, thresholds)
    assert res["thresholds"].read_bytes() == table.encode()
    assert capsys.readouterr().out.splitlines()[-len(thresholds):] == lines
    if thresholds[0] == -1.0:
        assert all(line.endswith("@-") for line in lines)
    if thresholds[0] == 1e9:
        assert "@-" not in "".join(lines)


def test_a_row_stream_that_fails_midway_leaves_no_file(tmp_path):
    def rows():
        yield "a,b\r\n"
        yield "1,2\r\n"
        raise RuntimeError("formatting failed")

    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="formatting failed"):
        cli._atomic_write(target, rows())
    assert list(tmp_path.iterdir()) == []
    cli._atomic_write(target, iter(["a,b\r\n", "1,2\r\n"]))
    assert target.read_bytes() == b"a,b\r\n1,2\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_cli_recalibration_that_overflows_exits_1_with_no_artifact(tmp_path, capsys):
    text = (
        PWL_FILE.format(path=tmp_path / "abs.svm")
        .replace("solver.algo = sg\nsolver.eta = 0.1\nsolver.T = 5\n", "")
        + "solver.algo = r2sg\nsolver.alpha = 1e300\nsolver.t1 = 2\nsolver.stages = 2\n"
        "solver.max_calls = 2\nsolver.rel_tol = -0.0\nsolver.recalibrate_eps0 = true\n"
    )
    (tmp_path / "abs.svm").write_text(dump_libsvm(synth_regression(10, 2, noise=0.1, seed=1)))
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "alpha and stages put the schedule past its cap" in err
    assert member_outputs(out) == []



# ---------------------------------------------------------------------------
# problem and solver paths end to end: the CLI run against the library


R2SG_SYNTH = """\
problem.kind = pwl
problem.synth = regression
problem.n = 20
problem.d = 3
problem.noise = 0.1
problem.loss = absolute
solver.algo = r2sg
solver.norm_p = {p}
solver.stages = 2
solver.t1 = 10
solver.max_calls = 3
solver.eps0 = 1.0
"""
GFL_RSG = """\
problem.kind = gflasso
problem.synth = classification
problem.n = 30
problem.d = 4
problem.margin = 0.5
problem.data_seed = 1
problem.lam = 0.1
{graph}
solver.algo = rsg
solver.stages = 3
solver.t = 20
solver.eps0 = 1.0
"""
THREE_CLASS_SVM = """\
1 1:0.5 2:3
2 1:-1 3:4
3 2:2 3:-1
2 1:2 2:-0.5 3:1
1 1:-4 3:0.25
3 1:1.5 2:1 3:-2
"""
HINGE_THREE_CLASS = """\
problem.kind = pwl
problem.path = {dir}/three.svm
problem.positive_class = 2
problem.scale_features = true
problem.loss = hinge
solver.algo = rsg
solver.stages = 3
solver.t = 20
solver.eps0 = 1.0
"""


def _restarts(problem):
    return rsg(problem, np.zeros(problem.dim), RestartConfig(stages=3, inner_iters=20))[1]


def _doubling(p):
    dcfg = DoublingConfig(t1=10, restart_every=2, max_calls=3)
    return lambda problem: r2sg(problem, np.zeros(problem.dim), dcfg, RestartConfig(norm_p=p))[1]


def _gflasso_from_edges(_):
    graph = GFlassoGraph(4, ((0, 1, 1.0), (1, 3, 0.5)))
    return gflasso_svm(synth_classification(30, 4, 0.5, 1), graph, 0.1)


def _gflasso_from_correlation(_):
    data = synth_classification(30, 4, 0.5, 1)
    return gflasso_svm(data, graph_from_correlation(data, 0.2), 0.1)


# id -> (config, the problem built by library calls from the dataset, the solve)
CLI_PATHS = {
    "r2sg-p2": (
        R2SG_SYNTH.format(p=2.0),
        lambda _: piecewise_linear_erm(synth_regression(20, 3, 0.1, 0), loss="absolute"),
        _doubling(2.0),
    ),
    "r2sg-p1.5": (
        R2SG_SYNTH.format(p=1.5),
        lambda _: piecewise_linear_erm(
            synth_regression(20, 3, 0.1, 0), loss="absolute", norm_q=conjugate_exponent(1.5)
        ),
        _doubling(1.5),
    ),
    "gflasso-edge-file": (
        GFL_RSG.format(graph="problem.edges = {dir}/edges.txt"),
        _gflasso_from_edges,
        _restarts,
    ),
    "gflasso-corr-cutoff": (
        GFL_RSG.format(graph="problem.corr_cutoff = 0.2"),
        _gflasso_from_correlation,
        _restarts,
    ),
    "pwl-positive-class-scaled": (
        HINGE_THREE_CLASS,
        lambda path: piecewise_linear_erm(
            scale_max_abs(binarize_labels(parse_libsvm(path / "three.svm"), 2.0)), loss="hinge"
        ),
        _restarts,
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_PATHS))
def test_cli_run_matches_the_library_on_each_problem_path(tmp_path, case):
    text, library_problem, solve = CLI_PATHS[case]
    (tmp_path / "edges.txt").write_text("1 2\n4 2 0.5\n")
    (tmp_path / "three.svm").write_text(THREE_CLASS_SVM)
    text = text.format(dir=tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    spec = RunSpec.from_text(text)
    problem = build_problem(spec)
    W = np.random.default_rng(5).standard_normal((6, problem.dim))
    expected = library_problem(tmp_path)
    assert problem.lipschitz_bound == expected.lipschitz_bound
    assert problem.values(W).tobytes() == expected.values(W).tobytes()
    trace = solve(problem)
    rows = read_rows(out / f"{spec.run_id}.csv")
    assert len(rows) == 1 + len(trace.records)
    summary = json.loads((out / f"{spec.run_id}.json").read_text())
    assert summary["exit_code"] == 0
    assert (summary["final_objective"], summary["best_objective"], summary["total_iters"]) == (
        trace.final_objective,
        trace.best_objective,
        trace.total_iters,
    )
