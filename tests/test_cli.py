"""CLI behaviour: config parsing, run ids, artifacts, exit codes, compare."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from rsgkit.cli import CSV_HEADER, ConfigError, RunSpec, cmd_compare, cmd_run, main
from rsgkit.solvers import compute_inner_iters, compute_stage_count
from rsgkit.core import ErrorBoundParams

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
    with pytest.raises(ConfigError, match="stages or solver.restart_every"):
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
    "solver.alpha", "solver.c_eb", "solver.eps0", "solver.eta_scale", "solver.stages",
    "solver.t", "solver.target_eps", "solver.theta_eb",
}
_ALGO_ACCEPTS = {
    "sg": _EVERY_ALGO | {"solver.T", "solver.eta"},
    "baseline_sg": _EVERY_ALGO | {"solver.T", "solver.eta0"},
    "rsg": _EVERY_ALGO | _SCHEDULE,
    "rsg_dap": _EVERY_ALGO | _SCHEDULE | {"solver.lambda_mode", "solver.norm_p"},
    "r2sg": _EVERY_ALGO
    | _SCHEDULE
    | {
        "solver.growth", "solver.lambda_mode", "solver.max_calls", "solver.norm_p",
        "solver.recalibrate_eps0", "solver.rel_tol", "solver.restart_every", "solver.t1",
        "solver.theta",
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
    "solver.stages": "3", "solver.t": "3", "solver.T": "3", "solver.t1": "3",
    "solver.max_calls": "3", "solver.restart_every": "3", "solver.seed": "3",
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
        (SG_BASE + "solver.w0 = gaussian\n", ["--seed", "-1"], "non-negative"),
    ],
    ids=[
        "stride-flag", "stride-key", "stride-key-rsg", "sg-T", "sg-eta", "baseline-T",
        "baseline-eta0-inf", "baseline-eta0-zero", "gaussian-seed",
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


def member_outputs(out):
    return sorted(p.name for p in out.iterdir()) if out.exists() else []


@pytest.mark.parametrize(
    "first,second,match",
    [
        (BASE, SG_VARIANT.replace("solver.T = 100", "solver.T = 0"), "T must be"),
        # eps0 defaults to f(w0) = 1 at the zero start, below the target
        (BASE, BASE.replace("solver.stages = 3\nsolver.t = 40\nsolver.eps0 = 1.0\n",
                            "solver.t = 40\nsolver.target_eps = 2.0\n"), "exceeds eps0"),
    ],
    ids=["sg-T0", "target-above-eps0"],
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
    import rsgkit.cli as cli

    built = []
    real = cli.build_problem

    def build(spec):
        built.append(spec.run_id)
        return real(spec)

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


@pytest.mark.parametrize(
    "text,line,match",
    [
        (PWL_FILE, "problem.loss = foo", "problem.loss must be one of"),
        (PWL_FILE, "problem.reg = foo", "problem.reg must be one of"),
        (RSG_FILE, "solver.alpha = inf", "solver.alpha must be finite and > 1, got inf"),
        (RSG_FILE, "solver.eta_scale = inf", "solver.eta_scale must be finite and > 0"),
        (R2SG_FILE, "solver.growth = inf", "solver.growth must be finite and > 1, got inf"),
    ],
    ids=["loss", "reg", "alpha-inf", "eta_scale-inf", "growth-inf"],
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
    assert err.startswith("config error:") and "budget overflows" in err
    assert not out.exists()
