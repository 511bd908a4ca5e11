"""The benchmark's own checks, at a tiny size so they finish in seconds.

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: str, trace: bool, tmp_path: Path):
    return run.run(
        workload,
        seed=run.DEV_SEED,
        seconds=0.0,
        trace=trace,
        size="tiny",
        min_rounds=2,
        setup_reps=(1, 0.0),
        out_dir=tmp_path / "out",
    )


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    result, _ = _tiny(workload, False, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0, (m["name"], got)
    assert isinstance(metrics["iters_to_target"]["value"], int)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_self_times_add_up(workload, tmp_path):
    result, report = _tiny(workload, True, tmp_path)
    # traced rounds alternate with untraced ones; a bitwise difference in
    # any final value between them would count as a failed operation
    assert result["correct"], report["errors"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if m["unit"] in ("count", "bytes"):
            assert isinstance(got["value"], int), m["name"]
    self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    assert metrics["trace.wall_s"]["value"] > 0
    assert (tmp_path / "out" / f"spans_{workload}_seed{run.DEV_SEED}.csv").is_file()


def test_fastest_times_take_the_best_pace_over_rounds():
    from workloads import Outcome

    def solve(intervals, rest_ns, cross):
        stamps = np.cumsum([0] + intervals).astype(np.int64)
        wall = (int(stamps[-1]) + rest_ns) / 1e9
        return Outcome("s", wall_s=wall, stamps_ns=stamps, nested_ns=int(stamps[-1]),
                       cross_seg=cross)

    fastest = run.FastestTimes()
    # the first quartile of the intervals is 20 ns, then 10 ns; the time
    # outside them 40 then 70 ns; the plain operation takes 0.5 then 0.25 s
    fastest.add([solve([20, 20, 60, 90, 20], 40, 3), Outcome("plain", wall_s=0.5)])
    fastest.add([solve([10, 10, 40, 10, 90], 70, 3), Outcome("plain", wall_s=0.25)])
    assert fastest.wall_s() == pytest.approx(5 * 10e-9 + 40e-9 + 0.25)
    assert fastest.time_to_target_s() == pytest.approx(3 * 10e-9)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "erm_restart", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        SPEC["command"] + args,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
