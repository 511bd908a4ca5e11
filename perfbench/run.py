"""rsgkit benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload erm_restart --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The run sets its inputs up (fixed data plus seeded start points; several
times, timing each), computes solver-independent references, then repeats
the workload's fixed round of operations in one thread while another round
is expected to end within ``--seconds``.  Every operation is checked
against the references and every round must reproduce the first bitwise.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced rounds alternate and it carries the
per-layer metrics.  A line with the host comes first, and a fuller report
(plus, when traced, every span) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

# One process, one thread: BLAS must not start a pool of its own.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Seed used while the workloads were sized, and a held-out seed for
# checking a claimed change on inputs it was not tuned on.
DEV_SEED = 1
CHECK_SEED = 20261017


def import_library() -> None:
    """Import rsgkit from this checkout's src/, refusing any other copy."""
    pkg = SRC / "rsgkit"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rsgkit sources at {pkg}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rsgkit

    if Path(rsgkit.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported rsgkit from {rsgkit.__file__}, not {pkg}")


def host_info() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _round_key(outcomes) -> list[str]:
    """What a rerun must reproduce exactly: final values and counts."""
    return [repr((o.name, o.finals, o.iters, o.iters_to_target, o.records)) for o in outcomes]


class FastestTimes:
    """Each operation's time at the host's full speed, as seen in a run.

    This host alternates between fast and slow phases (up to 1.6x) lasting
    from milliseconds to minutes, so whole-round times, their means and
    medians, and even the fastest of a handful of sub-second operations
    move with the share of slow time in a run.  A solve repeats the same
    work at every logged iteration, so the fastest quarter of the intervals
    between its logged iterations gives its pace at full speed whenever a
    quarter of one repetition ran fast.  An operation's time is its
    interval count at the best such pace over the timed rounds, plus the
    fastest of its time outside those intervals (all of it, for operations
    without a solve).
    """

    QUANTILE = 25

    def __init__(self) -> None:
        self.ops: list[dict] = []

    def add(self, outcomes) -> None:
        if not self.ops:
            self.ops = [
                {"rest": math.inf, "pace_ns": math.inf, "intervals": 0, "cross": 0}
                for _ in outcomes
            ]
        for fast, o in zip(self.ops, outcomes):
            fast["rest"] = min(fast["rest"], o.wall_s - o.nested_ns / 1e9)
            if o.stamps_ns is not None:
                segs = np.diff(o.stamps_ns)
                pace = float(np.percentile(segs, self.QUANTILE))
                fast["pace_ns"] = min(fast["pace_ns"], pace)
                fast["intervals"], fast["cross"] = len(segs), o.cross_seg

    def wall_s(self) -> float:
        return sum(
            f["rest"] + (f["intervals"] * f["pace_ns"] / 1e9 if f["intervals"] else 0.0)
            for f in self.ops
        )

    def time_to_target_s(self) -> float:
        return sum(f["cross"] * f["pace_ns"] / 1e9 for f in self.ops if f["cross"])


def end_to_end(rounds, fastest: FastestTimes, setup_times) -> dict:
    # with no timed round equal to round 0 the run is incorrect anyway, and
    # the mean round time stands in
    wall = fastest.wall_s() or statistics.fmean(r["wall_s"] for r in rounds)
    return {
        "wall_s": _metric(wall, "s"),
        # the fastest set-up, as timeit advises for short snippets: set-up
        # takes milliseconds, and the slow phases double it, so the median
        # of its repetitions moved by 30% between two sets of runs
        "setup_s": _metric(min(setup_times), "s"),
        "iters_per_s": _metric(rounds[0]["iters"] / wall, "1/s"),
        "time_to_target_s": _metric(fastest.time_to_target_s(), "s"),
        "iters_to_target": _metric(rounds[0]["iters_to_target"], "count"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, rounds, setup_file_bytes: int) -> dict:
    from tracing import MODULES, SpanStats
    from workloads import BUILDERS, SUITES

    st = SpanStats(tracer, "bench.round")
    su = SpanStats(tracer, "bench.setup")
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    R = st.roots
    first = traced[0]

    def per_round_s(ns: float) -> float:
        return ns / R / 1e9

    def us_per_call(name: str) -> float:
        return st.total_ns[name] / st.calls[name] / 1e3 if st.calls[name] else 0.0

    def calls(name: str) -> int:
        return st.calls[name] // R

    solve_ns = sum(st.total_ns[n] for n in tracer.solve_names)
    oracle_in_solve = st.in_solve_ns["problems.objective"] + st.in_solve_ns["problems.subgrad"]
    solver_self_ns = sum(st.self_ns[n] for n in tracer.solve_names if n.startswith("solvers."))
    solver_iters = first["solver_iters"]
    parse_s = su.total_ns["data.parse_libsvm"] / 1e9
    write_s = per_round_s(st.total_ns["cli.write"])
    art = first["artifact_bytes"]
    m = {
        "problems.subgrad_us": _metric(us_per_call("problems.subgrad"), "us"),
        "problems.subgrad_calls": _metric(calls("problems.subgrad"), "count"),
        "problems.objective_us": _metric(us_per_call("problems.objective"), "us"),
        "problems.objective_calls": _metric(calls("problems.objective"), "count"),
        "problems.busy_frac": _metric(oracle_in_solve / solve_ns if solve_ns else 0.0, "ratio"),
        "problems.build_s": _metric(sum(su.total_ns[b] for b in BUILDERS) / 1e9, "s"),
        "core.project_us": _metric(us_per_call("core.project"), "us"),
        "core.project_calls": _metric(calls("core.project"), "count"),
        "solvers.self_us_per_iter": _metric(
            solver_self_ns / R / solver_iters / 1e3 if solver_iters else 0.0, "us"
        ),
        "solvers.iters": _metric(solver_iters, "count"),
        "solvers.records": _metric(first["records"], "count"),
        "solvers.pnorm_prox_us": _metric(us_per_call("solvers.pnorm_prox"), "us"),
        "solvers.pnorm_prox_calls": _metric(calls("solvers.pnorm_prox"), "count"),
        "oracles.grid_min_s": _metric(per_round_s(st.total_ns["oracles.grid_min"]), "s"),
        "oracles.grid_points": _metric(first["grid_points"], "count"),
        "oracles.long_run_min_s": _metric(per_round_s(st.total_ns["oracles.long_run_min"]), "s"),
        "oracles.long_run_iters": _metric(first["long_run_iters"], "count"),
        "oracles.level_probe_s": _metric(
            per_round_s(
                st.total_ns["oracles.estimate_B_eps"] + st.total_ns["oracles.sublevel_project"]
            ),
            "s",
        ),
        "oracles.enumerate_s": _metric(
            per_round_s(st.total_ns["oracles.submodular_min_enumerate"]), "s"
        ),
    }
    for name in SUITES:
        m[f"verify.suite_s.{name}"] = _metric(per_round_s(st.total_ns[f"verify.suite_{name}"]), "s")
    m.update(
        {
            "data.synth_s": _metric(
                sum(v for k, v in su.total_ns.items() if k.startswith("data.synth_")) / 1e9, "s"
            ),
            "data.parse_s": _metric(parse_s, "s"),
            "data.parse_mb_per_s": _metric(
                setup_file_bytes / 1e6 / parse_s if parse_s else 0.0, "MB/s"
            ),
            "cli.artifact_bytes": _metric(art, "bytes"),
            "cli.write_mb_per_s": _metric(art / 1e6 / write_s if write_s else 0.0, "MB/s"),
            "trace.overhead_frac": _metric(
                statistics.fmean(r["wall_s"] for r in traced)
                / statistics.fmean(r["wall_s"] for r in plain)
                - 1.0,
                "ratio",
            ),
            "trace.wall_s": _metric(per_round_s(st.root_ns), "s"),
        }
    )
    for module in MODULES + ("bench",):
        m[f"{module}.self_s"] = _metric(per_round_s(st.module_self_ns(module)), "s")
    return m


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    min_rounds: int = 3,
    setup_reps: tuple[int, float] = (5, 0.5),
    out_dir: Path = OUT_DIR,
) -> tuple[dict, dict]:
    """Run one workload; returns (result line, fuller report)."""
    from tracing import Tracer
    from workloads import WORKLOADS, Lib

    wl = WORKLOADS[workload](seed, size, out_dir / f"work_{workload}_{seed}_{os.getpid()}")
    try:
        plain = Lib()

        def timed_setups(min_reps: int, min_total: float):
            times: list[float] = []
            while len(times) < min_reps or sum(times) < min_total:
                t0 = time.perf_counter()
                state = wl.setup(plain)
                times.append(time.perf_counter() - t0)
            return state, times

        # set-up is repeated before the first round and again (untimed by the
        # rounds) after each one, so its samples span the whole run
        state, setup_times = timed_setups(*setup_reps)
        refs = wl.references(state)
        tracer = traced_lib = None
        if trace:
            tracer = Tracer()
            traced_lib = Lib(tracer)
            with tracer.span("bench.setup"):
                file_bytes = wl.setup(traced_lib).get("file_bytes", 0)
            min_rounds = max(min_rounds, 2)

        rounds: list[dict] = []
        errors: list[str] = []
        attempted = failed = 0
        first_key = None
        fastest = FastestTimes()
        start = time.perf_counter()
        # start a round only while it is expected to end within --seconds
        elapsed = 0.0
        while len(rounds) < min_rounds or elapsed * (len(rounds) + 1) / len(rounds) <= seconds:
            traced_round = trace and len(rounds) % 2 == 1
            t0 = time.perf_counter_ns()
            if traced_round:
                with tracer.span("bench.round"):
                    outcomes = wl.round(state, refs, traced_lib)
            else:
                outcomes = wl.round(state, refs, plain)
            wall = (time.perf_counter_ns() - t0) / 1e9
            wl.after_round(outcomes)
            setup_times += timed_setups(1, setup_reps[1] / 4)[1]
            attempted += len(outcomes)
            for o in outcomes:
                if o.error is not None:
                    failed += 1
                    errors.append(f"round {len(rounds)} {o.name}: {o.error}")
            key = _round_key(outcomes)
            if first_key is None:
                first_key = key
                first_ops = [
                    {
                        "name": o.name,
                        "wall_s": o.wall_s,
                        "iters": o.iters,
                        "iters_to_target": o.iters_to_target,
                        "time_to_target_s": o.time_to_target_s,
                    }
                    for o in outcomes
                ]
            else:
                attempted += 1
                if key != first_key:
                    failed += 1
                    errors.append(f"round {len(rounds)}: outputs differ from round 0")
                elif not traced_round:
                    # the first round warms caches and code paths and is not timed
                    fastest.add(outcomes)
            rounds.append(
                {
                    "traced": traced_round,
                    "wall_s": wall,
                    "iters": sum(o.iters for o in outcomes),
                    "iters_to_target": sum(o.iters_to_target for o in outcomes),
                    "ttt_s": sum(o.time_to_target_s for o in outcomes),
                    "fastest_wall_s": fastest.wall_s(),
                    "solver_iters": sum(o.solver_iters for o in outcomes),
                    "records": sum(o.records for o in outcomes),
                    "grid_points": sum(o.iters for o in outcomes if o.name.startswith("grid_")),
                    "long_run_iters": sum(
                        o.iters for o in outcomes if o.name.startswith("long_run_")
                    ),
                    "artifact_bytes": sum(o.extra.get("bytes", 0) for o in outcomes),
                }
            )
            elapsed = time.perf_counter() - start
    finally:
        wl.close()

    if trace:
        metrics = per_layer(tracer, rounds, file_bytes)
    else:
        metrics = end_to_end(rounds, fastest, setup_times)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": workload,
        "why": wl.why,
        "seed": seed,
        "dev_seed": DEV_SEED,
        "check_seed": CHECK_SEED,
        "size": size,
        "params": repr(wl.p),
        "trace": trace,
        "seconds": seconds,
        "setup_s": setup_times,
        "rounds": rounds,
        "round0_ops": first_ops,
        "errors": errors[:50],
        "result": result,
    }
    if trace:
        report["spans"] = len(tracer.spans)
        tracer.write_csv(out_dir / f"spans_{workload}_seed{seed}.csv")
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    host = host_info()
    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed}), flush=True)
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report["host"] = host
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for line in report["errors"][:10]:
        print(line, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
