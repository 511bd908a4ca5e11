"""Spans around the calls into each rsgkit module, for the traced run only.

A span records its name (``<module>.<call>``), start and end (perf_counter
ns), the index of its parent span and the id of the solve it belongs to
(0 outside any solve).  Spans stay in memory until the run ends.  The
wrappers live here, in the benchmark, and reach the library only through
public names; ``src/`` is never edited.  Untraced rounds call the library
directly.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("core", "problems", "solvers", "oracles", "data", "verify", "cli")


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, solve id)
        self.spans: list[tuple] = []
        self._stack = [-1]
        self._solve_ids = [0]
        self._next_solve = 1
        self.solve_names: set[str] = set()

    def wrap(self, name: str, fn, solve: bool = False):
        """Return fn wrapped in a span; ``solve`` opens a new solve id."""
        spans, stack, solve_ids = self.spans, self._stack, self._solve_ids
        clock = time.perf_counter_ns
        if solve:
            self.solve_names.add(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            if solve:
                solve_ids.append(self._next_solve)
                self._next_solve += 1
            sid = solve_ids[-1]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if solve:
                    solve_ids.pop()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, sid)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of benchmark code."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self._solve_ids[-1])

    def instance(self, problem):
        """A copy of a ProblemInstance whose oracle calls record spans."""
        project = problem.project
        return dataclasses.replace(
            problem,
            objective=self.wrap("problems.objective", problem.objective),
            subgrad=self.wrap("problems.subgrad", problem.subgrad),
            project=None if project is None else self.wrap("core.project", project),
        )

    @contextlib.contextmanager
    def patched(
        self, module, name: str, span_name: str, instances: bool = False, solve: bool = False
    ):
        """Rebind the public name ``module.name`` to a traced wrapper for the
        duration of the block.  With ``instances`` the returned
        ProblemInstance is replaced by its traced copy.  A name the module no
        longer has is left alone, so its spans and counts read zero."""
        original = getattr(module, name, None)
        if original is None:
            yield
            return
        wrapped = self.wrap(span_name, original, solve=solve)
        if instances:
            inner = wrapped
            wrapped = lambda *a, **k: self.instance(inner(*a, **k))  # noqa: E731
        setattr(module, name, wrapped)
        try:
            yield
        finally:
            setattr(module, name, original)

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_ns", "end_ns", "parent", "solve_id"])
            for k, (name, t0, t1, parent, sid) in enumerate(self.spans):
                writer.writerow([k, name, t0, t1, parent, sid])


class SpanStats:
    """Per-name totals over a set of root spans and everything below them."""

    def __init__(self, tracer: Tracer, root_name: str) -> None:
        spans = tracer.spans
        child_time = [0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        in_scope = [False] * len(spans)
        for k, (name, _, _, parent, _) in enumerate(spans):
            in_scope[k] = name == root_name if parent < 0 else in_scope[parent]
        self.roots = 0
        self.root_ns = 0
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.in_solve_ns: dict[str, int] = defaultdict(int)
        for k, (name, t0, t1, parent, sid) in enumerate(spans):
            if not in_scope[k]:
                continue
            dur = t1 - t0
            if parent < 0:
                self.roots += 1
                self.root_ns += dur
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child_time[k]
            self.calls[name] += 1
            if sid:
                self.in_solve_ns[name] += dur

    def module_self_ns(self, module: str) -> int:
        return sum(v for k, v in self.self_ns.items() if k.split(".", 1)[0] == module)
