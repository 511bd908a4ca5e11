"""The bundled verification suites must pass and report one summary line."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from rsgkit import verify
from rsgkit.core import Oracle
from rsgkit.problems import miniature_zoo
from rsgkit.verify import SUITES, lemmas_suite, prox_suite, run_suite, zoo_suite


def test_suite_registry():
    assert set(SUITES) == {"prox", "lemmas", "oracle", "zoo"}


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything")


def test_prox_suite_passes():
    ok, lines = prox_suite(200, seed=99)
    assert ok
    assert lines[-1].startswith("[pass]")


def test_lemmas_suite_passes():
    ok, lines = lemmas_suite()
    assert ok
    assert "violations" in lines[-1]
    # the report of the seeded draws: a reordered or dropped check moves it
    assert lines[-1] == "[pass] lemmas suite: 276 bound checks across 9 instances, 0 violations"


def test_zoo_suite_passes():
    ok, lines = zoo_suite(n_pairs=200, seed=7)
    assert ok


def test_oracle_suite_passes():
    ok, lines = run_suite("oracle")
    assert ok
    # every member of dimension <= 2, the constrained hinge_l1ball_2d (no
    # declared minimum) included
    assert lines[-1] == "[pass] oracle suite: 8 members grid-checked, 0 failures"



def test_zoo_suite_fails_a_batch_that_disagrees_with_the_per_point_calls(monkeypatch):
    zoo = miniature_zoo()
    l1 = zoo["l1_2d"]
    scale = [1.0]

    def skewed(W, want_f, want_g):
        """l1_2d's pass at a point; on a block, values off by 1e-9 relative
        and subgradients times scale."""
        f, g = l1.oracle.run(W, want_f, want_g)
        if W.ndim == 2 and want_f:
            f = f * (1.0 + 1e-9)
        if W.ndim == 2 and want_g:
            g = scale[0] * g
        return f, g

    # each block half is used only while its callable is derived from the pass
    zoo["l1_2d"] = replace(l1, oracle=Oracle(skewed), objective=None)
    zoo["l1_sub"] = replace(l1, oracle=Oracle(skewed), subgrad=None, name="l1_sub")
    monkeypatch.setattr(verify, "miniature_zoo", lambda: zoo)
    ok, lines = zoo_suite(n_pairs=30, seed=7)
    assert not ok and len(lines) == 2 and lines[-1].endswith("1 failures")
    assert lines[0].startswith("[FAIL] block oracles on l1_2d: differ from per-point calls by 1.")

    scale[0] = 2.0
    ok, lines = zoo_suite(n_pairs=30, seed=7)
    assert not ok
    # the doubled batch subgradient also breaks the bound that l1_sub declares
    assert "[FAIL] block oracles on l1_sub: differ from per-point calls by 1.000e+00" in lines


def test_zoo_suite_fails_a_nan_subgradient(monkeypatch):
    l1 = miniature_zoo()["l1_2d"]
    nan_sub = replace(l1, subgrad=lambda w: np.full(2, np.nan), name="nan_sub")
    monkeypatch.setattr(verify, "miniature_zoo", lambda: {"nan_sub": nan_sub})
    ok, lines = zoo_suite(n_pairs=10, seed=7)
    assert not ok
    assert "[FAIL] subgradient bound on nan_sub: exceeds declared G by nan" in lines
