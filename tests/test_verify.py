"""The bundled verification suites must pass and report one summary line."""

from __future__ import annotations

import pytest

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
    assert lines[-1].endswith("0 failures")
