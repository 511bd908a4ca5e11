"""The package namespace: each public name is listed once, in its module's
``__all__``, and ``rsgkit`` re-exports those lists."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import rsgkit
from rsgkit import core, data, oracles, problems, solvers, verify

MODULES = (core, data, oracles, problems, solvers, verify)


def test_all_is_the_module_lists_joined_in_order():
    joined = [name for module in MODULES for name in module.__all__]
    assert rsgkit.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_each_top_level_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rsgkit, name) is getattr(module, name), (module.__name__, name)


def test_import_does_not_load_the_cli():
    src = str(Path(rsgkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import rsgkit, sys; sys.exit('rsgkit.cli' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
