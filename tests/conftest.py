"""Shared test settings.

Property-based tests run under one hypothesis profile: derandomized, with a
fixed example count, no example database and no deadline, so every run draws
the same examples and cannot fail on a slow phase of the host.  Hypothesis
also caches constants it harvests from local modules; its home directory is
a temporary one removed at exit, so a test run leaves no ``.hypothesis/``.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.TemporaryDirectory(prefix="rsgkit-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

settings.register_profile(
    "rsgkit", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.load_profile("rsgkit")
