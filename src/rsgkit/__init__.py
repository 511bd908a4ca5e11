"""rsgkit: restarted subgradient methods for non-smooth convex problems
with local error bounds, plus a problem zoo, brute-force oracles, and a
benchmark CLI."""

from . import core, data, oracles, problems, solvers, verify
from .core import *
from .data import *
from .oracles import *
from .problems import *
from .solvers import *
from .verify import *

__version__ = "0.1.0"

__all__ = [n for m in (core, data, oracles, problems, solvers, verify) for n in m.__all__]
