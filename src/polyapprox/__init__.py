"""Polygonal approximation of closed digital curves.

Builds minimum-error polygons on integer-lattice rings, scores
heuristic approximations against the optimal baseline, and compares
relative quality measures across a corpus.

The public names are those in each module's ``__all__``; this package
re-exports them all, and declares none of its own.
"""

from . import approx_error, curve, exceptions, measures, optimal, schemes, study
from .approx_error import *  # noqa: F401,F403
from .curve import *  # noqa: F401,F403
from .exceptions import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .optimal import *  # noqa: F401,F403
from .schemes import *  # noqa: F401,F403
from .study import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (approx_error, curve, exceptions, measures, optimal, schemes, study)
    for name in module.__all__
]
