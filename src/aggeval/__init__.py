"""Aggregated quality evaluation of networked, hierarchical systems.

The package scores a system from per-element quality evaluations: flat
aggregation operators with adequacy diagnostics (:mod:`aggeval.core`),
a structural model for flow networks and evaluation hierarchies
(:mod:`aggeval.network`), priorities derived from network structure
(:mod:`aggeval.priority`), bottom-up rollup with method comparison and
sweeps (:mod:`aggeval.hierarchy`), and a JSON description format plus
CLI (:mod:`aggeval.description`, :mod:`aggeval.cli`).
"""

from .core import *
from .description import *
from .hierarchy import *
from .network import *
from .priority import *

__version__ = "0.1.0"

__all__ = (
    core.__all__
    + description.__all__
    + hierarchy.__all__
    + network.__all__
    + priority.__all__
)
