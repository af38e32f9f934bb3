"""Rearrangement-invariant space norms on (0, 1] and growth of symmetric sums.

The package prices step functions in Lorentz, Marcinkiewicz, Orlicz, and
L_{p,q} spaces, computes exact laws of signed-indicator walks, measures the
norms of the averaged dilation operators, classifies their growth (norm equal
to n versus a C * n^q power bound), probes the compound-Poisson series
criterion, and runs exact and Monte Carlo growth experiments.

Each submodule's ``__all__`` is its public surface; the package re-exports them.
"""

from . import dichotomy, experiments, gaussian, generators, norms, stepfn, walks
from .stepfn import *
from .gaussian import *
from .generators import *
from .walks import *
from .norms import *
from .dichotomy import *
from .experiments import *

__version__ = "0.1.0"

__all__ = [
    *stepfn.__all__,
    *gaussian.__all__,
    *generators.__all__,
    *walks.__all__,
    *norms.__all__,
    *dichotomy.__all__,
    *experiments.__all__,
]
