"""Numerical laboratory for extrinsic geometry of submanifolds of the
round unit sphere: shape operators from charts, the conformal bending
energy and its critical-point residuals, pinching integrals with their
rigidity classifier, matrix and tensor inequality checks, and a
critical-radius optimizer for the product-torus family.

Each library module's ``__all__`` is the one list of its public names;
the package re-exports every one of them.
"""

from . import catalog, grids, immersion, linalg, optimize, tensors, willmore
from .catalog import *
from .grids import *
from .immersion import *
from .linalg import *
from .optimize import *
from .tensors import *
from .willmore import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (catalog, grids, immersion, linalg, optimize, tensors, willmore)
    for name in module.__all__
]
