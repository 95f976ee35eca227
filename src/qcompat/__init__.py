"""qcompat: compatibility of density-matrix state assignments.

Checks whether several density matrices could all describe one and the
same physical system (their supports must share a direction), compares
that verdict against the classical pairwise commutation and
non-orthogonality criteria, and constructs the shared-state decompositions
and tripartite witness state that prove compatibility operationally.
"""

from . import errors, linalg, states, compat, witness
from .errors import *
from .linalg import *
from .states import *
from .compat import *
from .witness import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *linalg.__all__,
    *states.__all__,
    *compat.__all__,
    *witness.__all__,
]
