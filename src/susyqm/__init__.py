"""Finite-dimensional toolkit for supersymmetric quantum mechanics.

Validates the defining relations of supersymmetric systems (real,
complex, graded), converts between the formulations, constructs grading
operators from charge pairs, and analyzes the spectral consequences:
cross-sector eigenvalue pairing, zero-mode counting, the Witten index.
Lattice builders provide the canonical worked examples; a CLI
(``susyqm``) drives everything from JSON files.
"""

# Each module's __all__ is the one list of its public names; the package
# re-exports them all, in this import order.
from .core import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .grading import *  # noqa: F401,F403
from .susy import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from . import analysis, core, grading, models, spectral, susy

__version__ = "0.1.0"

__all__ = sorted(name for module in (core, spectral, grading, susy, analysis, models)
                 for name in module.__all__)
