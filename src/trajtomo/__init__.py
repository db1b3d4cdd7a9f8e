"""Initial-state tomography from measurement trajectories.

The workflow, end to end:

1. describe the measurement as a step family (discrete outcomes via
   KrausFamily, diffusive signals via SMEModel);
2. compress each measured record into a single effect and scale with the
   backward adjoint recursion, so the record likelihood becomes
   exp(log_c) * tr(rho E);
3. maximize the joint likelihood over initial states with a certified
   projected-gradient solver;
4. attach error bars from the boundary-aware stiffness form, with a
   Monte Carlo posterior cross-check in low dimension.

Forward filtering, trajectory simulation, ready-made physical models and
deterministic file formats round out the toolkit; the ``trajtomo``
command line wraps the full loop.
"""
from . import config, confidence, continuous, errors, filtering, maxlike, models
from . import operators, qubit
from .errors import *
from .operators import *
from .filtering import *
from .maxlike import *
from .confidence import *
from .qubit import *
from .continuous import *
from .models import *

__version__ = "0.1.0"

# every public name is declared once, in the __all__ of the module defining it
__all__ = [
    *errors.__all__,
    *operators.__all__,
    *filtering.__all__,
    *maxlike.__all__,
    *confidence.__all__,
    *qubit.__all__,
    *continuous.__all__,
    *models.__all__,
    "__version__",
]
