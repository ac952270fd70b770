"""Environment-assisted transport in tight-binding chains and rings.

Builds single-particle tight-binding generators with site dephasing,
uniform loss, and trap drains; solves for trapping efficiency by a certified
steady-state (resolvent) route and by propagation; and provides the
analysis layer (dephasing optimization, parameter-plane sweeps, analytic
small-system and estimate formulas).
"""

from . import analysis, errors, model, solver
from .errors import *
from .model import *
from .solver import *
from .analysis import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *model.__all__, *solver.__all__,
           *analysis.__all__]
