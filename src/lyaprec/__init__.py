"""Growth rates of the random linear recursion x_{i+1} = a_i x_i + b_i
with log-correlated multipliers, in the fixed-beta scaling regime.

The top-level names cover the exact variational solver, the
flat-profile (mean-field) approximation, the phase-structure tools, and
the path simulators: every name in the __all__ of errors, numerics,
variational, meanfield, phase and simulate. The command line lives in
lyaprec.cli.
"""
from . import errors, meanfield, numerics, phase, simulate, variational
from .errors import *
from .meanfield import *
from .numerics import *
from .phase import *
from .simulate import *
from .variational import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, numerics, variational, meanfield, phase, simulate)
           for name in module.__all__] + ["__version__"]
