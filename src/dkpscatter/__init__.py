"""Scattering of spin-one particles on the smooth potential step
V(x) = a tanh(bx): exact transmission/reflection coefficients, interior
wavefunctions, the ten-dimensional matrix algebra behind them, and an
independent ODE-based cross-check.

Superradiant energies (R > 1, T < 0) appear for a > m in the band
-a + m < E < a - m.

The public names are exactly those of each module's __all__.
"""

from .algebra import *
from .errors import *
from .oracle import *
from .scattering import *
from .specfun import *
from .wavefield import *
from . import algebra, errors, oracle, scattering, specfun, wavefield

__version__ = "0.1.0"

# Always False: no compiled path exists.  The benchmark's worker still reads it.
JIT_ENABLED = False

__all__ = ["__version__", *errors.__all__, *specfun.__all__, *algebra.__all__,
           *scattering.__all__, *wavefield.__all__, *oracle.__all__]
