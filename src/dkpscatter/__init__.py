"""Scattering of spin-one particles on the smooth potential step
V(x) = a tanh(bx): exact transmission/reflection coefficients, interior
wavefunctions, the ten-dimensional matrix algebra behind them, and an
independent ODE-based cross-check.

Superradiant energies (R > 1, T < 0) appear for a > m in the band
-a + m < E < a - m.
"""

from .algebra import (
    BetaSet,
    SpinorTriple,
    assemble_spinor,
    beta_matrices,
    dkp_residual,
    trilinear_residual,
)
from .errors import (
    BoundaryEnergyError,
    ChannelClosedError,
    DegenerateParametersError,
    DkpScatterError,
    EvanescentIncidentError,
    IllConditionedError,
    InvalidParameterError,
    NonConvergenceError,
    PoleError,
    RangeError,
)
from .oracle import IntegrationSettings, NumericRT, numeric_rt
from .scattering import (
    ConnectionCoefficients,
    Currents,
    HypergeometricParams,
    KinematicParams,
    Particle,
    Potential,
    Region,
    ScatteringResult,
    StepRT,
    boundary_eps,
    classify_region,
    connection_coefficients,
    critical_energies,
    currents,
    hypergeometric_parameters,
    kinematics,
    scattering_coefficients,
    step_rt,
)
from .specfun import hyp2f1, log_gamma
from .wavefield import (
    ComponentResiduals,
    Kind,
    asymptotic_wavefunction,
    component_residuals,
    wavefunction,
)

__version__ = "0.1.0"

# Always False: no compiled path exists.  The benchmark's worker still reads it.
JIT_ENABLED = False

__all__ = [
    "__version__",
    # errors
    "DkpScatterError",
    "InvalidParameterError",
    "PoleError",
    "NonConvergenceError",
    "DegenerateParametersError",
    "IllConditionedError",
    "BoundaryEnergyError",
    "EvanescentIncidentError",
    "ChannelClosedError",
    "RangeError",
    # special functions
    "log_gamma",
    "hyp2f1",
    # algebra
    "BetaSet",
    "SpinorTriple",
    "beta_matrices",
    "trilinear_residual",
    "assemble_spinor",
    "dkp_residual",
    # scattering
    "Potential",
    "Particle",
    "Region",
    "KinematicParams",
    "HypergeometricParams",
    "ConnectionCoefficients",
    "ScatteringResult",
    "Currents",
    "StepRT",
    "critical_energies",
    "boundary_eps",
    "kinematics",
    "classify_region",
    "hypergeometric_parameters",
    "connection_coefficients",
    "scattering_coefficients",
    "currents",
    "step_rt",
    # wavefield
    "Kind",
    "ComponentResiduals",
    "wavefunction",
    "asymptotic_wavefunction",
    "component_residuals",
    # oracle
    "IntegrationSettings",
    "NumericRT",
    "numeric_rt",
]
