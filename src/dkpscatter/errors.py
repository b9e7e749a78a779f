"""Exception types shared across the package."""


class DkpScatterError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(DkpScatterError, ValueError):
    """A constructor or call argument violates its documented constraint."""


class PoleError(DkpScatterError):
    """A gamma-function argument landed on a nonpositive integer."""


class NonConvergenceError(DkpScatterError):
    """An iterative evaluation hit its term or step cap before converging."""


class IllConditionedError(DkpScatterError):
    """Cancellation in an evaluation would leave fewer correct digits than
    the package guarantees."""


class DegenerateParametersError(DkpScatterError):
    """Hypergeometric parameter difference a-b is integer where the
    connection formula for z < -1 needs it nonintegral."""


class BoundaryEnergyError(DkpScatterError):
    """Energy sits within BOUNDARY_EPS of a channel threshold, or in the gap
    where neither channel propagates."""


class EvanescentIncidentError(DkpScatterError):
    """The incident channel does not propagate for these parameters."""


class ChannelClosedError(DkpScatterError):
    """A scattering channel needed by this computation is evanescent."""


class RangeError(DkpScatterError):
    """An input is outside the numerically representable range: a position
    with |2bx| above the exponent cap, or parameters whose kinematics
    (nu, mu, lam) or whose R and T leave the floating-point range."""
