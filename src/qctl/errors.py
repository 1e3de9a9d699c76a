"""Exception hierarchy for qctl.

Domain failures derive from :class:`QctlError` so callers (and the CLI)
can separate them from programming errors and I/O problems.
"""


class QctlError(Exception):
    """Base class for all domain-level failures raised by qctl."""


class DimensionMismatch(QctlError):
    """Matrix or system shapes do not conform."""


class EigensolverFailure(QctlError):
    """The dense eigensolver did not converge."""


class ZeroDivisor(QctlError):
    """A polynomial division or fraction required a nonzero divisor."""


class BothZero(QctlError):
    """gcld/gcrd of the zero pair is undefined."""


class NonCausal(QctlError):
    """A fraction with den(0) = 0 was used where a causal transfer
    function is required (series expansion, realization)."""


class AnnihilatorNotFound(QctlError):
    """No minimal annihilator met the residual tolerance.  Signals
    numerical breakdown; cannot occur in exact arithmetic."""


class Unsolvable(QctlError):
    """The Diophantine equation a x + b y = c has no solution: the
    greatest common left divisor g does not left-divide c.

    Attributes
    ----------
    g : QPoly
        The offending common left divisor.
    remainder : QPoly
        The nonzero remainder of left-dividing c by g.
    """

    def __init__(self, message, g=None, remainder=None):
        super().__init__(message)
        self.g = g
        self.remainder = remainder


class DegenerateKernel(QctlError):
    """A minimal-solution flavor was requested but the kernel pair is
    degenerate (one equation side is the zero polynomial), so the
    requested degree bound is meaningless."""


class ZeroRoot(QctlError):
    """A prescribed closed-loop root is zero; c(0) would vanish and the
    controller could not be causal."""


class NonCausalController(QctlError):
    """Pole placement produced p_r(0) = 0."""


class IllPosed(QctlError):
    """The closed-loop denominator a_l p_r + b_l q_r is identically
    zero; the feedback interconnection is not well posed."""


class IllPosedLoop(QctlError):
    """The static loop gain 1 + J_plant J_ctrl is not invertible."""


class SimulationDiverged(QctlError):
    """A simulated output is not finite: the run overflowed or produced
    NaN.  The CLI raises it; the library's simulate returns the IEEE
    values."""


class IllConditioned(QctlError):
    """A computed zero candidate failed its similarity-class validation
    by more than the reporting threshold."""


class ParseError(QctlError):
    """A JSON document did not match any known object layout.

    ``field`` names the offending key or index path when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message if field is None
                         else f"{field}: {message}")
        self.field = field
