"""Exception taxonomy shared by all qsk modules."""


class QskError(Exception):
    """Base class for all qsk errors."""


class PreconditionViolation(QskError):
    """An argument lies outside the stated domain of the operation."""


class DegenerateDenominator(QskError):
    """A Pochhammer symbol in a denominator vanishes (or is below the
    machine guard), so the requested quantity is undefined."""


class DivergentSeries(QskError):
    """A non-terminating basic hypergeometric series outside its
    convergence domain (r > s + 1, or r = s + 1 with |z| >= 1)."""


class ZeroDenominator(QskError):
    """A denominator parameter of a series hits q**-m before the series
    terminates, producing a division by zero."""


class NoConvergence(QskError):
    """The term cap was reached before the stopping rule fired."""


class ZeroParameter(QskError):
    """A family parameter that must be nonzero is zero."""


class IllConditioned(QskError):
    """The requested value is formally defined but numerically unstable
    at this parameter point (for example a norm constant with alpha
    within 1e-6 of a nonnegative integer, where 1/sin(pi*alpha)
    amplifies rounding)."""


class QuadratureNonConvergence(QskError):
    """Quadrature refinement hit its cap without stabilizing."""


class TailNonConvergence(QskError):
    """A lattice or bilateral sum hit its window cap without its tail
    becoming negligible."""
