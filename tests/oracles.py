"""Checks kept only to cross-check the package: no command, report or
benchmark workload calls them."""

from fractions import Fraction

from qsk.context import ParamPoint
from qsk.errors import PreconditionViolation
from qsk.genfun import IdentityReport
from qsk.orthofunc import FunctionalSpec, inner_product, norm_constant
from qsk.polyfam import FAMILIES, FamilyId


def verify_orthogonality(
    family: FamilyId, spec: FunctionalSpec, m: int, n: int
) -> IdentityReport:
    """Compare <p_m, p_n> under the functional with norm * delta_mn."""
    if spec.family is not family:
        raise PreconditionViolation("family does not match the functional's parameters")
    if m < 0 or n < 0:
        raise PreconditionViolation("m, n must be >= 0")
    evaluate = FAMILIES[family].evaluate
    lhs, count = inner_product(spec, lambda x: evaluate(m, x, spec.params),
                               lambda x: evaluate(n, x, spec.params))
    rhs = complex(norm_constant(spec, n)) if m == n else complex(0.0)
    return IdentityReport.of(f"ORTHO_{family.name}_{spec.kind.name}",
                             spec.params.base.q, ParamPoint.of(m=m, n=n),
                             lhs, rhs, count, 0, True)


def lql_exact(n: int, x, a, q) -> Fraction:
    """Little q-Laguerre p_n(x; a | q) = 2phi1(q^-n, 0; aq; q, qx), summed
    exactly in Fraction over the values it is given: doubles, or a
    Fraction such as ``Fraction(q) ** k`` for the lattice point q^k of the
    double q.  Nested from the last term, 1 + r_0 (1 + r_1 (...)), with
    r_k = (1 - q^(k-n)) qx / ((1 - q^(k+1)) (1 - a q^(k+1))) the term
    ratio, so only the final value is reduced."""
    x, a, q = Fraction(x), Fraction(a), Fraction(q)
    num, den = 1, 1
    for k in reversed(range(n)):
        r = (1 - q ** (k - n)) * q * x / ((1 - q ** (k + 1)) * (1 - a * q ** (k + 1)))
        num, den = den * r.denominator + num * r.numerator, den * r.denominator
    return Fraction(num, den)
