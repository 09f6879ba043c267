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


def euler_qp(a, q):
    """(a; q)_inf by Euler's series sum_k (-a)^k q^(k(k-1)/2) / (q; q)_k
    (Gasper & Rahman (1.3.16)), in mpmath, to about 20 digits.  The terms
    cancel: the largest reaches 3e30 times the sum at a = 1.7, q = 0.95.
    So the series is summed, max |t| / |sum| read, and summed again with
    the digits raised by that ratio's log10 plus a margin of 5, until the
    digits it was summed with cover the raise."""
    from mpmath import mp

    def euler(digits):
        with mp.workdps(digits):
            x, b = mp.mpmathify(a), mp.mpf(q)
            total, term, big, qk = mp.mpf(0), mp.mpf(1), mp.mpf(0), mp.mpf(1)
            while True:
                total += term
                big = max(big, abs(term))
                ratio = -x * qk / (1 - qk * b)  # t_(k+1) / t_k, falling in k
                if abs(ratio) < 0.5 and abs(term) <= mp.eps * abs(total):
                    return total, big
                term *= ratio
                qk *= b

    dps, margin = 20, 5
    digits = dps + margin
    while True:
        total, big = euler(digits)
        need = dps + margin + max(0, int(mp.ceil(mp.log10(big / abs(total)))))
        if digits >= need:
            with mp.workdps(dps):
                return +total
        digits = need
