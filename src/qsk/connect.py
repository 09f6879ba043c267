"""Connection coefficients with one free parameter for the four families,
plus pointwise verification of the resulting expansions.

Each operation expands a degree-n polynomial with source parameters as a
finite combination of the same family with one parameter replaced:

* Askey-Wilson:      p_n(x; a,b,c,d)   = sum_k  c_k p_k(x; alpha,b,c,d)
* q-ultraspherical:  C_n(x; beta)      = sum_k  c_k C_(n-2k)(x; gamma)
* little q-Laguerre: p_n(x; a)         = sum_j  c_j p_j(x; b)
* q-Laguerre:        L_n^(alpha)       = sum_j  c_j L_j^(beta)

Coefficients mixing large q^(+-binom) power factors with large-argument
Pochhammer symbols are assembled as scaled values that shift magnitude
into a running q-exponent, so intermediates stay inside double range well
past n = 20; a coefficient whose value leaves double range raises
IllConditioned.  A Pochhammer symbol whose parameter is fixed over a
coefficient loop is built once, as the prefix table of ``poch_prefix``,
with the bits of building each (a; q)_m afresh.  The target record is
built first, so a bad target value is refused under the target's name
before any coefficient is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateDenominator, PreconditionViolation
from .polyfam import FAMILIES, FamilyId
from .qpoch import QBase, QLike, as_base, poch_finite, poch_prefix, renorm, unscale


@dataclass(frozen=True)
class ConnectionExpansion:
    """Expansion of one polynomial over the same family with a shifted
    parameter.  ``coefficients`` holds (target degree, value) pairs; for
    the q-ultraspherical family the degrees are n, n-2, n-4, ...
    (parity preserving), for the other families 0..n."""

    family: FamilyId
    n: int
    source_params: object
    target_params: object
    coefficients: tuple[tuple[int, complex], ...]


def _records(fid: FamilyId, n: int, q: QLike, values: tuple, new, name: str) -> tuple:
    """(q, source record of ``values``, target record with ``new`` as first value):
    the target is built first, so a bad ``new`` is refused under ``name``."""
    qv = as_base(q)
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    family, base = FAMILIES[fid], QBase(qv)
    tgt = family.params(new, *values[1:], base, (name, *family.names[1:]))
    return qv, family.params(*values, base), tgt


def aw_connection(
    n: int,
    a: complex,
    b: complex,
    c: complex,
    d: complex,
    alpha: complex,
    q: QLike,
) -> ConnectionExpansion:
    """Askey-Wilson coefficients

    c_k = alpha^(n-k) (a/alpha; q)_(n-k) (abcd q^(n-1); q)_k
          (q, bc, bd, cd; q)_n
          / ((q, bc, bd, cd, alpha*bcd q^(k-1); q)_k
             (q, alpha*bcd q^(2k); q)_(n-k)),  k = 0..n.
    """
    qv, src, tgt = _records(FamilyId.ASKEY_WILSON, n, q, (a, b, c, d), alpha, "alpha")
    if abs(alpha) == 0.0:
        raise PreconditionViolation("free parameter alpha must be nonzero")
    a, b, c, d, alpha = (complex(v) for v in (a, b, c, d, alpha))
    bcd = b * c * d
    abcd = a * bcd
    # (p; q)_0 .. (p; q)_n of each symbol whose parameter p is fixed over k
    qq, pbc, pbd, pcd, pa, pabcd = (
        poch_prefix(p, qv, n)
        for p in (qv, b * c, b * d, c * d, a / alpha, abcd * qv ** (n - 1)))
    shared = qq[n] * pbc[n] * pbd[n] * pcd[n]
    coeffs = []
    for k in range(n + 1):
        num = alpha ** (n - k) * pa[n - k] * pabcd[k] * shared
        den = (
            qq[k] * pbc[k] * pbd[k] * pcd[k]
            * poch_finite(alpha * bcd * qv ** (k - 1), qv, k)
            * qq[n - k]
            * poch_finite(alpha * bcd * qv ** (2 * k), qv, n - k)
        )
        if abs(den) < 1e-280:
            raise DegenerateDenominator(
                f"vanishing denominator Pochhammer at k={k}"
            )
        coeffs.append((k, num / den))
    return ConnectionExpansion(FamilyId.ASKEY_WILSON, n, src, tgt, tuple(coeffs))


def ultra_connection(n: int, beta: float, gamma: float, q: QLike) -> ConnectionExpansion:
    """q-ultraspherical coefficients: the multiplier of C_(n-2k)(x; gamma) is

        (1 - gamma q^(n-2k)) gamma^k (beta/gamma; q)_k (beta; q)_(n-k)
        / ((1 - gamma) (q; q)_k (q gamma; q)_(n-k)),  k = 0..floor(n/2).
    """
    qv, src, tgt = _records(FamilyId.CONT_Q_ULTRA, n, q, (beta,), gamma, "gamma")
    pbg, qq = poch_prefix(beta / gamma, qv, n // 2), poch_prefix(qv, qv, n // 2)
    pb, pqg = poch_prefix(beta, qv, n), poch_prefix(qv * gamma, qv, n)
    coeffs = []
    for k in range(n // 2 + 1):
        val = (
            (1.0 - gamma * qv ** (n - 2 * k))
            * gamma**k
            * pbg[k]
            * pb[n - k]
            / ((1.0 - gamma) * qq[k] * pqg[n - k])
        )
        coeffs.append((n - 2 * k, val))
    return ConnectionExpansion(FamilyId.CONT_Q_ULTRA, n, src, tgt, tuple(coeffs))


def lql_connection(n: int, a: float, b: float, q: QLike) -> ConnectionExpansion:
    """Little q-Laguerre coefficients: the multiplier of p_j(x; b) is

        q^(-C(n,2) + C(j,2) + n(n-j)) (-a)^(n-j)
        (q^(n-j+1), qb; q)_j (b q^(1+j-n) / a; q)_(n-j)
        / ((qa; q)_n (q; q)_j).

    The net q-power C(n-j+1, 2) is folded into the large-argument
    Pochhammer factor by factor: each paired term is q^m - bq/a, m = 1..n-j,
    so no intermediate ever leaves double range.
    """
    qv, src, tgt = _records(FamilyId.LITTLE_Q_LAGUERRE, n, q, (a,), b, "b")
    den_n = poch_finite(qv * a, qv, n).real
    if abs(den_n) < 1e-280:
        raise DegenerateDenominator("(qa; q)_n vanishes")
    ratio = b * qv / a
    qq, pqb = poch_prefix(qv, qv, n), poch_prefix(qv * b, qv, n)
    paired = [1.0]  # entry i: (q^1 - bq/a) ... (q^i - bq/a)
    for m in range(1, n + 1):
        paired.append(paired[-1] * (qv**m - ratio))
    coeffs = []
    for j in range(n + 1):
        val = (
            (-a) ** (n - j)
            * poch_finite(qv ** (n - j + 1), qv, j).real
            * pqb[j].real
            * paired[n - j]
            / (den_n * qq[j].real)
        )
        coeffs.append((j, complex(val)))
    return ConnectionExpansion(FamilyId.LITTLE_Q_LAGUERRE, n, src, tgt, tuple(coeffs))


def qlag_connection(n: int, alpha: float, beta: float, q: QLike) -> ConnectionExpansion:
    """q-Laguerre coefficients: the multiplier of L_j^(beta) is

        q^(n(alpha-beta)) (-1)^(n-j) q^C(n-j,2)
        (q^(n-j+1); q)_j (q^(j-n+beta-alpha+1); q)_(n-j) / (q; q)_n.
    """
    qv, src, tgt = _records(FamilyId.Q_LAGUERRE, n, q, (alpha,), beta, "beta")
    qq_n = poch_finite(qv, qv, n).real
    coeffs = []
    for j in range(n + 1):
        m = n - j
        v = j - n + beta - alpha + 1.0
        factors = [1.0 - qv ** (v + i) for i in range(m)]
        factors.append(poch_finite(qv ** (m + 1), qv, j).real / qq_n)
        mant, e = (-1.0) ** m, n * (alpha - beta) + math.comb(m, 2)
        for f in factors:
            mant, e = renorm(mant * f, e, qv)
        coeffs.append((j, complex(unscale(mant, e, qv))))
    return ConnectionExpansion(FamilyId.Q_LAGUERRE, n, src, tgt, tuple(coeffs))


# ---------------------------------------------------------------------------
# pointwise verification
# ---------------------------------------------------------------------------


def _partial_sums(exp: ConnectionExpansion, points: Sequence[float] | None):
    """The source polynomial at the sample points, 1 + its largest
    magnitude there, and an iterator over the expansion's sum at the
    points before its first term and after each term: one list, updated
    in place.

    The source polynomial is one ``evaluate`` call per point, which a
    tracer wrapping the family's evaluator sees; the target polynomials at
    every degree and point are one ``Family.values`` call, which builds
    each record's x-free factors once and walks each point once up to the
    highest degree.  Each value has the bits ``evaluate`` gives.
    ``points`` defaults to 20 of the family's ``support`` abscissas; none
    at all would certify any expansion, and is refused."""
    family = FAMILIES[exp.family]
    if points is None:
        points = family.support(exp.source_params.base.q, 20)
    if len(points) == 0:
        raise PreconditionViolation("a residual needs at least one sample point")
    rhs = [family.evaluate(exp.n, x, exp.source_params) for x in points]
    degrees = [deg for deg, _ in exp.coefficients]
    read = family.values(degrees, points, exp.target_params)
    lhs = [complex(0.0)] * len(points)

    def sums():
        yield lhs
        for (_, v), column in zip(exp.coefficients, zip(*read)):
            for i, p in enumerate(column):
                lhs[i] += v * p
            yield lhs

    return rhs, 1.0 + _nan_max([abs(v) for v in rhs]), sums()


def _gap(lhs: list[complex], rhs: list[complex]) -> float:
    return _nan_max([abs(t - s) for t, s in zip(lhs, rhs)])


def _nan_max(magnitudes: list[float]) -> float:
    """The largest magnitude, or NaN when one is NaN, which is exactly
    when their sum is: a plain max may keep a number over a NaN."""
    return max(magnitudes) if sum(magnitudes) >= 0.0 else math.nan


def prefix_residuals(
    exp: ConnectionExpansion, points: Sequence[float] | None = None
) -> list[float]:
    """Entry i is the expansion_residual of the first i terms of ``exp``,
    for i = 0 .. len(exp.coefficients), all built in one pass over them."""
    rhs, scale, sums = _partial_sums(exp, points)
    return [_gap(lhs, rhs) / scale for lhs in sums]


def expansion_residual(
    exp: ConnectionExpansion, points: Sequence[float] | None = None
) -> float:
    """Max over sample points of

        |sum_k c_k p_k(x; target) - p_n(x; source)| / (1 + max |p_n|).
    """
    rhs, scale, sums = _partial_sums(exp, points)
    *_, lhs = sums
    return _gap(lhs, rhs) / scale
