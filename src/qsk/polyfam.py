"""The four polynomial families, their weight functions, norm constants,
and FAMILIES, the FamilyId-keyed table every other layer dispatches through.

Families (all with base q in (0, 1)):

* Askey-Wilson p_n(x; a,b,c,d | q), x = cos(theta) in [-1, 1]:
      a^-n (ab, ac, ad; q)_n
      * 4phi3(q^-n, abcd q^(n-1), a e^(i theta), a e^(-i theta);
              ab, ac, ad; q, q)
* continuous q-ultraspherical C_n(x; beta | q):
      (beta; q)_n / (q; q)_n * e^(i n theta)
      * 2phi1(q^-n, beta; q^(1-n)/beta; q, q e^(-2 i theta)/beta)
* little q-Laguerre p_n(x; a | q) = 2phi1(q^-n, 0; aq; q, qx)
* q-Laguerre L_n^(alpha)(x; q) =
      (q^(alpha+1); q)_n / (q; q)_n
      * 1phi1(q^-n; q^(alpha+1); q, -q^(n+alpha+1) x)

All evaluations go through the series ratio recurrence, so large
intermediate parameters such as q^(1-n)/beta never overflow. The
continuous q-ultraspherical family also exposes its classical
three-term recurrence, kept strictly as an independent cross-check of
the series definition.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .bhs import SeriesSpec, eval_phi
from .errors import PreconditionViolation, ZeroParameter, IllConditioned
from .qpoch import (
    QBase,
    poch_all,
    poch_all_infinite,
    poch_finite,
    poch_infinite,
    renorm,
    unscale,
)


class FamilyId(Enum):
    ASKEY_WILSON = "aw"
    CONT_Q_ULTRA = "cqu"
    LITTLE_Q_LAGUERRE = "lql"
    Q_LAGUERRE = "qlag"


@dataclass(frozen=True)
class AWParams:
    """Askey-Wilson parameters.  For orthogonality they must be real or
    occur in complex conjugate pairs with max modulus < 1; bare
    evaluation accepts any finite values with a != 0."""

    a: complex
    b: complex
    c: complex
    d: complex
    base: QBase

    def __post_init__(self) -> None:
        for name in "abcd":
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise PreconditionViolation(f"parameter {name} must be finite")
            object.__setattr__(self, name, v)
        if not isinstance(self.base, QBase):
            object.__setattr__(self, "base", QBase(self.base))

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def orthogonal(self) -> bool:
        return max(abs(v) for v in self.as_tuple()) < 1.0


def _real(name: str, v) -> float:
    """A real parameter, also accepted as a complex with zero imaginary part."""
    v = complex(v)
    if v.imag != 0.0:
        raise PreconditionViolation(f"parameter {name} must be real, got {v!r}")
    return v.real


@dataclass(frozen=True)
class UltraParams:
    """Continuous q-ultraspherical parameter beta in (-1, 1) \\ {0}."""

    beta: float
    base: QBase

    def __post_init__(self) -> None:
        b = _real("beta", self.beta)
        if not (math.isfinite(b) and 0.0 < abs(b) < 1.0):
            raise PreconditionViolation(
                f"beta must lie in (-1, 1) and be nonzero, got {b!r}"
            )
        object.__setattr__(self, "beta", b)
        if not isinstance(self.base, QBase):
            object.__setattr__(self, "base", QBase(self.base))


@dataclass(frozen=True)
class LqLParams:
    """Little q-Laguerre parameter a with 0 < aq < 1."""

    a: float
    base: QBase

    def __post_init__(self) -> None:
        if not isinstance(self.base, QBase):
            object.__setattr__(self, "base", QBase(self.base))
        a = _real("a", self.a)
        if not (math.isfinite(a) and 0.0 < a * self.base.q < 1.0):
            raise PreconditionViolation(f"need 0 < a*q < 1, got a={a!r}")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class QLagParams:
    """q-Laguerre parameter alpha in (-1, inf)."""

    alpha: float
    base: QBase

    def __post_init__(self) -> None:
        al = _real("alpha", self.alpha)
        if not (math.isfinite(al) and al > -1.0):
            raise PreconditionViolation(f"alpha must exceed -1, got {al!r}")
        object.__setattr__(self, "alpha", al)
        if not isinstance(self.base, QBase):
            object.__setattr__(self, "base", QBase(self.base))


def _theta(x: float) -> float:
    if abs(x) > 1.0 + 1e-12:
        raise PreconditionViolation(f"need |x| <= 1, got {x!r}")
    return math.acos(max(-1.0, min(1.0, float(x))))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def askey_wilson_phi43(n: int, x: float, p: AWParams, tol: float = 1e-15) -> complex:
    """Askey-Wilson polynomial through its defining balanced 4phi3 sum,

        a^-n (ab, ac, ad; q)_n
        * 4phi3(q^-n, abcd q^(n-1), a e^(i theta), a e^(-i theta);
                ab, ac, ad; q, q).

    The sum cancels catastrophically as n grows (its largest term exceeds
    the value by roughly q^(-n(n-1)/2)), so in double precision this form
    is only trustworthy for small n; ``askey_wilson`` is the stable
    evaluator and this construction is kept for cross-validation.
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    q = p.base.q
    a, b, c, d = p.as_tuple()
    if abs(a) == 0.0:
        raise ZeroParameter("Askey-Wilson evaluation needs a != 0")
    th = _theta(x)
    e = cmath.exp(1j * th)
    spec = SeriesSpec(
        (q**-n, a * b * c * d * q ** (n - 1), a * e, a / e),
        (a * b, a * c, a * d),
        q,
        p.base,
    )
    pref = a**-n * poch_all((a * b, a * c, a * d), q, n)
    return pref * eval_phi(spec, tol=tol).value


def askey_wilson_sequence(nmax: int, x: float, p: AWParams) -> list[complex]:
    """p_0..p_nmax by the three-term recurrence, written directly in the
    unnormalized polynomials:

        2x p_n = A'_n p_(n+1) + (a + 1/a - A_n - C_n) p_n + C'_n p_(n-1),

    where A_n, C_n are the classical normalized-recurrence coefficients
    and A'_n, C'_n absorb the a^-n (ab, ac, ad; q)_n prefactor, so no
    intermediate ever carries the a^-n scale.  Forward recursion is
    stable on the orthogonality interval.
    """
    q = p.base.q
    a, b, c, d = p.as_tuple()
    if abs(a) == 0.0:
        raise ZeroParameter("Askey-Wilson evaluation needs a != 0")
    abcd = a * b * c * d
    out = [complex(1.0)]
    prev = complex(0.0)  # p_(-1)
    cur = complex(1.0)
    for n in range(nmax):
        qn = q**n
        d0 = 1.0 - abcd * q ** (2 * n - 1)
        d1 = 1.0 - abcd * q ** (2 * n)
        d2 = 1.0 - abcd * q ** (2 * n - 2)
        if min(abs(d0), abs(d1), abs(d2)) < 1e-12:
            raise IllConditioned(
                "recurrence denominator 1 - abcd q^m nearly vanishes"
            )
        an = (
            (1.0 - a * b * qn)
            * (1.0 - a * c * qn)
            * (1.0 - a * d * qn)
            * (1.0 - abcd * q ** (n - 1))
            / (a * d0 * d1)
        )
        cn = (
            a
            * (1.0 - qn)
            * (1.0 - b * c * q ** (n - 1))
            * (1.0 - b * d * q ** (n - 1))
            * (1.0 - c * d * q ** (n - 1))
            / (d2 * d0)
        )
        # prefactor ratios g_(n+1)/g_n and g_n/g_(n-1), g_n = (ab,ac,ad;q)_n / a^n
        up = (1.0 - a * b * qn) * (1.0 - a * c * qn) * (1.0 - a * d * qn) / a
        dn = (
            (1.0 - a * b * q ** (n - 1))
            * (1.0 - a * c * q ** (n - 1))
            * (1.0 - a * d * q ** (n - 1))
            / a
        )
        a_unnorm = an / up
        c_unnorm = cn * dn
        nxt = ((2.0 * x - a - 1.0 / a + an + cn) * cur - c_unnorm * prev) / a_unnorm
        out.append(nxt)
        prev, cur = cur, nxt
    return out


def askey_wilson(n: int, x: float, p: AWParams) -> complex:
    """Askey-Wilson polynomial p_n(x; a,b,c,d | q) at x = cos(theta).

    Evaluated through the three-term recurrence; the defining 4phi3 sum
    (``askey_wilson_phi43``) loses roughly n(n-1)/2 * log10(1/q) digits
    to cancellation and already fails n = 8 at q = 0.5.
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    _theta(x)  # validates |x| <= 1
    return askey_wilson_sequence(n, x, p)[n]


_CQU_SERIES_LIMIT = 30


def cont_q_ultra(n: int, x: float, p: UltraParams, tol: float = 1e-15) -> float:
    """Continuous q-ultraspherical (Rogers) polynomial C_n(x; beta | q).

    The defining 2phi1 sum is used for n up to 30; past that the
    q^(1-n)/beta denominator parameter leaves double range at small q
    and evaluation switches to the (equally valid) three-term
    recurrence, which the tests cross-check against the series form on
    the overlap.
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    if n > _CQU_SERIES_LIMIT:
        return cont_q_ultra_sequence(n, x, p)[n]
    q = p.base.q
    beta = p.beta
    th = _theta(x)
    e2 = cmath.exp(-2j * th)
    spec = SeriesSpec(
        (q**-n, beta),
        (q ** (1 - n) / beta,),
        q * e2 / beta,
        p.base,
    )
    val = (
        poch_finite(beta, q, n)
        / poch_finite(q, q, n)
        * cmath.exp(1j * n * th)
        * eval_phi(spec, tol=tol).value
    )
    return val.real


def cont_q_ultra_sequence(nmax: int, x: float, p: UltraParams) -> list[float]:
    """C_0..C_nmax by the classical three-term recurrence

        2x (1 - beta q^n) C_n = (1 - q^(n+1)) C_(n+1)
                                + (1 - beta^2 q^(n-1)) C_(n-1).

    Independent of the series definition; used as a cross-check oracle.
    """
    q = p.base.q
    beta = p.beta
    out = [1.0]
    if nmax >= 1:
        out.append(2.0 * x * (1.0 - beta) / (1.0 - q))
    for n in range(1, nmax):
        nxt = (
            2.0 * x * (1.0 - beta * q**n) * out[n]
            - (1.0 - beta * beta * q ** (n - 1)) * out[n - 1]
        ) / (1.0 - q ** (n + 1))
        out.append(nxt)
    return out


def little_q_laguerre_phi21(n: int, x: float, p: LqLParams, tol: float = 1e-15) -> float:
    """Little q-Laguerre / Wall polynomial through its defining sum
    2phi1(q^-n, 0; aq; q, qx).

    Near the top of the lattice (x close to 1) the sum cancels by a
    factor of roughly q^(n^2/2), so this form degrades for n beyond
    about 6; ``little_q_laguerre`` dispatches to the stable form there.
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    q = p.base.q
    spec = SeriesSpec((q**-n, 0.0), (p.a * q,), q * x, p.base)
    return eval_phi(spec, tol=tol).value.real


def little_q_laguerre_scaled(
    n: int, x: float, p: LqLParams
) -> tuple[float, float]:
    """Little q-Laguerre value in scaled form ``(mantissa, e)`` with
    p_n(x; a | q) = mantissa * q**e, for x > 0.

    The 2phi0 form is summed upward with the magnitude continually
    shifted into the q-exponent, so arbitrarily large degrees never
    overflow even though the value itself grows like q^(-n(n-1)/2) x^n
    between lattice points.
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    if x <= 0.0:
        raise PreconditionViolation("scaled evaluation needs x > 0")
    q = p.base.q
    lnq = math.log(q)
    # series sum (sm, se) and running term (tm, te)
    tm, te = 1.0, 0.0
    sm, se = 1.0, 0.0
    for k in range(n):
        # term ratio k -> k+1 of 2phi0(q^-n, 1/x; -; q, x/a)
        tm *= (1.0 - q ** (k - n)) * (1.0 - q**k / x) / (1.0 - q ** (k + 1))
        tm *= -x / p.a
        te -= k
        if tm == 0.0:
            break  # x sits on the lattice; all later terms vanish
        tm, te = renorm(tm, te, q)
        if te < se:
            sm = sm * math.exp((se - te) * lnq) + tm
            se = te
        else:
            sm += tm * math.exp((te - se) * lnq)
        sm, se = renorm(sm, se, q)
    # prefactor (q^-n / a; q)_n
    pm, pe = 1.0, 0.0
    for j in range(n):
        pm, pe = renorm(pm * (1.0 - q ** (j - n) / p.a), pe, q)
    return renorm(sm / pm, se - pe, q)


def little_q_laguerre_phi20(n: int, x: float, p: LqLParams, tol: float = 1e-15) -> float:
    """Alternate 2phi0 form of the little q-Laguerre polynomial (x != 0):

        p_n(x; a | q) = 2phi0(q^-n, 1/x; -; q, x/a) / (q^-n / a; q)_n.

    For x > 0 the last retained term dominates the sum, so this form is
    numerically stable at every lattice point.  Off the lattice the value
    grows like q^(-n(n-1)/2) x^n and can leave double range; evaluation
    then raises IllConditioned rather than overflow (the scaled form
    remains available), and a value below double range is returned as 0.
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    if x == 0.0:
        raise PreconditionViolation("the 2phi0 form needs x != 0")
    if x > 0.0:
        return unscale(*little_q_laguerre_scaled(n, x, p), p.base.q)
    q = p.base.q
    spec = SeriesSpec((q**-n, 1.0 / x), (), x / p.a, p.base)
    pref = 1.0 / poch_finite(q**-n / p.a, q, n)
    return (pref * eval_phi(spec, tol=tol).value).real


def little_q_laguerre(n: int, x: float, p: LqLParams, tol: float = 1e-15) -> float:
    """Little q-Laguerre / Wall polynomial p_n(x; a | q).

    Equals 2phi1(q^-n, 0; aq; q, qx); for x > 0 the value is produced
    through the 2phi0 form, whose terms never cancel there, and the two
    forms are asserted to agree on grids by the test suite.
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    if n == 0:
        return 1.0
    if x > 0.0:
        return little_q_laguerre_phi20(n, x, p, tol=tol)
    return little_q_laguerre_phi21(n, x, p, tol=tol)


def q_laguerre(n: int, x: float, p: QLagParams, tol: float = 1e-15) -> float:
    """q-Laguerre polynomial L_n^(alpha)(x; q) via its 1phi1 form."""
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    q = p.base.q
    if n * math.log(1.0 / q) > 690.0:
        raise IllConditioned(
            "degree too large for the double-precision envelope at this base"
        )
    qa1 = q ** (p.alpha + 1.0)
    spec = SeriesSpec((q**-n,), (qa1,), -(q**n) * qa1 * x, p.base)
    pref = poch_finite(qa1, q, n) / poch_finite(q, q, n)
    return (pref * eval_phi(spec, tol=tol).value).real


def q_laguerre_phi21(n: int, x: float, p: QLagParams, tol: float = 1e-15) -> float:
    """Alternate 2phi1 form of the q-Laguerre polynomial:

        L_n^(alpha)(x; q) = 2phi1(q^-n, -x; 0; q, q^(n+alpha+1)) / (q; q)_n.
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    q = p.base.q
    spec = SeriesSpec((q**-n, -x), (0.0,), q ** (n + p.alpha + 1.0), p.base)
    return (eval_phi(spec, tol=tol).value / poch_finite(q, q, n)).real


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def aw_weight(x: float, p: AWParams, tol: float = 1e-15) -> float:
    """Askey-Wilson weight |(e^(2i theta);q)_inf / (a e^(i theta), b e^(i theta),
    c e^(i theta), d e^(i theta); q)_inf|^2 on the open interval (-1, 1).

    At the endpoints x = +-1 the numerator vanishes (e^(2i theta) = 1) and
    the weight is returned as exactly 0.
    """
    if abs(x) > 1.0:
        raise PreconditionViolation("weight defined for |x| <= 1")
    if abs(x) == 1.0:
        return 0.0
    th = math.acos(x)
    e = cmath.exp(1j * th)
    num = poch_infinite(e * e, p.base, tol)
    den = poch_all_infinite((p.a * e, p.b * e, p.c * e, p.d * e), p.base, tol)
    return abs(num / den) ** 2


def ultra_weight(x: float, p: UltraParams, tol: float = 1e-15) -> float:
    """Weight |(e^(2i theta);q)_inf / (beta e^(2i theta);q)_inf|^2 on (-1, 1)."""
    if abs(x) > 1.0:
        raise PreconditionViolation("weight defined for |x| <= 1")
    if abs(x) == 1.0:
        return 0.0
    th = math.acos(x)
    e2 = cmath.exp(2j * th)
    return abs(poch_infinite(e2, p.base, tol) / poch_infinite(p.beta * e2, p.base, tol)) ** 2


def qlag_weight(x: float, p: QLagParams, tol: float = 1e-15) -> float:
    """Half-line weight x^alpha / (-x; q)_inf, x > 0."""
    if x <= 0.0:
        raise PreconditionViolation("half-line weight needs x > 0")
    return x**p.alpha / poch_infinite(-x, p.base, tol).real


# ---------------------------------------------------------------------------
# norm constants (the right-hand sides of the orthogonality relations)
# ---------------------------------------------------------------------------


def aw_norm(n: int, p: AWParams, tol: float = 1e-15) -> float:
    """h_n(a,b,c,d | q); the full orthogonality constant is 2*pi*h_n."""
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    q = p.base.q
    a, b, c, d = p.as_tuple()
    abcd = a * b * c * d
    qn = q**n
    num = poch_infinite(abcd * q ** (2 * n), p.base, tol) * poch_finite(
        abcd * q ** (n - 1), q, n
    )
    den = poch_all_infinite(
        (
            q ** (n + 1),
            a * b * qn,
            a * c * qn,
            a * d * qn,
            b * c * qn,
            b * d * qn,
            c * d * qn,
        ),
        p.base,
        tol,
    )
    return (num / den).real


def ultra_norm(n: int, p: UltraParams, tol: float = 1e-15) -> float:
    """Orthogonality constant for C_n(.; beta | q):

        2 pi (1-beta) (beta, q beta; q)_inf (beta^2; q)_n
        / ((1 - beta q^n) (beta^2, q; q)_inf (q; q)_n).
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    q = p.base.q
    beta = p.beta
    num = (
        (1.0 - beta)
        * poch_all_infinite((beta, q * beta), p.base, tol).real
        * poch_finite(beta * beta, q, n).real
    )
    den = (
        (1.0 - beta * q**n)
        * poch_all_infinite((beta * beta, q), p.base, tol).real
        * poch_finite(q, q, n).real
    )
    return 2.0 * math.pi * num / den


def lql_norm(n: int, p: LqLParams, tol: float = 1e-15) -> float:
    """Lattice orthogonality constant (aq)^n (q;q)_n / ((aq;q)_inf (aq;q)_n)."""
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    q = p.base.q
    aq = p.a * q
    return (
        aq**n
        * poch_finite(q, q, n).real
        / (poch_infinite(aq, p.base, tol).real * poch_finite(aq, q, n).real)
    )


_INTEGER_EXACT = 1e-12
_INTEGER_DANGER = 1e-6


def qlag_continuous_norm(n: int, p: QLagParams, tol: float = 1e-15) -> float:
    """Norm of the continuous (half-line) q-Laguerre orthogonality.

    Two branches scaled by -1/q^n:
      alpha not in N0:  pi (q^-alpha; q)_inf (q^(alpha+1); q)_n
                        / (sin(pi alpha) (q; q)_inf (q; q)_n)
      alpha in N0:      (q^(n+1); q)_alpha log(q) / q^(alpha(alpha+1)/2)

    Within 1e-6 of a nonnegative integer (but not on it) the sine branch
    amplifies rounding and the evaluation refuses.
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    q = p.base.q
    al = p.alpha
    nearest = round(al)
    dist = abs(al - nearest) if nearest >= 0 else math.inf
    if dist < _INTEGER_EXACT:
        k = int(nearest)
        branch = poch_finite(q ** (n + 1), q, k).real * math.log(q) / q ** (
            k * (k + 1) / 2.0
        )
    elif dist < _INTEGER_DANGER:
        raise IllConditioned(
            f"alpha={al!r} is within 1e-6 of an integer; sin(pi*alpha) "
            "amplifies rounding"
        )
    else:
        branch = (
            math.pi
            * poch_infinite(q**-al, p.base, tol).real
            * poch_finite(q ** (al + 1.0), q, n).real
            / (
                math.sin(math.pi * al)
                * poch_infinite(q, p.base, tol).real
                * poch_finite(q, q, n).real
            )
        )
    return -branch / q**n


def qlag_bilateral_norm(n: int, p: QLagParams, c: float, tol: float = 1e-15) -> float:
    """Norm of the bilateral lattice orthogonality on nodes c*q^k, k in Z:

        (q, -c q^(alpha+1), -q^-alpha / c; q)_inf (q^(alpha+1); q)_n
        / (q^n (q^(alpha+1), -c, -q/c; q)_inf (q; q)_n),  c > 0.
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    if not (c > 0.0 and math.isfinite(c)):
        raise PreconditionViolation("need c > 0")
    q = p.base.q
    qa1 = q ** (p.alpha + 1.0)
    num = poch_all_infinite((q, -c * qa1, -(q**-p.alpha) / c), p.base, tol).real
    den = poch_all_infinite((qa1, -c, -q / c), p.base, tol).real
    return (
        num * poch_finite(qa1, q, n).real / (q**n * den * poch_finite(q, q, n).real)
    )


def qlag_jackson_norm(n: int, p: QLagParams, tol: float = 1e-15) -> float:
    """Norm of the q-integral orthogonality on (0, inf):

        (1-q) (q, -q^(alpha+1), -q^-alpha; q)_inf (q^(alpha+1); q)_n
        / (2 q^n (q^(alpha+1), -q, -q; q)_inf (q; q)_n).
    """
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    q = p.base.q
    qa1 = q ** (p.alpha + 1.0)
    num = poch_all_infinite((q, -qa1, -(q**-p.alpha)), p.base, tol).real
    den = poch_all_infinite((qa1, -q, -q), p.base, tol).real
    return (
        (1.0 - q)
        * num
        * poch_finite(qa1, q, n).real
        / (2.0 * q**n * den * poch_finite(q, q, n).real)
    )


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


def _chebyshev(q: float, count: int) -> list[float]:
    return [math.cos(math.pi * (2 * i + 1) / (2.0 * count)) for i in range(count)]


def _lattice(q: float, count: int) -> list[float]:
    return [q**k for k in range(count)]


def _two_sided(q: float, count: int) -> list[float]:
    pts = [0.0]
    for k in range(1, count // 2 + 1):
        pts += [q**k, q**-k]
    return pts[:count]


@dataclass(frozen=True)
class Family:
    """One family's entry in FAMILIES.

    params    parameter record class, built as params(*values, base)
    names     its parameter names, in that order
    evaluate  (n, x, params[, tol]) -> p_n(x) as a complex
    weight    (x, params) -> continuous weight w(x); None on a lattice
    support   (q, count) -> sample abscissas on the natural support
    """

    params: type
    names: tuple[str, ...]
    evaluate: Callable[..., complex]
    weight: Callable[[float, object], float] | None
    support: Callable[[float, int], list[float]]


# The lambdas look evaluators and weights up as module globals at call
# time and pass the degree first, so rebinding a module attribute (as a
# tracer does) reaches every caller of the table.
FAMILIES: dict[FamilyId, Family] = {
    FamilyId.ASKEY_WILSON: Family(
        AWParams, ("a", "b", "c", "d"),
        lambda n, x, p, tol=1e-15: askey_wilson(n, x, p),
        lambda x, p: aw_weight(x, p), _chebyshev),
    FamilyId.CONT_Q_ULTRA: Family(
        UltraParams, ("beta",),
        lambda n, x, p, tol=1e-15: complex(cont_q_ultra(n, x, p, tol)),
        lambda x, p: ultra_weight(x, p), _chebyshev),
    FamilyId.LITTLE_Q_LAGUERRE: Family(
        LqLParams, ("a",),
        lambda n, x, p, tol=1e-15: complex(little_q_laguerre(n, x, p, tol)),
        None, _lattice),
    FamilyId.Q_LAGUERRE: Family(
        QLagParams, ("alpha",),
        lambda n, x, p, tol=1e-15: complex(q_laguerre(n, x, p, tol)),
        lambda x, p: qlag_weight(x, p), _two_sided),
}
_FAMILY_OF = {fam.params: fid for fid, fam in FAMILIES.items()}


def family_of(params) -> FamilyId:
    """The family whose parameter record ``params`` is."""
    fid = _FAMILY_OF.get(type(params))
    if fid is None:
        raise PreconditionViolation(f"unrecognized parameter record {params!r}")
    return fid
