"""q-Pochhammer symbols, finite and infinite.

Conventions
-----------
* ``(a; q)_0 = 1`` and ``(a; q)_n = (1-a)(1-aq)...(1-aq^(n-1))``;
  ``poch_prefix`` gives (a; q)_0 .. (a; q)_n from one product.
* ``(a; q)_inf`` is the infinite product, absolutely convergent for |q| < 1.
  It is evaluated as the plain factors 1 - a q^j while |a q^j| > r =
  (1 - q)/4, then Euler's series for the rest (see ``ProductPlan``).

The base ``q`` is stored as a real double in the open interval (0, 1).
Every downstream formula in this package assumes a real base in that
range, so complex bases are rejected at construction time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import IllConditioned, PreconditionViolation

# An infinite product is summed to this relative tolerance, and the first
# term left out of its truncated Euler series is held to _TAIL_FRACTION of it.
_TOL = 1e-15
_TAIL_FRACTION = 2.0**-6

# A scaled value is a pair (m, e) standing for m * q**e.  renorm keeps the
# mantissa m inside [SCALE_LO, SCALE_HI]; unscale turns the pair back into
# a double when its natural log lies inside [_LOG_TINY, _LOG_HUGE].
SCALE_HI = 1e60
SCALE_LO = 1e-60
_LOG_HUGE = 709.0
_LOG_TINY = -708.0


def _check_q(q) -> float:
    if type(q) is float and 0.0 < q < 1.0:  # already a valid base (NaN fails the test)
        return q
    if isinstance(q, complex):
        raise PreconditionViolation("base q must be real, got complex")
    q = float(q)
    if not math.isfinite(q) or not (0.0 < q < 1.0):
        raise PreconditionViolation(f"base q must lie strictly inside (0, 1), got {q!r}")
    return q


@dataclass(frozen=True)
class QBase:
    """The base of all q-products: a real number strictly inside (0, 1)."""

    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _check_q(self.q))


QLike = Union[QBase, float]


def as_base(q: QLike) -> float:
    """Validate a base given either as a QBase or a bare float."""
    if isinstance(q, QBase):
        return q.q
    return _check_q(q)


def scalar(v: complex) -> complex:
    """``v`` as a float when its imaginary part is exactly 0, else as it is:
    float arithmetic keeps the real bits, and overflows to +-inf, not NaN."""
    return float(v.real) if v.imag == 0.0 else v


def renorm(m: complex, e: float, q: float) -> tuple[complex, float]:
    """The scaled value (m, e) = m * q**e with the magnitude of m shifted
    into the exponent whenever |m| leaves [SCALE_LO, SCALE_HI].  An
    infinite m raises IllConditioned; a NaN passes through."""
    am = abs(m)
    if am > SCALE_HI or 0.0 < am < SCALE_LO:
        if am == math.inf:
            raise IllConditioned("scaled value overflows the double-precision range")
        lnq = math.log(q)
        shift = round(math.log(am) / lnq)
        m *= math.exp(-shift * lnq)
        e += shift
    return m, e


def unscale(m: complex, e: float, q: float) -> complex:
    """The scaled value m * q**e as a double.  A value too small for double
    range is returned as 0; one too large raises IllConditioned."""
    if m == 0:
        return 0.0
    arg = e * math.log(q)
    size = math.log(abs(m)) + arg
    if size > _LOG_HUGE:
        raise IllConditioned(
            f"value e^{size:.1f} exceeds the double-precision range"
        )
    if size < _LOG_TINY:
        return 0.0
    if abs(arg) < _LOG_HUGE:
        return m * math.exp(arg)
    return m * math.exp(arg / 2.0) * math.exp(arg / 2.0)  # q**e alone leaves range


def _product(a: complex, q: QLike, n: int, table: list | None) -> complex:
    """(1-a)(1-aq)...(1-aq^(n-1)), the powers q^j by repeated
    multiplication, with the partial product after each factor appended
    to ``table`` unless it is None: the one loop of ``poch_finite`` and
    ``poch_prefix``."""
    qv = as_base(q)
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    av = scalar(a)
    out = 1.0
    t = 1.0
    for _ in range(n):
        out *= 1.0 - av * t
        t *= qv
        if table is not None:
            table.append(complex(out))
    return out


def poch_finite(a: complex, q: QLike, n: int) -> complex:
    """Finite q-Pochhammer symbol ``(a; q)_n`` as a literal n-factor product.

    Returns exactly 1 for n = 0 (empty product); at real ``a`` a product
    beyond double range is +-inf (see ``scalar``)."""
    return complex(_product(a, q, n, None))


def poch_prefix(a: complex, q: QLike, n: int) -> list[complex]:
    """``[(a; q)_0, (a; q)_1, ..., (a; q)_n]``: ``poch_finite``'s product
    with every partial product kept, so entry m has the bits of
    ``poch_finite(a, q, m)``."""
    table = [complex(1.0)]
    _product(a, q, n, table)
    return table


@functools.lru_cache(maxsize=64)
def _euler_table(q: float) -> tuple[float, ...]:
    """Euler's coefficients c_k = (-1)^k q^C(k,2) / (q; q)_k of
    (t; q)_inf = sum_k c_k t^k (Gasper & Rahman, eq. 1.3.16), k = 0..K-1,
    highest first for Horner's rule.  K is the first k >= 1 at which
    |c_k| r^k, r = (1-q)/4, drops to a fixed fraction of _TOL; the terms
    then shrink at least 4x each, so for |t| <= r the omitted ones sum to
    at most 4/3 of that: an a-priori bound, not a streak (``bhs.Stop``)."""
    r = 0.25 * (1.0 - q)
    cut = _TAIL_FRACTION * _TOL
    coef, qk, rk = [1.0], 1.0, 1.0
    while True:
        nxt = coef[-1] * -qk / (1.0 - qk * q)
        qk *= q
        rk *= r
        if abs(nxt) * rk <= cut:
            return tuple(reversed(coef))
        coef.append(nxt)


class ProductPlan:
    """``(s u; q)_inf`` for one s at many u.  The base and the powers q^j
    are settled once, the powers extended on demand.

    A call with a = s u takes the plain factors 1 - a q^j while
    |a q^j| > r = (1-q)/4: j < m, m in closed form, the powers from one
    ladder by repeated multiplication, so a = q^-k still gives an exact 0.
    It multiplies them by (t; q)_inf, t = a q^m, summed by Horner's rule
    over the Euler coefficients of ``_euler_table``: a fixed length
    K(q), at most 13 terms (9 at q = 0.5), where the
    literal product took up to about 760 factors at q = 0.95.  The alternating Euler
    series has sum |terms| / |sum| about e^(2|t|/(1-q)), at most e^(1/2)
    for |t| <= r, which is why r shrinks with 1 - q.  The result is
    deterministic, and a real a stays float, so a real product beyond
    double range is +-inf; an infinite or NaN a raises IllConditioned."""

    def __init__(self, s: complex, q: QLike) -> None:
        self._q = as_base(q)
        self._s = scalar(s)
        self._lnq = math.log(self._q)
        self._r = 0.25 * (1.0 - self._q)
        self._lnr = math.log(self._r)
        self._euler = _euler_table(self._q)
        self._qj = [1.0]  # q^j by repeated multiplication, as poch_finite forms them

    def __call__(self, u: complex = 1.0) -> complex:
        a = scalar(self._s * u)  # real: an overflow is inf, not inf * 0j = nan
        mag = abs(a)
        if not mag < math.inf:
            raise IllConditioned(f"infinite product at a = {a!r}")
        out, t = 1.0, a
        if mag > self._r:
            m = math.ceil((self._lnr - math.log(mag)) / self._lnq)
            qj = self._qj
            if len(qj) <= m:  # the last power, then each next one
                qj[-1:] = itertools.accumulate(itertools.repeat(self._q, m + 1 - len(qj)),
                                               operator.mul, initial=qj[-1])
            for p in itertools.islice(qj, m):
                out *= 1.0 - a * p
            t = a * qj[m]
        tail = 0.0
        for c in self._euler:
            tail = tail * t + c
        return complex(out * tail)


def poch_infinite(a: complex, q: QLike) -> complex:
    """Infinite q-Pochhammer symbol ``(a; q)_inf`` to relative tolerance
    1e-15: the product plan of ``a`` evaluated once, at u = 1."""
    return ProductPlan(a, q)()


def poch_all(params: Iterable[complex], q: QLike, n: int) -> complex:
    """Product of finite symbols ``(a1, a2, ...; q)_n``."""
    out = complex(1.0)
    for a in params:
        out *= poch_finite(a, q, n)
    return out


def poch_all_infinite(params: Iterable[complex], q: QLike) -> complex:
    """Product of infinite symbols ``(a1, a2, ...; q)_inf``."""
    out = complex(1.0)
    for a in params:
        out *= poch_infinite(a, q)
    return out
