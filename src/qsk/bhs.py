"""Evaluation of the basic hypergeometric series r_phi_s.

The series is

    sum_{k>=0} (a_1,...,a_r; q)_k / ((q, b_1,...,b_s; q)_k)
               * ((-1)^k q^C(k,2))^(1+s-r) * z^k,

summed with the term-ratio recurrence

    t_{k+1}/t_k = prod(1 - a_i q^k) / (prod(1 - b_j q^k) (1 - q^(k+1)))
                  * ((-1) q^k)^(1+s-r) * z.

``SeriesPlan`` is the one summation loop: it splits each ratio into a
node-independent factor, built once per degree, and the node variables,
so a kernel evaluated at many quadrature nodes re-derives nothing.
``eval_phi`` is a plan with no scaled parameters, evaluated once.

Termination is detected when a numerator parameter equals q^(-m) for
some integer m (up to a relative slack of 1e-12, since parameters
usually arrive from floating-point arithmetic): every term beyond k = m
then vanishes and exactly m + 1 terms are summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergentSeries, NoConvergence, ZeroDenominator
from .qpoch import QBase, as_base, check_tol, poch_infinite

# A numerator parameter a counts as q^(-m) when |a q^m - 1| < this.
_TERMINATION_SLACK = 1e-12

# Consecutive negligible terms required before a non-terminating sum stops.
_SMALL_STREAK = 3

DEFAULT_MAX_TERMS = 10000


@dataclass(frozen=True)
class SeriesSpec:
    """An r_phi_s description: numerator and denominator parameter lists,
    argument z, and the base."""

    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...]
    z: complex
    base: QBase

    def __post_init__(self) -> None:
        object.__setattr__(self, "numerator", tuple(map(complex, self.numerator)))
        object.__setattr__(self, "denominator", tuple(map(complex, self.denominator)))
        object.__setattr__(self, "z", complex(self.z))
        if not isinstance(self.base, QBase):
            object.__setattr__(self, "base", QBase(self.base))


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    terminated: bool
    last_term_magnitude: float


def _termination_index(numerator, q: float, cap: int) -> int | None:
    """Smallest m with some numerator parameter equal to q^(-m), else None."""
    best: int | None = None
    lnq = math.log(q)
    for a in numerator:
        mag = abs(a)
        if mag < 1.0 - _TERMINATION_SLACK:
            continue
        m = round(-math.log(mag) / lnq)
        if m < 0 or m > cap:
            continue
        if abs(a * q**m - 1.0) < _TERMINATION_SLACK:
            best = m if best is None else min(best, m)
    return best


class SeriesPlan:
    """An r_phi_s evaluated at many nodes (z, u, v): numerator parameters
    ``numerator`` and u times ``scaled_num``, denominator parameters
    ``denominator`` and v times ``scaled_den`` (v = u by default).  Each
    degree's node-independent ratio factor over the fixed a and b,

        c_k = prod(1 - a q^k) / ((1 - q^(k+1)) prod(1 - b q^k)) (-q^k)^(1+s-r),

    and the scaled powers s q^k are built once, on demand, so a node costs
    t_{k+1}/t_k = z c_k prod(1 - u (s_i q^k)) / prod(1 - v (s_j q^k)).
    Termination and zero denominators of the fixed parameters are settled
    once, those of the scaled ones at every node."""

    __slots__ = ("_q", "_num", "_den", "_snum", "_sden", "_tol", "_max_terms",
                 "_stop", "_c", "_pnum", "_pden")

    def __init__(self, numerator, denominator, base: QBase | float,
                 scaled_num=(), scaled_den=(), tol: float = 1e-15,
                 max_terms: int = DEFAULT_MAX_TERMS) -> None:
        check_tol(tol)
        self._q = as_base(base)
        self._num = tuple(map(complex, numerator))
        self._den = tuple(map(complex, denominator))
        self._snum = tuple(map(complex, scaled_num))
        self._sden = tuple(map(complex, scaled_den))
        self._tol = tol
        self._max_terms = max_terms
        self._stop = _termination_index(self._num, self._q, max_terms)
        # c_k, and the scaled numerator and denominator powers, k = 0, 1, ...
        self._c, self._pnum, self._pden = [], [], []

    def __call__(self, z: complex, u: complex = 1.0,
                 v: complex | None = None) -> SeriesResult:
        """Sum the series at the node.  Non-terminating series require
        r <= s + 1, and |z| < 1 when r = s + 1.  The sum stops after three
        consecutive terms below ``tol`` times the partial sum, which guards
        against isolated near-zero terms when a numerator parameter sits
        close to q^(-m)."""
        q, num, den = self._q, self._num, self._den
        snum, sden, max_terms = self._snum, self._sden, self._max_terms
        r = len(num) + len(snum)
        s = len(den) + len(sden)
        stop_at = self._stop
        if snum:
            m = _termination_index([a * u for a in snum], q, max_terms)
            if m is not None and (stop_at is None or m < stop_at):
                stop_at = m
        if stop_at is None:
            if r > s + 1:
                raise DivergentSeries(f"non-terminating {r}phi{s} diverges for every z != 0")
            if r == s + 1 and abs(z) >= 1.0:
                raise DivergentSeries(f"non-terminating {r}phi{s} needs |z| < 1")
        # the sum ends at termination or the small-term streak, else raises at the cap
        end = max_terms - 1 if stop_at is None else min(stop_at, max_terms - 1)
        if v is None:
            v = u
        sign_exp = 1 + s - r
        c, pnum, pden, tol = self._c, self._pnum, self._pden, self._tol
        built = len(c)
        qk1 = q**built  # q^k of the first degree to build
        small, wide = tol * 1e-300, tol * (1.0 + 1e-9)
        mag_sum = 1.0
        term = total = complex(1.0)
        comp = complex(0.0)  # Kahan compensation
        streak = 0
        last_mag = 1.0
        for k in range(end):
            if k < built:
                ratio = c[k]
            else:
                qk, qk1 = qk1, q ** (k + 1)
                ratio = 1.0
                for a in num:
                    ratio *= 1.0 - a * qk
                d = 1.0 - qk1
                for b in den:
                    f = 1.0 - b * qk
                    if abs(f) < _TERMINATION_SLACK:
                        raise _zero_denominator(b, k)
                    d *= f
                ratio /= d
                if sign_exp:
                    ratio *= (-qk) ** sign_exp
                c.append(ratio)
                if snum:
                    pnum.append(tuple([a * qk for a in snum]))
                if sden:
                    pden.append(tuple([b * qk for b in sden]))
                built += 1
            ratio *= z
            if snum:
                for p in pnum[k]:
                    ratio *= 1.0 - u * p
            if sden:
                for p in pden[k]:
                    f = 1.0 - v * p
                    if abs(f) < _TERMINATION_SLACK:
                        raise _zero_denominator(v * p / q**k, k)
                    ratio /= f
            term *= ratio
            # Kahan-compensated accumulation
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            last_mag = abs(term)
            if stop_at is None:
                # |term| <= tol * max(|total|, 1e-300); as |total| <= mag_sum,
                # a term above wide * mag_sum fails it without forming |total|
                mag_sum += last_mag
                if last_mag > wide * mag_sum:
                    streak = 0
                elif last_mag <= tol * abs(total) or last_mag <= small:
                    streak += 1
                    if streak >= _SMALL_STREAK:
                        end = k + 1
                        break
                else:
                    streak = 0
        else:
            if stop_at is None or end < stop_at:
                raise NoConvergence(f"no convergence within {max_terms} terms")
        # terms summed: the leading 1 and one per ratio applied
        return SeriesResult(total, end + 1, stop_at is not None, last_mag)


def _zero_denominator(b: complex, k: int) -> ZeroDenominator:
    return ZeroDenominator(f"denominator parameter {b!r} hits q^-{k} before termination")


def eval_phi(spec: SeriesSpec, tol: float = 1e-15,
             max_terms: int = DEFAULT_MAX_TERMS) -> SeriesResult:
    """Sum the series described by ``spec``: its plan, with no parameter
    scaled, evaluated once at its z."""
    return SeriesPlan(spec.numerator, spec.denominator, spec.base,
                      tol=tol, max_terms=max_terms)(spec.z)


def check_qbinomial(a: complex, z: complex, q: QBase | float) -> float:
    """Residual of the q-binomial theorem:

        |1phi0(a; -; q, z)  -  (az; q)_inf / (z; q)_inf|,   |z| < 1.
    """
    base = q if isinstance(q, QBase) else QBase(q)
    if abs(z) >= 1.0:
        raise DivergentSeries("q-binomial check needs |z| < 1")
    lhs = eval_phi(SeriesSpec((complex(a),), (), z, base)).value
    rhs = poch_infinite(complex(a) * complex(z), base) / poch_infinite(complex(z), base)
    return abs(lhs - rhs)
