"""Evaluation of the basic hypergeometric series r_phi_s.

The series is

    sum_{k>=0} (a_1,...,a_r; q)_k / ((q, b_1,...,b_s; q)_k)
               * ((-1)^k q^C(k,2))^(1+s-r) * z^k,

summed with the term-ratio recurrence

    t_{k+1}/t_k = prod(1 - a_i q^k) / (prod(1 - b_j q^k) (1 - q^(k+1)))
                  * ((-1) q^k)^(1+s-r) * z.

A base-q^2 parameter a stands for (a; q^2)_k = (sqrt(a), -sqrt(a); q)_k:
it puts (1 - a q^(2k)) in the ratio and counts twice in r or s, so
(a; q)_(2k) = (a, aq; q^2)_k needs no square roots.

``SeriesPlan`` is the one summation loop: it splits each ratio into a
node-independent factor, built once per degree, and the node variables,
so a kernel evaluated at many quadrature nodes re-derives nothing.
``eval_phi`` is a plan with no scaled parameters, evaluated once.

Termination is detected when a numerator parameter equals q^(-m), or a
base-q^2 one q^(-2m), for some integer m (up to a relative slack of
1e-12, since parameters usually arrive from floating-point arithmetic):
every term beyond k = m then vanishes and exactly m + 1 terms are summed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import (DivergentSeries, IllConditioned, NoConvergence,
                     PreconditionViolation, ZeroDenominator)
from .qpoch import QBase, as_base, scalar

# A numerator parameter a counts as q^(-m) when |a q^m - 1| < this.
_TERMINATION_SLACK = 1e-12


class Stop(NamedTuple):
    """The stop rule of one layer of qsk.  A sum stops after ``run`` terms
    in a row with |t| <= tol (unit + |S|), S the partial sum with t added.
    A refinement stops once two successive estimates agree, |new - old| <=
    tol (unit + |new|): their difference is such a term, with run 1 and
    unit 1.  ``cap`` bounds the terms or steps (None: the caller does)."""

    tol: float
    run: int
    unit: float
    cap: int | None

    def add(self, terms: Iterable[complex], total: complex,
            streak: int = 0) -> tuple[complex, int, int]:
        """Add ``terms`` to ``total`` until the run, ``streak`` terms long so
        far, is complete or they run out: the new total, the number added and
        the run, which a sum resumed later passes back."""
        tol, run, unit, _ = self
        count = 0
        for term in terms if streak < run else ():
            total += term
            count += 1
            streak = streak + 1 if abs(term) <= tol * (unit + abs(total)) else 0
            if streak >= run:
                break
        return total, count, streak

    def agree(self, new: complex, old: complex) -> bool:
        return abs(new - old) <= self.tol * (self.unit + abs(new))


# Each layer's rule (README, "Stop rules").  SERIES's test is inline in
# ``SeriesPlan.__call__``, where a call per term costs more than the spread.
SERIES = Stop(1e-15, 3, 0.0, 10000)  # terms, then NoConvergence
TAIL = Stop(1e-10, 3, 1.0, 4000)  # nodes of one functional's tails, then TailNonConvergence
OUTER = Stop(1e-17, 6, 1.0, None)  # the outer sum, within OUTER_DOUBLING's cap
OUTER_DOUBLING = Stop(1e-9, 1, 1.0, 2048)  # outer orders 16, 32, ..., at most cap
HALVING = Stop(1e-10, 1, 1.0, 8)  # trapezoid halvings, then QuadratureNonConvergence


@dataclass(frozen=True)
class SeriesSpec:
    """An r_phi_s description, its fields kept as given: numerator and
    denominator parameter lists, argument z, the base (a QBase or a float),
    and the base-q^2 parameter lists.  ``eval_phi`` builds its plan."""

    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...]
    z: complex
    base: QBase | float
    numerator2: tuple[complex, ...] = ()
    denominator2: tuple[complex, ...] = ()


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int


def _termination_index(numerator, q: float) -> float:
    """Smallest m with some numerator parameter equal to q^(-m), else inf.
    A parameter that is not finite raises PreconditionViolation."""
    best = math.inf
    lnq = math.log(q)
    for a in numerator:
        mag = abs(a)
        if mag < 1.0 - _TERMINATION_SLACK:
            continue
        if not mag < math.inf:  # NaN fails this test too
            raise PreconditionViolation(f"numerator parameter must be finite, got {a!r}")
        m = round(-math.log(mag) / lnq)
        if m < 0 or m > SERIES.cap:
            continue
        if abs(a * q**m - 1.0) < _TERMINATION_SLACK:
            best = min(best, m)
    return best


class SeriesPlan:
    """An r_phi_s evaluated at many nodes (z, u, v): numerator parameters
    ``numerator``, u times ``scaled_num`` and ``num2`` in base q^2,
    denominator parameters ``denominator``, v times ``scaled_den`` and
    ``den2`` in base q^2 (v = u by default).  Each degree's
    node-independent ratio factor over the fixed a, b and a2, b2,

        c_k = prod(1 - a q^k) prod(1 - a2 q^2k)
              / ((1 - q^(k+1)) prod(1 - b q^k) prod(1 - b2 q^2k)) (-q^k)^(1+s-r),

    and the scaled powers s q^k are built once, on demand, so a node costs
    t_{k+1}/t_k = z c_k prod(1 - u (s_i q^k)) / prod(1 - v (s_j q^k)).
    Termination and zero denominators of the fixed parameters are settled
    once, those of the scaled ones at every node."""

    __slots__ = ("_q", "_num", "_den", "_snum", "_sden", "_num2", "_den2",
                 "_stop", "_c", "_pnum", "_pden")

    def __init__(self, numerator, denominator, base: QBase | float,
                 scaled_num=(), scaled_den=(), num2=(), den2=()) -> None:
        q = as_base(base)
        num, den, snum, sden, num2, den2 = (
            tuple(map(scalar, p))
            for p in (numerator, denominator, scaled_num, scaled_den, num2, den2))
        for b in den + sden + den2:
            if not cmath.isfinite(b):
                raise PreconditionViolation(f"denominator parameter must be finite, got {b!r}")
        self._q = q
        self._num, self._den, self._snum, self._sden, self._num2, self._den2 = (
            num, den, snum, sden, num2, den2)
        self._stop = min(_termination_index(num, q), _termination_index(num2, q * q))
        # c_k, and the scaled numerator and denominator powers, k = 0, 1, ...
        self._c, self._pnum, self._pden = [], [], []

    def __call__(self, z: complex, u: complex = 1.0,
                 v: complex | None = None) -> SeriesResult:
        """Sum the series at the node.  Non-terminating series require
        r <= s + 1, and |z| < 1 when r = s + 1.  The sum stops by ``SERIES``,
        whose run guards against isolated near-zero terms when a numerator
        parameter sits close to q^(-m).  A z that is not finite raises
        PreconditionViolation before any term is summed, and so does any parameter that is not
        finite: a fixed numerator or any denominator one when the plan is
        built; u times a scaled numerator one, and v when denominator
        parameters are scaled, at the call.  A sum that is not finite
        raises IllConditioned."""
        if not cmath.isfinite(z):
            raise PreconditionViolation(f"series argument must be finite, got {z!r}")
        q, num, den, num2, den2 = self._q, self._num, self._den, self._num2, self._den2
        snum, sden = self._snum, self._sden
        r = len(num) + len(snum) + 2 * len(num2)
        s = len(den) + len(sden) + 2 * len(den2)
        stop_at = self._stop
        if snum:
            stop_at = min(stop_at, _termination_index([a * u for a in snum], q))
        terminates = stop_at < math.inf
        if not terminates:
            if r > s + 1:
                raise DivergentSeries(f"non-terminating {r}phi{s} diverges for every z != 0")
            if r == s + 1 and abs(z) >= 1.0:
                raise DivergentSeries(f"non-terminating {r}phi{s} needs |z| < 1")
        # the sum ends at termination or the small-term streak, else raises at the cap
        tol, run, unit, cap = SERIES
        end = min(stop_at, cap - 1)
        if v is None:
            v = u
        if sden and not cmath.isfinite(v):
            raise PreconditionViolation(f"node value v must be finite, got {v!r}")
        sign_exp = 1 + s - r
        c, pnum, pden = self._c, self._pnum, self._pden
        built = len(c)
        qk1 = q**built  # q^k of the first degree to build
        wide = tol * (1.0 + 1e-9)
        mag_sum = unit + 1.0
        term = total = 1.0  # complex only once a complex factor enters
        comp = 0.0  # Kahan compensation
        streak = 0
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
                if num2 or den2:
                    q2k = qk * qk
                    for a in num2:
                        ratio *= 1.0 - a * q2k
                    for b in den2:
                        f = 1.0 - b * q2k
                        if abs(f) < _TERMINATION_SLACK:
                            raise _zero_denominator(b, 2 * k)
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
            if not terminates:
                # SERIES: |term| <= tol * (unit + |total|); as |total| is at
                # most mag_sum - unit, a term above wide * mag_sum fails it
                # without forming |total|
                last_mag = abs(term)
                mag_sum += last_mag
                if last_mag <= wide * mag_sum and last_mag <= tol * (unit + abs(total)):
                    streak += 1
                    if streak >= run:
                        end = k + 1
                        break
                else:
                    streak = 0
        else:
            if end < stop_at:
                raise NoConvergence(f"no convergence within {cap} terms")
        if not cmath.isfinite(total):  # a term overflowed
            raise IllConditioned("series sum leaves the double-precision range")
        # terms summed: the leading 1 and one per ratio applied
        return SeriesResult(complex(total), end + 1)


def _zero_denominator(b: complex, k: int) -> ZeroDenominator:
    return ZeroDenominator(f"denominator parameter {b!r} hits q^-{k} before termination")


def eval_phi(spec: SeriesSpec) -> SeriesResult:
    """Sum the series described by ``spec``: its plan, with no parameter
    scaled, evaluated once at its z."""
    return SeriesPlan(spec.numerator, spec.denominator, spec.base, num2=spec.numerator2,
                      den2=spec.denominator2)(scalar(spec.z))
