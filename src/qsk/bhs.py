"""Evaluation of the basic hypergeometric series r_phi_s.

The series is

    sum_{k>=0} (a_1,...,a_r; q)_k / ((q, b_1,...,b_s; q)_k)
               * ((-1)^k q^C(k,2))^(1+s-r) * z^k,

summed with the term-ratio recurrence

    t_{k+1}/t_k = prod(1 - a_i q^k) / (prod(1 - b_j q^k) (1 - q^(k+1)))
                  * ((-1) q^k)^(1+s-r) * z.

Termination is detected when a numerator parameter equals q^(-m) for
some integer m (up to a relative slack of 1e-12, since parameters
usually arrive from floating-point arithmetic): every term beyond k = m
then vanishes and exactly m + 1 terms are summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DivergentSeries,
    NoConvergence,
    NonConvergentTolerance,
    ZeroDenominator,
)
from .qpoch import QBase, poch_infinite

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
        object.__setattr__(self, "numerator", tuple(complex(a) for a in self.numerator))
        object.__setattr__(
            self, "denominator", tuple(complex(b) for b in self.denominator)
        )
        object.__setattr__(self, "z", complex(self.z))
        if not isinstance(self.base, QBase):
            object.__setattr__(self, "base", QBase(self.base))

    @property
    def r(self) -> int:
        return len(self.numerator)

    @property
    def s(self) -> int:
        return len(self.denominator)


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    terminated: bool
    last_term_magnitude: float


def _termination_index(spec: SeriesSpec, cap: int) -> int | None:
    """Smallest m with some numerator parameter equal to q^(-m), else None."""
    q = spec.base.q
    best: int | None = None
    lnq = math.log(q)
    for a in spec.numerator:
        mag = abs(a)
        if mag < 1.0 - _TERMINATION_SLACK:
            continue
        m = round(-math.log(mag) / lnq)
        if m < 0 or m > cap:
            continue
        if abs(a * q**m - 1.0) < _TERMINATION_SLACK:
            best = m if best is None else min(best, m)
    return best


def eval_phi(
    spec: SeriesSpec,
    tol: float = 1e-15,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Sum the series described by ``spec``.

    Non-terminating series require r <= s + 1, and additionally |z| < 1
    when r = s + 1.  The stopping rule demands three consecutive terms
    below ``tol`` times the partial sum, which protects against isolated
    near-zero terms when a numerator parameter sits close to q^(-m).
    """
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
        raise NonConvergentTolerance(f"tol must be finite and > 0, got {tol!r}")
    q = spec.base.q
    z = spec.z
    r, s = spec.r, spec.s

    stop_at = _termination_index(spec, max_terms)
    if stop_at is None:
        if r > s + 1:
            raise DivergentSeries(
                f"non-terminating {r}phi{s} diverges for every z != 0"
            )
        if r == s + 1 and abs(z) >= 1.0:
            raise DivergentSeries(f"non-terminating {r}phi{s} needs |z| < 1")

    sign_exp = 1 + s - r
    term = complex(1.0)
    total = complex(1.0)
    comp = complex(0.0)  # Kahan compensation
    k = 0
    streak = 0
    last_mag = 1.0
    while True:
        if stop_at is not None and k >= stop_at:
            break
        if k + 1 >= max_terms:
            raise NoConvergence(f"no convergence within {max_terms} terms")
        qk = q**k
        ratio = z
        for a in spec.numerator:
            ratio *= 1.0 - a * qk
        den = 1.0 - q ** (k + 1)
        for b in spec.denominator:
            f = 1.0 - b * qk
            if abs(f) < _TERMINATION_SLACK:
                raise ZeroDenominator(
                    f"denominator parameter {b!r} hits q^-{k} before termination"
                )
            den *= f
        ratio /= den
        if sign_exp:
            ratio *= (-qk) ** sign_exp
        term *= ratio
        # Kahan-compensated accumulation
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        k += 1
        last_mag = abs(term)
        if stop_at is None:
            if last_mag <= tol * max(abs(total), 1e-300):
                streak += 1
                if streak >= _SMALL_STREAK:
                    break
            else:
                streak = 0
    return SeriesResult(
        value=total,
        terms_used=k + 1,
        terminated=stop_at is not None,
        last_term_magnitude=last_mag,
    )


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
