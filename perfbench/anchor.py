"""Correctness anchor: pinned qsk values checked against mpmath.

Every identity the workloads verify compares two sides computed by the
same q-Pochhammer, r_phi_s and family code, so a bug shared by both
sides would cancel.  These values are computed independently here, from
the textbook definitions (Koekoek-Lesky-Swarttouw) summed in 40-digit
arithmetic, at the bases the benchmark's clean workloads use.
"""

from __future__ import annotations

import math

import mpmath as mp

from qsk import (
    AWParams,
    LqLParams,
    QBase,
    QLagParams,
    SeriesSpec,
    UltraParams,
    askey_wilson,
    cont_q_ultra,
    eval_phi,
    little_q_laguerre,
    poch_infinite,
    q_laguerre,
)

# Agreement demanded, as |qsk - mpmath| / (1 + |mpmath|).
TOLERANCE = 1e-11


def _phi(num, den, q, z, n):
    """Terminating r_phi_s summed to k = n, straight from its definition."""
    sign = 1 + len(den) - len(num)
    total = 0
    for k in range(n + 1):
        term = z**k * ((-1) ** k * q ** (k * (k - 1) // 2)) ** sign / mp.qp(q, q, k)
        for a in num:
            term *= mp.qp(a, q, k)
        for b in den:
            term /= mp.qp(b, q, k)
        total += term
    return total


def _aw(n, x, a, b, c, d, q):
    e = mp.exp(1j * mp.acos(x))
    pref = a**-n * mp.qp(a * b, q, n) * mp.qp(a * c, q, n) * mp.qp(a * d, q, n)
    return pref * _phi((q**-n, a * b * c * d * q ** (n - 1), a * e, a / e),
                       (a * b, a * c, a * d), q, q, n)


def _cqu(n, x, beta, q):
    th = mp.acos(x)
    return sum(mp.qp(beta, q, k) * mp.qp(beta, q, n - k)
               / (mp.qp(q, q, k) * mp.qp(q, q, n - k))
               * mp.exp(1j * (n - 2 * k) * th) for k in range(n + 1)).real


def _lql(n, x, a, q):
    return _phi((q**-n, 0), (a * q,), q, q * x, n)


def _qlag(n, x, alpha, q):
    qa1 = q ** (alpha + 1)
    return mp.qp(qa1, q, n) / mp.qp(q, q, n) * _phi(
        (q**-n,), (qa1,), q, -(q ** (n + alpha + 1)) * x, n)


def _cases():
    """(label, qsk value thunk, mpmath value thunk) for each pinned point."""
    cases = []
    for a, q in ((0.3, 0.5), (-0.7 + 0.2j, 0.65), (0.9, 0.4), (-1.4, 0.5)):
        cases.append((f"poch_infinite({a}, {q})",
                      lambda a=a, q=q: poch_infinite(a, QBase(q)),
                      lambda a=a, q=q: mp.qp(mp.mpc(a), mp.mpf(q))))
    for num, den, z, q in (((0.3, -0.2), (0.45,), 0.5, 0.5),
                           ((0.3 + 0.1j, 0.6), (-0.35,), 0.9j, 0.65)):
        cases.append((f"eval_phi({num}; {den}; {q}, {z})",
                      lambda num=num, den=den, z=z, q=q: eval_phi(
                          SeriesSpec(num, den, z, QBase(q))).value,
                      lambda num=num, den=den, z=z, q=q: mp.qhyper(
                          [mp.mpc(v) for v in num], [mp.mpc(v) for v in den],
                          mp.mpf(q), mp.mpc(z))))
    q = 0.5
    num, den = (q**-4, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7)
    cases.append(("eval_phi(q^-4, 0.2, 0.3, 0.4; 0.5, 0.6, 0.7; 0.5, 0.5)",
                  lambda: eval_phi(SeriesSpec(num, den, 0.5, QBase(q))).value,
                  lambda: _phi([mp.mpf(v) for v in num], [mp.mpf(v) for v in den],
                               mp.mpf(q), mp.mpf(0.5), 4)))
    cases.append(("askey_wilson(5, 0.3; 0.3, 0.2, 0.1, 0.05 | 0.5)",
                  lambda: askey_wilson(5, 0.3, AWParams(0.3, 0.2, 0.1, 0.05, QBase(q))),
                  lambda: _aw(5, mp.mpf("0.3"), *(mp.mpf(v) for v in
                              ("0.3", "0.2", "0.1", "0.05")), mp.mpf(q))))
    cases.append(("cont_q_ultra(6, 0.4; 0.4 | 0.65)",
                  lambda: cont_q_ultra(6, 0.4, UltraParams(0.4, QBase(0.65))),
                  lambda: _cqu(6, mp.mpf("0.4"), mp.mpf("0.4"), mp.mpf("0.65"))))
    for x in (0.25, 0.37):
        cases.append((f"little_q_laguerre(5, {x}; 0.7 | 0.5)",
                      lambda x=x: little_q_laguerre(5, x, LqLParams(0.7, QBase(q))),
                      lambda x=x: _lql(5, mp.mpf(x), mp.mpf("0.7"), mp.mpf(q))))
    cases.append(("q_laguerre(6, 1.7; 0.8 | 0.4)",
                  lambda: q_laguerre(6, 1.7, QLagParams(0.8, QBase(0.4))),
                  lambda: _qlag(6, mp.mpf("1.7"), mp.mpf("0.8"), mp.mpf("0.4"))))
    return cases


def check() -> list[str]:
    """Return a line for every pinned value that disagrees with mpmath."""
    failures = []
    with mp.workdps(40):
        for label, ours, oracle in _cases():
            got = complex(ours())
            want = complex(oracle())
            err = abs(got - want) / (1.0 + abs(want))
            if not math.isfinite(err) or err > TOLERANCE:
                failures.append(f"{label}: qsk {got!r} vs mpmath {want!r} ({err:.2e})")
    return failures
