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

Askey-Wilson, continuous q-ultraspherical and q-Laguerre polynomials are
evaluated by their forward three-term recurrences, each stated once as
rows of x-free coefficients and a short walk that forms the one term in
x; none of them forms the q^-n scale of the series above.  Little
q-Laguerre is evaluated by series, the form picked per degree by the
defining 2phi1's first term ratio c_n x: that sum where c_n x >= -1/2
(every x <= 0, and x > 0 up to 1 / (2 |c_n|), where its terms' magnitudes
add to at most 4 |p_n(x)|), a scaled 2phi0 form at every other x > 0.
The series definitions of all four families serve as oracles in the
tests.

Each family has two reads, and its record in FAMILIES holds both: the
per-record read ``values``, the one way to read a known set of degrees at
a known set of points, and the cursor factory, params -> x -> cursor, the
one way to walk a point over degrees whose last one is not known in
advance.  Its evaluator reads one degree at one point with the step those
two share, and so with their bits.  ``Family`` states their contracts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass
from enum import Enum
from typing import Callable, Sequence

from .errors import PreconditionViolation, ZeroParameter, IllConditioned
from .qpoch import (
    ProductPlan,
    SCALE_HI,
    SCALE_LO,
    QBase,
    poch_all_infinite,
    poch_finite,
    poch_infinite,
    renorm,
    scalar,
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
    evaluation accepts any finite values with a != 0.  A value with zero
    imaginary part is kept as a float (``qpoch.scalar``), so the
    recurrence, weight and norm run in float arithmetic at real
    parameters.  Every record takes, after its base, the names its caller
    gives its parameters (by default the field names), and a refusal
    names the parameter by them."""

    a: complex
    b: complex
    c: complex
    d: complex
    base: QBase
    names: InitVar[tuple[str, ...]] = ("a", "b", "c", "d")

    def __post_init__(self, names: tuple[str, ...]) -> None:
        for field, name in zip("abcd", names):
            v = scalar(complex(getattr(self, field)))
            if not cmath.isfinite(v):
                raise PreconditionViolation(f"parameter {name} must be finite")
            object.__setattr__(self, field, v)
        if not isinstance(self.base, QBase):
            object.__setattr__(self, "base", QBase(self.base))

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def orthogonal(self) -> bool:
        """Max modulus < 1, and each value occurs as often as its
        conjugate, so every parameter is real or has its conjugate
        among the four."""
        vals = self.as_tuple()
        return max(abs(v) for v in vals) < 1.0 and all(
            vals.count(v) == vals.count(v.conjugate()) for v in vals)


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
    names: InitVar[tuple[str, ...]] = ("beta",)

    def __post_init__(self, names: tuple[str, ...]) -> None:
        b = _real(names[0], self.beta)
        if not (math.isfinite(b) and 0.0 < abs(b) < 1.0):
            raise PreconditionViolation(
                f"{names[0]} must lie in (-1, 1) and be nonzero, got {b!r}"
            )
        object.__setattr__(self, "beta", b)
        if not isinstance(self.base, QBase):
            object.__setattr__(self, "base", QBase(self.base))


@dataclass(frozen=True)
class LqLParams:
    """Little q-Laguerre parameter a with 0 < aq < 1."""

    a: float
    base: QBase
    names: InitVar[tuple[str, ...]] = ("a",)

    def __post_init__(self, names: tuple[str, ...]) -> None:
        if not isinstance(self.base, QBase):
            object.__setattr__(self, "base", QBase(self.base))
        name = names[0]
        a = _real(name, self.a)
        if not (math.isfinite(a) and 0.0 < a * self.base.q < 1.0):
            raise PreconditionViolation(f"need 0 < {name}*q < 1, got {name}={a!r}")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class QLagParams:
    """q-Laguerre parameter alpha in (-1, inf)."""

    alpha: float
    base: QBase
    names: InitVar[tuple[str, ...]] = ("alpha",)

    def __post_init__(self, names: tuple[str, ...]) -> None:
        al = _real(names[0], self.alpha)
        if not (math.isfinite(al) and al > -1.0):
            raise PreconditionViolation(f"{names[0]} must exceed -1, got {al!r}")
        object.__setattr__(self, "alpha", al)
        if not isinstance(self.base, QBase):
            object.__setattr__(self, "base", QBase(self.base))


def _theta(x: float) -> float:
    if not abs(x) <= 1.0 + 1e-12:  # NaN fails this test too
        raise PreconditionViolation(f"need |x| <= 1, got {x!r}")
    return math.acos(max(-1.0, min(1.0, float(x))))


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise PreconditionViolation(f"need a finite x, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


Cursor = Callable[[int], tuple[complex, float]]


@dataclass(eq=False)
class Recurrence:
    """A family's forward three-term recurrence

        a_k p_(k+1) = b_k(x) p_k - c_k p_(k-1),

    split at x: only b_k depends on x, through one term per point.

    rows   params -> row, where row(k) holds the x-free values of step k
    start  (x, params) -> the point's term in x; checks x, and the record
           where evaluation needs it
    walk   (term, rows, p_(k-1), p_k[, trail]) -> the pair advanced once
           per row, forming b_k from the point's term and the row, and
           appending each new value to ``trail`` when one is given: the
           one statement of the step

    Its two reads, ``values`` and the cursors, and a one-point read
    (``_one``) all step through ``_advance``.  From p_(-1) = 0, p_0 = 1,
    rows 0..n-1 give (p_(n-1), p_n).  A polynomial solution is never the minimal one, so forward
    recursion keeps it (Gautschi, SIAM Review 9, 1967), and no
    intermediate carries the q^-n scale of the series forms.  A p_n beyond
    double range (inf, or the NaN of inf - inf) raises IllConditioned, and
    so does an a_k that underflowed to 0 because the coefficients
    overflowed.
    """

    rows: Callable[[object], Callable[[int], tuple]]
    start: Callable[[float, object], complex]
    walk: Callable[..., tuple]

    def values(self, degrees: Sequence[int], points: Sequence[float],
               params) -> list[list[complex]]:
        """``Family.values``: each point, in order, forms its term (``start``
        checks x before the degrees are checked) and walks from degree 0 up
        to the highest degree, keeping each value it passes."""
        low, top = (min(degrees), max(degrees)) if degrees else (0, 0)
        table, out = _table(params, list), []
        for x in points:
            term = self.start(x, params)
            if low < 0:
                raise PreconditionViolation("n must be >= 0")
            trail = [1.0]  # p_0, then p_1 .. p_top as the walk appends them
            self._advance(term, params, table, 0, top, 0.0, 1.0, trail)
            out.append([complex(trail[n]) for n in degrees])
        return out

    def cursors(self, params) -> Callable[[float], Cursor]:
        """x -> cursor giving (p_n(x), 0) as ``Family.cursors`` states.  A
        cursor advances from the last degree it returned, so degrees 0..N
        take N steps in all; a lower degree walks again from degree 0."""
        advance, table = self._advance, _table(params, list)

        def cursor(x: float) -> Cursor:
            term = self.start(x, params)
            state = 0, 0.0, 1.0  # the last degree k returned, p_(k-1), p_k

            def at(n: int) -> tuple[complex, float]:
                nonlocal state
                k, prev, cur = state
                if n < k:
                    if n < 0:
                        raise PreconditionViolation("n must be >= 0")
                    k, prev, cur = 0, 0.0, 1.0
                prev, cur = advance(term, params, table, k, n, prev, cur)
                state = n, prev, cur
                return complex(cur), 0

            return at

        return cursor

    def _advance(self, term, params, table, k: int, n: int, prev, cur, trail=None):
        """(p_(n-1), p_n) from (p_(k-1), p_k) at the point's ``term``, over
        rows k..n-1 of the record's ``table`` (``_table``), each built once
        per record as a read first needs it; a row that cannot be built
        (AW's 1 - abcd q^m near 0) is not kept, and raises at every read
        that needs it."""
        try:
            if len(table) < n:
                table.extend(map(self.rows(params), range(len(table), n)))
            prev, cur = self.walk(term, table[k:n], prev, cur, trail)
        except ZeroDivisionError:
            raise IllConditioned(_OUT_OF_RANGE) from None
        if not cmath.isfinite(cur):
            raise IllConditioned(_NOT_FINITE)
        return prev, cur


def _table(params, empty: Callable[[], object]):
    """The x-free table kept on a parameter record, made by ``empty`` at
    the first call that needs it.  It is plain data (rows, columns, a
    dict), never a closure over the record, so it dies with the record.
    It grows without a lock: use a record from one thread at a time."""
    try:
        return params._table
    except AttributeError:
        object.__setattr__(params, "_table", empty())
        return params._table


_OUT_OF_RANGE = "recurrence coefficients leave the double-precision range"
_NOT_FINITE = "recurrence value leaves the double-precision range"


def _aw_rows(p: AWParams) -> Callable[[int], tuple]:
    """Askey-Wilson recurrence rows (a_k, A_k, a C_k/a, c_k).

    The recurrence is written directly in the unnormalized polynomials,

        2x p_k = A'_k p_(k+1) + (a + 1/a - A_k - C_k) p_k + C'_k p_(k-1),

    where A_k, C_k are the classical normalized-recurrence coefficients and
    A'_k, C'_k absorb the a^-k (ab, ac, ad; q)_k prefactor, so no
    intermediate carries the a^-k scale.  A row whose denominator
    1 - abcd q^m nearly vanishes raises IllConditioned when it is built.
    """
    q = p.base.q
    a, b, c, d = p.as_tuple()
    abcd = a * b * c * d

    def row(k: int) -> tuple:
        qk, qk1 = q**k, q ** (k - 1)
        d0 = 1.0 - abcd * q ** (2 * k - 1)
        d1 = 1.0 - abcd * q ** (2 * k)
        d2 = 1.0 - abcd * q ** (2 * k - 2)
        if min(abs(d0), abs(d1), abs(d2)) < 1e-12:
            raise IllConditioned("recurrence denominator 1 - abcd q^m nearly vanishes")
        A = (
            (1.0 - a * b * qk) * (1.0 - a * c * qk) * (1.0 - a * d * qk)
            * (1.0 - abcd * qk1) / (a * d0 * d1)
        )
        C_a = (
            (1.0 - qk) * (1.0 - b * c * qk1) * (1.0 - b * d * qk1)
            * (1.0 - c * d * qk1) / (d2 * d0)
        )  # C_k / a
        return (
            (1.0 - abcd * qk1) / (d0 * d1),
            A,
            a * C_a,
            C_a * (1.0 - a * b * qk1) * (1.0 - a * c * qk1) * (1.0 - a * d * qk1),
        )

    return row


def _aw_start(x: float, p: AWParams) -> complex:
    """(2x - a) - 1/a, the part of b_k shared by every step."""
    _theta(x)  # validates |x| <= 1
    a = p.a
    if abs(a) == 0.0:
        raise ZeroParameter("Askey-Wilson evaluation needs a != 0")
    return 2.0 * x - a - 1.0 / a


def _aw_walk(u, rows, prev, cur, trail=None) -> tuple:
    for a, A, aC, c in rows:  # b_k = ((2x - a) - 1/a) + A_k + a (C_k / a)
        prev, cur = cur, ((u + A + aC) * cur - c * prev) / a
        if trail is not None:
            trail.append(cur)
    return prev, cur


def _cqu_rows(p: UltraParams) -> Callable[[int], tuple]:
    """Continuous q-ultraspherical recurrence rows
    (1 - q^(k+1), 1 - beta q^k, 1 - beta^2 q^(k-1)), from

        2x (1 - beta q^k) C_k = (1 - q^(k+1)) C_(k+1)
                                + (1 - beta^2 q^(k-1)) C_(k-1).
    """
    q, beta = p.base.q, p.beta
    return lambda k: (1.0 - q ** (k + 1), 1.0 - beta * q**k,
                      1.0 - beta * beta * q ** (k - 1))


def _cqu_start(x: float, p: UltraParams) -> float:
    _theta(x)  # validates |x| <= 1
    return 2.0 * x


def _cqu_walk(x2, rows, prev, cur, trail=None) -> tuple:
    for a, s, c in rows:  # b_k = (2x)(1 - beta q^k)
        prev, cur = cur, (x2 * s * cur - c * prev) / a
        if trail is not None:
            trail.append(cur)
    return prev, cur


def _qlag_rows(p: QLagParams) -> Callable[[int], tuple]:
    """q-Laguerre recurrence rows (a_k, a_k + c_k, q^(2k+alpha+1), c_k),
    from Koekoek-Lesky-Swarttouw 14.21.3

        -q^(2k+alpha+1) x L_k = (1 - q^(k+1)) L_(k+1)
            - [(1 - q^(k+1)) + q (1 - q^(k+alpha))] L_k
            + q (1 - q^(k+alpha)) L_(k-1).
    """
    q, al = p.base.q, p.alpha

    def row(k: int) -> tuple:
        a = 1.0 - q ** (k + 1)
        c = q * (1.0 - q ** (k + al))
        return a, a + c, q ** (2 * k + al + 1.0), c

    return row


def _qlag_start(x: float, p: QLagParams) -> float:
    return _finite(x)


def _qlag_walk(x, rows, prev, cur, trail=None) -> tuple:
    for a, apc, w, c in rows:  # b_k = (a_k + c_k) - q^(2k+alpha+1) x
        prev, cur = cur, ((apc - w * x) * cur - c * prev) / a
        if trail is not None:
            trail.append(cur)
    return prev, cur


_AW = Recurrence(_aw_rows, _aw_start, _aw_walk)
_CQU = Recurrence(_cqu_rows, _cqu_start, _cqu_walk)
_QLAG = Recurrence(_qlag_rows, _qlag_start, _qlag_walk)


def _one(rec: Recurrence, n: int, x: float, params):
    """p_n(x) by ``rec._advance``, x checked before n as every read does."""
    term = rec.start(x, params)
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    return rec._advance(term, params, _table(params, list), 0, n, 0.0, 1.0)[1]


def askey_wilson(n: int, x: float, p: AWParams) -> complex:
    """Askey-Wilson polynomial p_n(x; a,b,c,d | q) at x = cos(theta)."""
    return complex(_one(_AW, n, x, p))


def cont_q_ultra(n: int, x: float, p: UltraParams) -> float:
    """Continuous q-ultraspherical (Rogers) polynomial C_n(x; beta | q)."""
    return _one(_CQU, n, x, p)


def _lql_row(p: LqLParams, k: int) -> tuple[float, float, float, float, float]:
    """The x-free factors at index k of little q-Laguerre's two sums: q^k,
    1 - q^(k+1), 1 - q^-k, 1 - q^-k / a and 1 - a q^(k+1).  A q^-k beyond
    double range raises IllConditioned."""
    q = p.base.q
    try:
        q_k = q ** -k
    except OverflowError:
        raise IllConditioned("value exceeds the double-precision range") from None
    return q**k, 1.0 - q ** (k + 1), 1.0 - q_k, 1.0 - q_k / p.a, 1.0 - p.a * q * q**k


def _lql_prefactor(pdown: list[float], n: int, q: float) -> tuple[float, float]:
    """The prefactor (q^-n / a; q)_n in scaled form, its factors
    ``pdown[k]`` = 1 - q^-k / a taken for k = n down to 1."""
    pm, pe = 1.0, 0.0
    for f in pdown[n:0:-1]:
        pm *= f
        if not SCALE_LO <= abs(pm) <= SCALE_HI:
            pm, pe = renorm(pm, pe, q)
    return pm, pe


def _lql_sums(degrees: Sequence[int], points: Sequence[tuple[float, list[float]]],
              p: LqLParams) -> list[list[tuple[float, float]]]:
    """The one little q-Laguerre loop: for each point, in order, the pair
    (m, e) with p_n(x) = m * q**e at each degree.  ``points`` holds
    (x, xf) pairs, xf the factors 1 - q^k / x of the point built so far,
    which the call extends in place, so a caller that keeps the pair (a
    cursor) builds each of them once.  Each point's x is checked before
    the degrees are; x = 0 reads (1, 0) at every degree.

    One constant per degree picks the form: c_n = q (1 - q^-n) / ((1 - q)
    (1 - aq)), the first term ratio c_n x of the defining sum
    2phi1(q^-n, 0; aq; q, qx).  Where c_n x >= -1/2, that is for x <= 0
    (whose terms share one sign) and for x > 0 with |c_n x| <= 1/2 (whose
    later ratios are smaller still, so the sum of the terms' magnitudes is
    at most 4 |p_n(x)|), it is (p_n(x), 0) from the defining sum, summed
    with ``bhs.SeriesPlan``'s operations and compensation and stopped at
    the first term below 2^-54 of the sum: an a-priori bound on the rest,
    not a streak (``bhs.Stop``).  Every other x > 0 is
    the scaled 2phi0 form of ``little_q_laguerre_scaled``.  Both run over
    the record's x-free columns (``_table``), built once per record and
    looked up once per call."""
    q, (low, top) = p.base.q, (min(degrees), max(degrees)) if degrees else (0, 0)
    lnq, exp, lo, hi, tail = math.log(q), math.exp, SCALE_LO, SCALE_HI, 2.0**-54
    # columns q^k, 1 - q^(k+1), 1 - q^-k, 1 - q^-k / a, 1 - a q^(k+1), and
    # n -> [n, its steps, 1 - q^-(n-k) for k = 0..n-1, q^-n, c_n, and
    # (q^-n / a; q)_n scaled, built at the degree's first 2phi0 read]
    qk, up, down, pdown, aup, plans = _table(p, lambda: ([], [], [], [], [], {}))
    plan = None
    out = []
    for x, xf in points:
        x = _finite(x)
        if low < 0:
            raise PreconditionViolation("n must be >= 0")
        if x == 0.0:  # c_n may overflow to -inf, and -inf * 0 is NaN
            out.append([(1.0, 0)] * len(degrees))
            continue
        if plan is None:
            while len(qk) <= top:
                for col, v in zip((qk, up, down, pdown, aup), _lql_row(p, len(qk))):
                    col.append(v)
            for n in degrees:
                if n not in plans:
                    qn = q**-n
                    plans[n] = [n, range(n), down[n:0:-1], qn,
                                q * (1.0 - qn) / (up[0] * aup[0]), None]
            plan = [plans[n] for n in degrees]
        if x > 0.0:
            xf.extend([1.0 - v / x for v in qk[len(xf):top]])
        z, ratio = q * x, -x / p.a
        row = []
        for entry in plan:
            n, steps, dn, qn, c, pre = entry
            if x * c >= -0.5:
                # the defining sum, compensated; term ratio k -> k+1
                # (1 - q^-n q^k) qx / ((1 - q^(k+1)) (1 - a q^(k+1)))
                tm = sm = 1.0
                comp = 0.0
                for _, v, u, w in zip(steps, qk, up, aup):
                    tm *= (1.0 - qn * v) / (u * w) * z
                    y = tm - comp
                    t = sm + y
                    comp = (t - sm) - y
                    sm = t
                    if -tail * sm < tm < tail * sm:  # the sum is positive
                        break
                if not sm < math.inf:
                    raise IllConditioned("value exceeds the double-precision range")
                row.append((sm, 0))
                continue
            if pre is None:
                pre = entry[5] = _lql_prefactor(pdown, n, q)
            pm, pe = pre
            # series sum (sm, se) and running term (tm, te); renorm leaves a
            # mantissa whose magnitude lies inside [SCALE_LO, SCALE_HI] as
            # it is, so it is called only outside (tested without abs,
            # which costs a call per test)
            tm, te = 1.0, 0.0
            sm, se = 1.0, 0.0
            for k, d, f, u in zip(steps, dn, xf, up):
                # term ratio k -> k+1 of 2phi0(q^-n, 1/x; -; q, x/a)
                tm *= d * f / u
                tm *= ratio
                te -= k
                if tm == 0.0:
                    break  # x sits on the lattice; all later terms vanish
                if not (lo <= tm <= hi or -hi <= tm <= -lo):
                    tm, te = renorm(tm, te, q)
                if te < se:
                    sm = sm * exp((se - te) * lnq) + tm
                    se = te
                else:
                    sm += tm * exp((te - se) * lnq)
                if not (lo <= sm <= hi or -hi <= sm <= -lo):
                    sm, se = renorm(sm, se, q)
            row.append(renorm(sm / pm, se - pe, q))
        out.append(row)
    return out


def _lql_cursors(p: LqLParams) -> Callable[[float], Cursor]:
    """x -> little q-Laguerre cursor: each call sums its degree afresh with
    one ``_lql_sums`` call, which keeps the point's factors 1 - q^k / x
    for the next."""
    def cursor(x: float) -> Cursor:
        point = [(_finite(x), [])]
        return lambda n: _lql_sums((n,), point, p)[0][0]

    return cursor


def _lql_values(degrees: Sequence[int], points: Sequence[float],
                p: LqLParams) -> list[list[complex]]:
    """``Family.values`` for little q-Laguerre: one ``_lql_sums`` call over
    every point and degree."""
    q = p.base.q
    return [[unscaled(m, e, q) for m, e in row]
            for row in _lql_sums(degrees, [(x, []) for x in points], p)]


def little_q_laguerre_scaled(
    n: int, x: float, p: LqLParams
) -> tuple[float, float]:
    """Little q-Laguerre value in scaled form ``(mantissa, e)`` with
    p_n(x; a | q) = mantissa * q**e, for x > 0: ``_lql_sums``' loop, which
    every little q-Laguerre read runs.  Where |c_n x| <= 1/2 it is
    (p_n(x), 0) from the defining sum; elsewhere it is the 2phi0 form

        p_n(x; a | q) = 2phi0(q^-n, 1/x; -; q, x/a) / (q^-n / a; q)_n,

    which terminates at every lattice point x = q^k.  It is summed upward
    with the magnitude shifted into the q-exponent, so large degrees never
    overflow although the value grows like q^(-n(n-1)/2) x^n between
    lattice points.
    """
    if not 0.0 < x < math.inf:
        raise PreconditionViolation(f"scaled evaluation needs a finite x > 0, got {x!r}")
    return _lql_sums((n,), [(x, [])], p)[0][0]


def little_q_laguerre(n: int, x: float, p: LqLParams) -> float:
    """Little q-Laguerre / Wall polynomial p_n(x; a | q), the one-point,
    one-degree read of ``_lql_values``: the defining 2phi1 sum where its
    first term ratio c_n x >= -1/2 (every x <= 0, and small x > 0), the
    scaled 2phi0 form at every other x > 0, with a value outside double
    range raising IllConditioned (above) or returned as 0 (below)."""
    return _lql_values((n,), (x,), p)[0][0].real


def q_laguerre(n: int, x: float, p: QLagParams) -> float:
    """q-Laguerre polynomial L_n^(alpha)(x; q)."""
    return _one(_QLAG, n, x, p)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


# Each weight is a factory: given the parameters it builds the product
# plans of its infinite products once and returns x -> w(x).
def _on_interval(f: Callable[[complex], float], m: int) -> Callable[[float], float]:
    """x -> f(e^(i m theta)) for x = cos(theta) in (-1, 1), and exactly 0 at
    x = +-1, where the weight's factor (e^(2i theta); q)_inf vanishes, and
    at the ends that ``_theta`` clamps to them."""
    def weight(x: float) -> float:
        theta = _theta(x)
        return 0.0 if abs(x) >= 1.0 else f(cmath.exp(m * 1j * theta))

    return weight


def _aw_weight(p: AWParams) -> Callable[[float], float]:
    num, den = ProductPlan(1.0, p.base), [ProductPlan(v, p.base) for v in p.as_tuple()]
    return _on_interval(
        lambda e: abs(num(e * e) / math.prod(plan(e) for plan in den)) ** 2, 1)


def _ultra_weight(p: UltraParams) -> Callable[[float], float]:
    num, den = ProductPlan(1.0, p.base), ProductPlan(p.beta, p.base)
    return _on_interval(lambda e2: abs(num(e2) / den(e2)) ** 2, 2)


def _qlag_weight(p: QLagParams) -> Callable[[float], float]:
    den = ProductPlan(-1.0, p.base)

    def weight(x: float) -> float:
        if not 0.0 < x < math.inf:
            raise PreconditionViolation(f"half-line weight needs a finite x > 0, got {x!r}")
        return x**p.alpha / den(x).real

    return weight


def aw_weight(x: float, p: AWParams) -> float:
    """Askey-Wilson weight |(e^(2i theta);q)_inf / (a e^(i theta), b e^(i theta),
    c e^(i theta), d e^(i theta); q)_inf|^2 on [-1, 1], exactly 0 at x = +-1."""
    return _aw_weight(p)(x)


def ultra_weight(x: float, p: UltraParams) -> float:
    """Weight |(e^(2i theta);q)_inf / (beta e^(2i theta);q)_inf|^2 on [-1, 1],
    exactly 0 at x = +-1."""
    return _ultra_weight(p)(x)


def qlag_weight(x: float, p: QLagParams) -> float:
    """Half-line weight x^alpha / (-x; q)_inf, x > 0."""
    return _qlag_weight(p)(x)


# ---------------------------------------------------------------------------
# norm constants (the right-hand sides of the orthogonality relations)
# ---------------------------------------------------------------------------


def aw_norm(n: int, p: AWParams) -> float:
    """h_n(a,b,c,d | q); the full orthogonality constant is 2*pi*h_n."""
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    q = p.base.q
    a, b, c, d = p.as_tuple()
    abcd = a * b * c * d
    qn = q**n
    num = poch_infinite(abcd * q ** (2 * n), p.base) * poch_finite(abcd * q ** (n - 1), q, n)
    den = poch_all_infinite((q ** (n + 1), a * b * qn, a * c * qn, a * d * qn,
                             b * c * qn, b * d * qn, c * d * qn), p.base)
    return (num / den).real


def ultra_norm(n: int, p: UltraParams) -> float:
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
        * poch_all_infinite((beta, q * beta), p.base).real
        * poch_finite(beta * beta, q, n).real
    )
    den = (
        (1.0 - beta * q**n)
        * poch_all_infinite((beta * beta, q), p.base).real
        * poch_finite(q, q, n).real
    )
    return 2.0 * math.pi * num / den


def lql_norm(n: int, p: LqLParams) -> float:
    """Lattice orthogonality constant (aq)^n (q;q)_n / ((aq;q)_inf (aq;q)_n)."""
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    q = p.base.q
    aq = p.a * q
    return (
        aq**n
        * poch_finite(q, q, n).real
        / (poch_infinite(aq, p.base).real * poch_finite(aq, q, n).real)
    )


_INTEGER_EXACT = 1e-12
_INTEGER_DANGER = 1e-6


def qlag_continuous_norm(n: int, p: QLagParams) -> float:
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
            * poch_infinite(q**-al, p.base).real
            * poch_finite(q ** (al + 1.0), q, n).real
            / (
                math.sin(math.pi * al)
                * poch_infinite(q, p.base).real
                * poch_finite(q, q, n).real
            )
        )
    return -branch / q**n


def qlag_bilateral_norm(n: int, p: QLagParams, c: float) -> float:
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
    num = poch_all_infinite((q, -c * qa1, -(q**-p.alpha) / c), p.base).real
    den = poch_all_infinite((qa1, -c, -q / c), p.base).real
    return (
        num * poch_finite(qa1, q, n).real / (q**n * den * poch_finite(q, q, n).real)
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

    params      parameter record class, built as params(*values, base),
                or with the caller's names for its refusals appended
    names       its parameter names, in that order
    evaluate    (n, x, params) -> p_n(x) as a complex, the bits of
                ``values``, through ``askey_wilson`` and the rest
    values      (degrees, points, params) -> [[p_n(x) for n in degrees]
                for x in points]: a known set of degrees at a known set
                of points, such as a connection residual's targets.
                ``Recurrence.values`` walks each point once up to the
                highest degree; ``_lql_values`` runs one ``_lql_sums``
                loop.  Points are read in order, each checked before the
                degrees, and a refusal has the class and message a cursor
                read at the first refused point would raise.
    weight      params -> (x -> continuous weight w(x)), a factory that
                builds the weight's product plans once per functional;
                None on a lattice
    support     (q, count) -> sample abscissas on the natural support
    cursors     params -> (x -> cursor): ``Recurrence.cursors`` or
                ``_lql_cursors``.  A cursor ``at(n)`` gives (m, e) with
                p_n(x) = m * q**e (``unscaled``), the bits of ``values``;
                it checks x when it is made, refuses n < 0, takes n in
                any order, and a call that raises leaves it usable: the
                streaming read of a generating function's outer sum.
                All reads of one record share its table of x-free
                factors (``_table``), built as reads first need them.
    x_range     (lo, hi): the closed range of x over which the generating
                functions expanding in the family hold
    """

    params: type
    names: tuple[str, ...]
    evaluate: Callable[[int, float, object], complex]
    values: Callable[[Sequence[int], Sequence[float], object], list[list[complex]]]
    weight: Callable[[object], Callable[[float], float]] | None
    support: Callable[[float, int], list[float]]
    cursors: Callable[[object], Callable[[float], Cursor]]
    x_range: tuple[float, float]


def unscaled(m: complex, e: float, q: float) -> complex:
    """A cursor's (m, e) as the complex ``evaluate`` returns: an unscaled
    (p_n(x), 0) as it is, a scaled pair through unscale as little
    q-Laguerre's evaluator does."""
    return complex(m if e == 0 else unscale(m, e, q))


# The lambdas look evaluators up as module globals at call time and pass
# the degree first, so rebinding a module attribute (as a tracer does)
# reaches every caller of the table.
FAMILIES: dict[FamilyId, Family] = {
    FamilyId.ASKEY_WILSON: Family(
        AWParams, ("a", "b", "c", "d"),
        lambda n, x, p: askey_wilson(n, x, p), _AW.values,
        _aw_weight, _chebyshev, _AW.cursors, (-1.0, 1.0)),
    FamilyId.CONT_Q_ULTRA: Family(
        UltraParams, ("beta",),
        lambda n, x, p: complex(cont_q_ultra(n, x, p)), _CQU.values,
        _ultra_weight, _chebyshev, _CQU.cursors, (-1.0, 1.0)),
    FamilyId.LITTLE_Q_LAGUERRE: Family(
        LqLParams, ("a",),
        lambda n, x, p: complex(little_q_laguerre(n, x, p)), _lql_values,
        None, _lattice, _lql_cursors, (-math.inf, math.inf)),
    FamilyId.Q_LAGUERRE: Family(
        QLagParams, ("alpha",),
        lambda n, x, p: complex(q_laguerre(n, x, p)), _QLAG.values,
        _qlag_weight, _two_sided, _QLAG.cursors, (0.0, math.inf)),
}
_FAMILY_OF = {fam.params: fid for fid, fam in FAMILIES.items()}


def family_of(params) -> FamilyId:
    """The family whose parameter record ``params`` is."""
    fid = _FAMILY_OF.get(type(params))
    if fid is None:
        raise PreconditionViolation(f"unrecognized parameter record {params!r}")
    return fid
