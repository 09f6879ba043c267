"""Oracle tier: the closed-form side and the outer coefficients of every
generating-function identity, and the infinite products, corollary kernels
and weights that the functionals evaluate node by node, against mpmath's
q-Pochhammer symbols (``qp``) and basic hypergeometric series (``qhyper``)
at 40 digits.

Each closed form is written here in full from the reference catalog, so
the check covers the library's split of it into an x-independent
prefactor and an x-dependent kernel; each coefficient is written in its
printed form, so the check covers the library's folding of it into one
q-hypergeometric term.
"""

import cmath
import functools
import math
from random import Random
from types import SimpleNamespace

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

from qsk import EvalContext, IdentityId, ParamPoint, sample_point  # noqa: E402
from qsk.bhs import eval_phi  # noqa: E402
from qsk.genfun import (  # noqa: E402
    entry_for,
    lhs_integrand_factor,
    outer_coefficient,
)
from qsk.orthofunc import list_corollaries  # noqa: E402
from qsk.polyfam import (  # noqa: E402
    AWParams,
    FamilyId,
    QLagParams,
    UltraParams,
    aw_weight,
    qlag_weight,
    ultra_weight,
)
from qsk.qpoch import QBase, poch_infinite  # noqa: E402

QS = (0.5, 0.8)
# The closed forms are also held to the oracle toward both ends of q's range.
CLOSED_FORM_QS = (0.05, 0.5, 0.8, 0.9, 0.95)
DRAWS = 3
TOL = 1e-12


def _phi(num, den, q, z):
    return mp.qhyper(list(num), list(den), q, z)


def _aw(v, q, e):
    return (_phi((v.a * e, v.b * e), (v.a * v.b,), q, v.t / e)
            * _phi((v.c / e, v.d / e), (v.c * v.d,), q, v.t * e))


def _cqu_27(v, q, e):
    t, b = v.t, v.beta
    return (mp.qp(t * b * e, q) * mp.qp(t * b / e, q)
            / (mp.qp(t * e, q) * mp.qp(t / e, q)))


def _cqu_28(v, q, e):
    b = v.beta
    return _phi((b, b * e**2), (b**2,), q, v.t / e) / mp.qp(v.t * e, q)


def _cqu_29(v, q, e):
    b = v.beta
    return mp.qp(v.t / e, q) * _phi((b, b * e**2), (b**2,), q, v.t / e)


def _cqu_30(v, q, e):
    b, r, rq = v.beta, mp.sqrt(v.beta), mp.sqrt(v.beta) * mp.sqrt(q)
    brq = b * mp.sqrt(q)
    return (_phi((r * e, rq * e), (brq,), q, v.t / e)
            * _phi((-r / e, -rq / e), (brq,), q, v.t * e))


def _cqu_31(v, q, e):
    b, r, rq = v.beta, mp.sqrt(v.beta), mp.sqrt(v.beta) * mp.sqrt(q)
    return (_phi((r * e, -r * e), (-b,), q, v.t / e)
            * _phi((rq / e, -rq / e), (-q * b,), q, v.t * e))


def _cqu_32(v, q, e):
    b, r, rq = v.beta, mp.sqrt(v.beta), mp.sqrt(v.beta) * mp.sqrt(q)
    brq = b * mp.sqrt(q)
    return (_phi((r * e, -rq * e), (-brq,), q, v.t / e)
            * _phi((rq / e, -r / e), (-brq,), q, v.t * e))


def _cqu_33(v, q, e):
    t, b, g = v.t, v.beta, v.gamma
    return (mp.qp(g * t * e, q) / mp.qp(t * e, q)
            * _phi((g, b, b * e**2), (b**2, g * t * e), q, t / e))


def _lql(v, q, e):
    t, x, aq = v.t, v.x, v.a * q
    return mp.qp(t, q) / mp.qp(x * t, q) * _phi((), (aq,), q, aq * x * t)


def _ql_14(v, q, e):
    qa1 = q ** (v.alpha + 1)
    return _phi((), (qa1,), q, -v.x * v.t * qa1) / mp.qp(v.t, q)


def _ql_15(v, q, e):
    qa1 = q ** (v.alpha + 1)
    return mp.qp(v.t, q) * _phi((), (qa1, v.t), q, -v.x * v.t * qa1)


def _ql_16(v, q, e):
    t, g, qa1 = v.t, v.gamma, q ** (v.alpha + 1)
    return (mp.qp(g * t, q) / mp.qp(t, q)
            * _phi((g,), (qa1, g * t), q, -v.x * t * qa1))


# Closed form of each source identity; a generalized identity shares its
# source's closed form.
CLOSED = {
    IdentityId.SRC_AW_14113: _aw,
    IdentityId.SRC_CQU_141027: _cqu_27,
    IdentityId.SRC_CQU_141028: _cqu_28,
    IdentityId.SRC_CQU_141029: _cqu_29,
    IdentityId.SRC_CQU_141030: _cqu_30,
    IdentityId.SRC_CQU_141031: _cqu_31,
    IdentityId.SRC_CQU_141032: _cqu_32,
    IdentityId.SRC_CQU_141033: _cqu_33,
    IdentityId.SRC_LQL_142011: _lql,
    IdentityId.SRC_QL_142114: _ql_14,
    IdentityId.SRC_QL_142115: _ql_15,
    IdentityId.SRC_QL_142116: _ql_16,
}


def _oracle(tag: IdentityId, point, q: float) -> complex:
    with mp.workdps(40):
        v = SimpleNamespace(**{k: mp.mpc(val) for k, val in point})
        mq = mp.mpf(q)
        # e = e^(i theta) for x = cos(theta); the lattice families ignore it
        e = mp.expj(mp.acos(v.x.real)) if abs(v.x.real) <= 1 else None
        return complex(CLOSED[entry_for(tag).source or tag](v, mq, e))


def _check(tag: IdentityId, point, q: float) -> None:
    want = _oracle(tag, point, q)
    got = entry_for(tag).lhs(point, EvalContext(q=q))
    assert abs(got - want) <= TOL * (1.0 + abs(want)), (point.canonical(), got, want)


# Draws whose closed form misses the oracle as q -> 1: the miss relative to
# 1 + |value|, and kappa, the largest sum |t_k| / |sum t_k| over the closed
# form's series factors, summed at 40 digits.  Every miss has kappa >= 6e4;
# they stay expected failures until the closed forms are rewritten.
NEAR_ONE_MISSES = {
    ("T4", 0.95, 0): "miss 4.6e-10, kappa 4.0e7",
    ("T8", 0.9, 2): "miss 2.1e-11, kappa 7.1e10",
    ("T8", 0.95, 1): "miss 1.8e-7, kappa 8.0e9",
    ("T9", 0.95, 0): "miss 1.5e-12, kappa 6.2e18",
    ("T9", 0.95, 1): "miss 4.7e-11, kappa 2.5e20",
    ("SRC_CQU_141028", 0.9, 1): "miss 1.4e-12, kappa 2.6e10",
    ("SRC_CQU_141029", 0.9, 2): "miss 3.4e-8, kappa 1.4e11",
    ("SRC_CQU_141030", 0.9, 0): "miss 1.5e-8, kappa 4.1e14",
    ("SRC_CQU_141030", 0.9, 1): "miss 5.6e-12, kappa 6.2e4",
    ("SRC_CQU_141030", 0.95, 0): "miss 3.0e-6, kappa 5.6e11",
    ("SRC_CQU_141030", 0.95, 1): "miss 9.2e-11, kappa 6.5e14",
    ("SRC_CQU_141031", 0.95, 0): "miss 2.6e-11, kappa 4.1e5",
    ("SRC_CQU_141033", 0.95, 0): "miss 4.7e-11, kappa 2.2e7",
    ("SRC_CQU_141033", 0.95, 1): "miss 1.5e-5, kappa 5.0e30",
    ("SRC_CQU_141033", 0.95, 2): "miss 1.4e-8, kappa 4.2e9",
}


def _closed_form_cases():
    for tag in IdentityId:
        for q in CLOSED_FORM_QS:
            for draw in range(DRAWS):
                why = NEAR_ONE_MISSES.get((tag.value, q, draw))
                marks = () if why is None else pytest.mark.xfail(
                    strict=True, raises=AssertionError, reason=why)
                yield pytest.param(tag, q, draw, marks=marks, id=f"{tag.value}-{q}-{draw}")


@pytest.mark.parametrize("tag, q, draw", _closed_form_cases())
def test_closed_form_against_mpmath(tag, q, draw):
    _check(tag, sample_point(tag, Random(f"oracle:{tag.value}:{q}:{draw}"), q), q)


# Sampled points at q = 0.8 where a 2phi1 factor of the closed form, summed
# at |z| = |t| near 0.8, cancels heavily (sum |terms| / |sum| is 2e7 and
# 2e8): the double-precision value misses the oracle by 1.0e-11 and 7.9e-12
# relative to 1 + |value|.  Heine's transformation of the 2phi1 would lower
# the cancellation; until then these stay expected failures.
ILL_CONDITIONED = {
    IdentityId.SRC_CQU_141029: {"beta": -0.6209690817114581, "t": -0.7466463922308879,
                                "x": 0.8463445143197494},
    IdentityId.SRC_CQU_141030: {"beta": 0.5667232425370698, "t": 0.7916308458448339,
                                "x": -0.8961937569120353},
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="cancelling 2phi1 closed form at q = 0.8")
@pytest.mark.parametrize("tag", list(ILL_CONDITIONED), ids=lambda t: t.value)
def test_ill_conditioned_closed_forms_miss_the_oracle(tag):
    _check(tag, ParamPoint.of(**ILL_CONDITIONED[tag]), 0.8)


# ---------------------------------------------------------------------------
# outer coefficients
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _qp1(a, q, n):
    """(a; q)_n as the product of its n factors 1 - a q^j.  The test asks
    for degrees 0, 1, 2, ... in turn, so each symbol costs one factor."""
    return mp.one if n == 0 else _qp1(a, q, n - 1) * (1 - a * q ** (n - 1))


def _qp(q, n, *args):
    """(a_1, a_2, ...; q)_n."""
    return mp.fprod(_qp1(a, q, n) for a in args)


def _free(q, n, g):
    """(1 - g q^n) / (1 - g): the weight of the replaced parameter g."""
    return (1 - g * q**n) / (1 - g)


def _t2(v, q, n):
    abcd, albcd = v.a * v.b * v.c * v.d, v.alpha * v.b * v.c * v.d
    return (v.t**n * _qp(q, n, albcd / q) * _qp(q**2, n, abcd / q, abcd)
            / (_qp(q, n, q, v.a * v.b, v.c * v.d, abcd / q)
               * _qp(q**2, n, albcd / q, albcd)))


def _cqu_free(num, den):
    """A q-ultraspherical re-expansion coefficient as the paper prints it:
    (num; q)_n (1 - gamma q^n) t^n / ((1 - gamma) (den, q gamma; q)_n)."""
    return lambda v, q, n: (_qp(q, n, *num(v, q)) * _free(q, n, v.gamma) * v.t**n
                            / _qp(q, n, *den(v, q), q * v.gamma))


def _qa1(v, q):
    return q ** (v.alpha + 1)


# Each outer coefficient in the form the reference catalog and the paper
# print it: with (w; q^2)_n symbols and the replaced parameter's factor
# (1 - gamma q^n) / ((1 - gamma) (q gamma; q)_n), which the library folds
# into 1 / (gamma; q)_n.
COEFFICIENTS = {
    IdentityId.SRC_AW_14113: lambda v, q, n: v.t**n / _qp(q, n, q, v.a * v.b, v.c * v.d),
    IdentityId.T2: _t2,
    IdentityId.SRC_CQU_141027: lambda v, q, n: v.t**n,
    IdentityId.T3: _cqu_free(lambda v, q: (v.beta,), lambda v, q: ()),
    IdentityId.SRC_CQU_141029: lambda v, q, n: (
        q ** mp.binomial(n, 2) * (-v.beta * v.t)**n / _qp(q, n, v.beta**2)),
    IdentityId.T4: lambda v, q, n: (
        q ** mp.binomial(n, 2) * (-v.beta)**n
        * _cqu_free(lambda v, q: (v.beta,), lambda v, q: (v.beta**2,))(v, q, n)),
    IdentityId.SRC_CQU_141028: lambda v, q, n: v.t**n / _qp(q, n, v.beta**2),
    IdentityId.T5: _cqu_free(lambda v, q: (v.beta,), lambda v, q: (v.beta**2,)),
    IdentityId.SRC_CQU_141033: lambda v, q, n: (
        _qp(q, n, v.gamma) * v.t**n / _qp(q, n, v.beta**2)),
    IdentityId.T6: lambda v, q, n: (
        _qp(q, n, v.beta, v.gamma) * _free(q, n, v.alpha) * v.t**n
        / _qp(q, n, v.beta**2, q * v.alpha)),
    IdentityId.SRC_CQU_141031: lambda v, q, n: (
        _qp(q, n, v.beta * mp.sqrt(q), -v.beta * mp.sqrt(q)) * v.t**n
        / _qp(q, n, v.beta**2, -q * v.beta)),
    IdentityId.T7: _cqu_free(
        lambda v, q: (v.beta, v.beta * mp.sqrt(q), -v.beta * mp.sqrt(q)),
        lambda v, q: (v.beta**2, -q * v.beta)),
    IdentityId.SRC_CQU_141030: lambda v, q, n: (
        _qp(q, n, -v.beta, -v.beta * mp.sqrt(q)) * v.t**n
        / _qp(q, n, v.beta**2, v.beta * mp.sqrt(q))),
    IdentityId.T8: _cqu_free(lambda v, q: (v.beta, -v.beta, -v.beta * mp.sqrt(q)),
                             lambda v, q: (v.beta**2, v.beta * mp.sqrt(q))),
    IdentityId.SRC_CQU_141032: lambda v, q, n: (
        _qp(q, n, -v.beta, v.beta * mp.sqrt(q)) * v.t**n
        / _qp(q, n, v.beta**2, -v.beta * mp.sqrt(q))),
    IdentityId.T9: _cqu_free(lambda v, q: (v.beta, -v.beta, v.beta * mp.sqrt(q)),
                             lambda v, q: (v.beta**2, -v.beta * mp.sqrt(q))),
    IdentityId.SRC_LQL_142011: lambda v, q, n: (
        (-1)**n * q ** mp.binomial(n, 2) * v.t**n / _qp(q, n, q)),
    IdentityId.T11: lambda v, q, n: (
        q ** mp.binomial(n, 2) * (-v.t)**n * _qp(q, n, v.b * q)
        / _qp(q, n, q, v.a * q)),
    IdentityId.SRC_QL_142114: lambda v, q, n: v.t**n / _qp(q, n, _qa1(v, q)),
    IdentityId.T13: lambda v, q, n: (
        (q ** (v.alpha - v.beta) * v.t)**n / _qp(q, n, _qa1(v, q))),
    IdentityId.SRC_QL_142115: lambda v, q, n: (
        (-v.t)**n * q ** mp.binomial(n, 2) / _qp(q, n, _qa1(v, q))),
    IdentityId.T14: lambda v, q, n: (
        (-v.t * q ** (v.alpha - v.beta))**n * q ** mp.binomial(n, 2)
        / _qp(q, n, _qa1(v, q))),
    IdentityId.SRC_QL_142116: lambda v, q, n: (
        _qp(q, n, v.gamma) * v.t**n / _qp(q, n, _qa1(v, q))),
    IdentityId.T15: lambda v, q, n: (
        _qp(q, n, v.gamma) * (v.t * q ** (v.alpha - v.beta))**n
        / _qp(q, n, _qa1(v, q))),
}

COEF_QS = (0.5, 0.8, 0.95)
COEF_DEGREES = range(41)
# Worst measured relative error over these draws: 7.6e-15 (T15, q = 0.95,
# n = 40), 13 times below the tolerance.
COEF_TOL = 1e-13
# Coefficients below this modulus are not compared: their double values
# approach the subnormal range, where relative precision is lost.
COEF_FLOOR = 1e-280


@pytest.mark.parametrize("q", COEF_QS)
@pytest.mark.parametrize("tag", list(IdentityId), ids=lambda t: t.value)
def test_outer_coefficient_against_mpmath(tag, q):
    ctx = EvalContext(q=q)
    for draw in range(DRAWS):
        point = sample_point(tag, Random(f"coef:{tag.value}:{q}:{draw}"), q)
        with mp.workdps(40):
            v = SimpleNamespace(**{k: mp.mpc(val) for k, val in point})
            want = [complex(COEFFICIENTS[tag](v, mp.mpf(q), n)) for n in COEF_DEGREES]
        for n, w in zip(COEF_DEGREES, want):
            if abs(w) > COEF_FLOOR:
                got = outer_coefficient(tag, n, point, ctx)
                assert abs(got - w) <= COEF_TOL * abs(w), (point.canonical(), n, got, w)


# ---------------------------------------------------------------------------
# inner series of T4-T9
# ---------------------------------------------------------------------------


def _inner_sum(q, z, num, den, num2=(), den2=(), zeros=0):
    """sum_k (num; q)_k (num2; q)_(2k) / ((q, den; q)_k (den2; q)_(2k))
    ((-1)^k q^C(k,2))^(1+s-r) z^k, where r counts ``zeros`` zero numerators
    and each (a; q)_(2k) as four parameters (+-sqrt(a), +-sqrt(aq))."""
    e = 1 + len(den) + 4 * len(den2) - len(num) - zeros - 4 * len(num2)
    total, small = mp.zero, 0
    for k in range(5000):
        term = (_qp(q, k, *num) * _qp(q, 2 * k, *num2) * z**k
                * ((-1) ** k * q ** mp.binomial(k, 2)) ** e
                / (_qp(q, k, q, *den) * _qp(q, 2 * k, *den2)))
        total += term
        small = small + 1 if abs(term) <= mp.mpf(10) ** -35 * abs(total) else 0
        if small == 3:
            return total
    raise AssertionError("oracle series did not converge")


def _cqu_inner(v, q, n, c, z, num2=(), den2=(), zeros=0):
    """The series of T4-T9 as printed: (beta/c, beta q^n; q)_k (num2; q)_(2k)
    / ((q, c q^(n+1); q)_k (beta^2 q^n, den2; q)_(2k)) at z."""
    return _inner_sum(q, z, (v.beta / c, v.beta * q**n), (c * q ** (n + 1),),
                      num2, (v.beta**2 * q**n, *den2), zeros)


def _bh(v, q, n):
    """b = beta q^n and h = beta q^(n+1/2)."""
    return v.beta * q**n, v.beta * q ** (n + mp.mpf(1) / 2)


def _t7(v, q, n):
    b, h = _bh(v, q, n)
    return _cqu_inner(v, q, n, v.gamma, v.gamma * v.t**2, (h, -h), (-b * q,))


def _t8(v, q, n):
    b, h = _bh(v, q, n)
    return _cqu_inner(v, q, n, v.gamma, v.gamma * v.t**2, (-b, -h), (h,))


def _t9(v, q, n):
    b, h = _bh(v, q, n)
    return _cqu_inner(v, q, n, v.gamma, v.gamma * v.t**2, (-b, h), (-h,))


# Each inner series as printed, with its (a; q)_(2k) symbols.
INNER = {
    IdentityId.T4: lambda v, q, n: _cqu_inner(
        v, q, n, v.gamma, v.gamma * (v.beta * v.t) ** 2 * q ** (2 * n + 1)),
    IdentityId.T5: lambda v, q, n: _cqu_inner(v, q, n, v.gamma, v.gamma * v.t**2, zeros=4),
    IdentityId.T6: lambda v, q, n: _cqu_inner(
        v, q, n, v.alpha, v.alpha * v.t**2, (v.gamma * q**n,)),
    IdentityId.T7: _t7,
    IdentityId.T8: _t8,
    IdentityId.T9: _t9,
}

INNER_QS = (0.4, 0.65, 0.9)
INNER_DEGREES = (0, 1, 5, 17, 40)


@pytest.mark.parametrize("q", INNER_QS)
@pytest.mark.parametrize("tag", list(INNER), ids=lambda t: t.value)
def test_inner_series_against_mpmath(tag, q):
    ctx = EvalContext(q=q)
    point = sample_point(tag, Random(f"inner:{tag.value}:{q}"), q)
    with mp.workdps(40):
        v = SimpleNamespace(**{k: mp.mpc(val) for k, val in point})
        want = [complex(INNER[tag](v, mp.mpf(q), n)) for n in INNER_DEGREES]
    for n, w in zip(INNER_DEGREES, want):
        got = eval_phi(entry_for(tag).inner(n, point, ctx)).value
        assert abs(got - w) <= TOL * (1.0 + abs(w)), (point.canonical(), n, got, w)


# ---------------------------------------------------------------------------
# infinite products, kernels and weights at quadrature nodes
# ---------------------------------------------------------------------------

PINF_QS = (0.05, 0.5, 0.9, 0.95)
PINF_MODULI = (0.05, 0.25, 0.7, 1.0)
PINF_TOL = 1e-14


@pytest.mark.parametrize("q", PINF_QS)
def test_poch_infinite_against_mpmath(q):
    """Pinned points on the real axis (both signs; (1; q)_inf is exactly 0)
    and off it, relative to the value."""
    for mag in PINF_MODULI:
        for a in (mag, -mag, mag * cmath.exp(2.0j), mag * cmath.exp(-0.6j)):
            with mp.workdps(40):
                want = complex(mp.qp(mp.mpc(a), mp.mpf(q)))
            got = poch_infinite(a, q)
            assert abs(got - want) <= PINF_TOL * abs(want), (a, got, want)


# The nodes of the 8-panel trapezoid grid on (0, pi), and two nodes next to
# the ends.  On the half-line and the lattice the node is carried to the
# support's sampled range, x = 1 + cos(theta) in (0, 2) and
# x = (1 + cos(theta)) / 2 in (0, 1).
THETAS = (*(j * math.pi / 8 for j in range(1, 8)), 1e-3, math.pi - 1e-3)


def _node_x(family: FamilyId, theta: float) -> float:
    if family is FamilyId.Q_LAGUERRE:
        return 1.0 + math.cos(theta)
    if family is FamilyId.LITTLE_Q_LAGUERRE:
        return (1.0 + math.cos(theta)) / 2.0
    return math.cos(theta)


# The x-independent prefactor of each closed form, where it is not 1.
PREFACTORS = {
    IdentityId.SRC_LQL_142011: lambda v, q: mp.qp(v.t, q),
    IdentityId.SRC_QL_142114: lambda v, q: 1 / mp.qp(v.t, q),
    IdentityId.SRC_QL_142115: lambda v, q: mp.qp(v.t, q),
    IdentityId.SRC_QL_142116: lambda v, q: mp.qp(v.gamma * v.t, q) / mp.qp(v.t, q),
}

KERNEL_THEOREMS = sorted({IdentityId(row["theorem"]) for row in list_corollaries()},
                         key=lambda t: t.value)


# Kernels that miss the oracle as q -> 1, by their worst node's error
# relative to 1 + |value|: 2phi1-based kernels (T4, T5, T8) and the 3phi2 of
# T6 cancel there, until each node sums its least-cancelling form.
KERNEL_MISSES = {
    ("T4", 0.9): "miss 3.2e-12 (ROADMAP item 15)",
    ("T4", 0.95): "miss 1.4e-10 (ROADMAP item 15)",
    ("T5", 0.95): "miss 5.7e-12 (ROADMAP item 15)",
    ("T6", 0.95): "miss 3.1e-8 (ROADMAP item 15)",
    ("T8", 0.95): "miss 5.2e-10 (ROADMAP item 15)",
}


def _kernel_cases():
    for tag in KERNEL_THEOREMS:
        for q in (*QS, 0.9, 0.95):
            why = KERNEL_MISSES.get((tag.value, q))
            marks = () if why is None else pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=why)
            yield pytest.param(tag, q, marks=marks, id=f"{tag.value}-{q}")


@pytest.mark.parametrize("tag, q", _kernel_cases())
def test_integrand_kernel_at_nodes_against_mpmath(tag, q):
    """Each corollary's kernel, as a functional evaluates it node by node,
    against the closed form divided by its prefactor."""
    point = sample_point(tag, Random(f"kernel:{tag.value}:{q}"), q)
    source = entry_for(tag).source or tag
    ctx = EvalContext(q=q)
    for theta in THETAS:
        x = _node_x(entry_for(tag).family, theta)
        pt = point.replace(x=x)
        with mp.workdps(40):
            v = SimpleNamespace(**{k: mp.mpc(val) for k, val in pt})
            pref = PREFACTORS.get(source, lambda v, q: 1)(v, mp.mpf(q))
            want = complex(_oracle(tag, pt, q) / pref)
        got = lhs_integrand_factor(tag, x, pt, ctx)
        assert abs(got - want) <= TOL * (1.0 + abs(want)), (pt.canonical(), got, want)


WEIGHT_TOL = 1e-12


def _signed(rng: Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


@pytest.mark.parametrize("q", QS)
def test_weights_at_nodes_against_mpmath(q):
    """The three continuous weights at the same nodes, relative to their
    value, against their products written with mpmath's qp."""
    rng = Random(f"weights:{q}")
    base = QBase(q)
    aw = AWParams(*(_signed(rng, 0.08, 0.6) for _ in range(4)), base)
    ultra = UltraParams(_signed(rng, 0.1, 0.8), base)
    qlag = QLagParams(rng.uniform(-0.75, 2.5), base)
    for theta in THETAS:
        x = math.cos(theta)
        with mp.workdps(40):
            mq = mp.mpf(q)
            e = mp.expj(mp.acos(x))
            den = mp.fprod(mp.qp(p * e, mq) for p in aw.as_tuple())
            want_aw = abs(mp.qp(e**2, mq) / den) ** 2
            want_ultra = abs(mp.qp(e**2, mq) / mp.qp(ultra.beta * e**2, mq)) ** 2
            xl = mp.mpf(1.0 + x)
            want_qlag = xl**qlag.alpha / mp.qp(-xl, mq)
        for got, want in ((aw_weight(x, aw), want_aw),
                          (ultra_weight(x, ultra), want_ultra),
                          (qlag_weight(1.0 + x, qlag), want_qlag)):
            assert abs(got - float(want)) <= WEIGHT_TOL * float(want), (theta, got, want)
