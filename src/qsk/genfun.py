"""Catalog of generating-function identities and their numeric verification.

Two kinds of entries share one report format:

* sources (tags SRC_*): classical generating functions of the form
  closed form = sum_n coef_n(t) p_n(x), indexed by their equation numbers
  in the Koekoek/Lesky/Swarttouw reference catalog;
* generalized identities (tags T2..T15): the same closed forms re-expanded
  over the family with one parameter replaced, whose coefficients pick up
  an extra r_phi_s factor.  Each names its source and takes the source's
  kernel, prefactor and family.

Each closed form is stored split as prefactor(point) * kernel(x, point):
the kernel holds every x-dependent factor and is what an orthogonality
corollary integrates against p_n, the x-independent prefactor (None where
there is none) moves to the corollary's closed-form side.  A kernel is
stored as a factory: given the point, it builds the series and product
plans of its factors once and returns x -> kernel(x, point), so the nodes
of a functional do only the arithmetic that depends on x.

Every outer coefficient is one q-hypergeometric term, stored as the record
(z, num, den, k, num2, den2) of the point:

    coef_n = z^n q^(k C(n,2)) (num; q)_n (num2; q^2)_n / ((den; q)_n (den2; q^2)_n)

with k in {0, 1} and num2, den2 empty except for T2, whose (w; q)_(2n)
factors are the base-q^2 pairs (w, wq).  ``_coef``, its one evaluator,
leaves out q^(k C(n,2)), which the series side of every family carries as
an exponent next to the cursor's (mantissa, q-exponent) form of p_n(x).
The inner series of T4-T9 write their (a; q)_(2k) factors the same way,
as base-q^2 parameters of the ``SeriesSpec``.

``verify_identity`` evaluates the closed-form side once, assembles the
series side with outer truncation escalated 16, 32, 64, ... (starting
lower when the outer cap is below 16) until two successive truncations
agree to 1e-9 relative to 1 + |sum|, and reports the residual.
A point is in an identity's domain when its values are finite, x is on
the family's support (``Family.x_range``), the family records of the
source's and the identity's parameters construct (Askey-Wilson ones
orthogonal) and |t| is below the ``DomainPredicate`` bound.  Points outside
are still evaluated but flagged; a non-finite value is refused.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from random import Random
from typing import Callable, NamedTuple, Optional

from .bhs import SeriesPlan, SeriesSpec, eval_phi
from .context import ParamPoint
from .errors import PreconditionViolation
from .polyfam import FAMILIES, FamilyId, _theta
from .qpoch import ProductPlan, QBase, poch_all, poch_infinite, unscale

# Two outer truncations agreeing to this, relative to 1 + |sum|, settle
# the series side; escalation starts at _OUTER_START terms and doubles
# while the order stays at most OUTER_CAP.
_TOL = 1e-9
_OUTER_START = 16
OUTER_CAP = 2048

# Terms this small relative to the partial sum, six in a row, end the
# outer accumulation early: everything past them is numerically zero.
_EXHAUSTED_TOL = 1e-17
_EXHAUSTED_STREAK = 6


class IdentityId(str, Enum):
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"
    T6 = "T6"
    T7 = "T7"
    T8 = "T8"
    T9 = "T9"
    T11 = "T11"
    T13 = "T13"
    T14 = "T14"
    T15 = "T15"
    SRC_AW_14113 = "SRC_AW_14113"
    SRC_CQU_141027 = "SRC_CQU_141027"
    SRC_CQU_141028 = "SRC_CQU_141028"
    SRC_CQU_141029 = "SRC_CQU_141029"
    SRC_CQU_141030 = "SRC_CQU_141030"
    SRC_CQU_141031 = "SRC_CQU_141031"
    SRC_CQU_141032 = "SRC_CQU_141032"
    SRC_CQU_141033 = "SRC_CQU_141033"
    SRC_LQL_142011 = "SRC_LQL_142011"
    SRC_QL_142114 = "SRC_QL_142114"
    SRC_QL_142115 = "SRC_QL_142115"
    SRC_QL_142116 = "SRC_QL_142116"


GENERALIZED: tuple[IdentityId, ...] = tuple(
    t for t in IdentityId if not t.value.startswith("SRC")
)
SOURCES: tuple[IdentityId, ...] = tuple(
    t for t in IdentityId if t.value.startswith("SRC")
)


@dataclass(frozen=True)
class DomainPredicate:
    """The bound on |t| of one identity, taken verbatim from its
    hypotheses, and the text of its whole domain.  The parameter ranges
    and the support of x are those of the family records; see
    ``_Entry.contains``."""

    t_bound: Callable[[ParamPoint, float], float]
    describe: str


@dataclass(frozen=True)
class IdentityReport:
    id: str
    q: float
    point: ParamPoint
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    n_terms_outer: int
    n_terms_inner: int
    in_domain: bool

    @classmethod
    def of(cls, id: str, q: float, point: ParamPoint, lhs: complex, rhs: complex,
           n_terms_outer: int, n_terms_inner: int, in_domain: bool) -> "IdentityReport":
        """The report comparing ``lhs`` with ``rhs``; the relative residual
        is taken against 1 + the larger of the two moduli."""
        abs_res = abs(lhs - rhs)
        return cls(id, q, point, lhs, rhs, abs_res,
                   abs_res / (1.0 + max(abs(lhs), abs(rhs))),
                   n_terms_outer, n_terms_inner, in_domain)


class Coef(NamedTuple):
    """An outer coefficient record; the base-q^2 parameters default to none."""

    z: complex
    num: tuple[complex, ...]
    den: tuple[complex, ...]
    k: int
    num2: tuple[complex, ...] = ()
    den2: tuple[complex, ...] = ()


def _coef(c: Coef, q: float, n: int) -> complex:
    """The degree-n value z^n (num; q)_n (num2; q^2)_n / ((den; q)_n
    (den2; q^2)_n) of the coefficient record c, without its q^(k C(n,2))
    factor: the outer sum carries that power as an exponent."""
    z, num, den, _, num2, den2 = c
    value = z**n * poch_all(num, q, n) / poch_all(den, q, n)
    if num2 or den2:
        value *= poch_all(num2, q * q, n) / poch_all(den2, q * q, n)
    return value


def _record(names: str,
            build: Callable[..., tuple]) -> Callable[[ParamPoint, QBase], Coef]:
    """An entry's coefficient record: ``build`` takes the point values
    named in ``names``, then q, and returns the fields of a ``Coef``."""
    return lambda pt, ctx: Coef(*build(*(pt.get(nm) for nm in names.split()), ctx.q))


def _finite(pt: ParamPoint) -> bool:
    return all(cmath.isfinite(v) for _, v in pt)


@dataclass(frozen=True)
class _Entry:
    tag: IdentityId
    source: Optional[IdentityId]
    domain: DomainPredicate
    # The kernel factory: (point, ctx) -> (x -> kernel(x, point)), which
    # builds the plans of the kernel's series and products once.
    kernel: Callable[[ParamPoint, QBase], Callable[[float], complex]]
    # The outer coefficient's record at the point; see Coef and _coef.
    coef: Callable[[ParamPoint, QBase], Coef]
    inner: Optional[Callable[[int, ParamPoint, QBase], SeriesSpec]]
    family: FamilyId  # the series side expands over this family ...
    names: tuple[str, ...]  # ... with the parameters of these point names
    # (rng, q, t_bound) -> a point inside the domain whose |t| bound is given
    sample: Callable[[Random, float, Callable[[ParamPoint, float], float]], ParamPoint]
    describe: str
    # The x-independent factor of the closed form, None when it is 1.
    pref: Optional[Callable[[ParamPoint, QBase], complex]]
    # The point names of each family record the domain requires: the
    # source's parameters, then (for a generalized entry) its own.
    domain_names: tuple[tuple[str, ...], ...]

    def lhs(self, pt: ParamPoint, ctx: QBase) -> complex:
        """The closed form at the point: prefactor times kernel at its x."""
        if not _finite(pt):
            raise PreconditionViolation(f"point values must be finite: {pt.canonical()}")
        value = self.kernel(pt, ctx)(pt.real("x"))
        return value if self.pref is None else self.pref(pt, ctx) * value

    def family_params(self, pt: ParamPoint, ctx: QBase):
        """The parameter record of the expansion family at this point; a
        refusal names the point's parameter."""
        return FAMILIES[self.family].params(*(pt.get(nm) for nm in self.names), ctx,
                                            self.names)

    def contains(self, pt: ParamPoint, ctx: QBase) -> bool:
        """Whether the point lies in the identity's domain: every value is
        finite, x is on the family's support, the family records of
        ``domain_names`` construct (Askey-Wilson ones are orthogonal, too) and
        |t| is below the domain's bound."""
        fam = FAMILIES[self.family]
        lo, hi = fam.x_range
        if not (_finite(pt) and lo <= pt.real("x") <= hi):
            return False
        for names in self.domain_names:
            try:
                rec = fam.params(*(pt.get(nm) for nm in names), ctx)
            except PreconditionViolation:
                return False
            if self.family is FamilyId.ASKEY_WILSON and not rec.orthogonal():
                return False
        return abs(pt.get("t")) < self.domain.t_bound(pt, ctx.q)


def _expi(x: float) -> complex:
    """e^(i theta) for x = cos(theta), theta in [0, pi]."""
    return cmath.exp(1j * _theta(x))


def _at_e(f: Callable[[complex], complex]) -> Callable[[float], complex]:
    """The kernel x -> f(e) of an interval family, e = e^(i theta), x = cos(theta)."""
    return lambda x: f(_expi(x))


def _phi_pair(t: complex, num1, den1, num2, den2, ctx: QBase):
    """The kernel 2phi1(num1 e; den1; q, t/e) 2phi1(num2 / e; den2; q, t e)."""
    f1, f2 = SeriesPlan((), den1, ctx, num1), SeriesPlan((), den2, ctx, num2)
    return _at_e(lambda e: f1(t / e, e).value * f2(t * e, 1.0 / e).value)


def _pairs(q: float, *ws: complex) -> tuple[complex, ...]:
    """w and wq for each w: (w; q)_(2n) = (w, wq; q^2)_n."""
    return tuple(p for w in ws for p in (w, w * q))


def _tpick(rng: Random, bound: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.9) * bound


def _complex_gamma(rng: Random) -> complex:
    """Modulus in [0.1, 0.8], then any phase."""
    mag = rng.uniform(0.1, 0.8)
    return mag * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _xcos(rng: Random) -> float:
    return math.cos(rng.uniform(0.15, math.pi - 0.15))


def _signed(rng: Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# Askey-Wilson block
# ---------------------------------------------------------------------------


def _kernel_aw(pt: ParamPoint, ctx: QBase):
    a, b, c, d, t = (pt.get(n) for n in "abcdt")
    return _phi_pair(t, (a, b), (a * b,), (c, d), (c * d,), ctx)


def _inner_t2(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    q = ctx.q
    a, b, c, d, al, t = (pt.get(nm) for nm in ("a", "b", "c", "d", "alpha", "t"))
    abcd = a * b * c * d
    qn = q**n
    return SeriesSpec(
        (a / al, b * c * qn, b * d * qn, abcd * q ** (2 * n - 1)),
        (a * b * qn, abcd * q ** (n - 1), al * b * c * d * q ** (2 * n)),
        al * t,
        ctx,
    )


def _sample_aw(rng: Random, q: float, t_bound, with_alpha: bool = False) -> ParamPoint:
    vals = {nm: _signed(rng, 0.08, 0.6) for nm in "abcd"}
    if with_alpha:
        vals["alpha"] = _signed(rng, 0.08, 0.6)
    pt = ParamPoint.of(**vals)  # t is drawn before x
    return pt.replace(t=_tpick(rng, t_bound(pt, q)), x=_xcos(rng))


# ---------------------------------------------------------------------------
# continuous q-ultraspherical block
# ---------------------------------------------------------------------------


def _kernel_t3(pt: ParamPoint, ctx: QBase):
    # (t beta e, t beta / e; q)_inf / (t e, t / e; q)_inf
    t, beta = pt.get("t"), pt.get("beta")
    tb, tt = ProductPlan(t * beta, ctx), ProductPlan(t, ctx)
    return _at_e(lambda e: tb(e) * tb(1.0 / e) / (tt(e) * tt(1.0 / e)))


def _inner_t3(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    q = ctx.q
    beta, gamma, t = pt.get("beta"), pt.get("gamma"), pt.get("t")
    return SeriesSpec(
        (beta / gamma, beta * q**n), (gamma * q ** (n + 1),), gamma * t * t, ctx
    )


def _kernel_29(pt: ParamPoint, ctx: QBase):
    # (t/e; q)_inf * 2phi1(beta, beta e^2; beta^2; q, t/e)
    t, beta = pt.get("t"), pt.get("beta")
    tt, phi = ProductPlan(t, ctx), SeriesPlan((beta,), (beta * beta,), ctx, (beta,))
    return _at_e(lambda e: tt(1.0 / e) * phi(t / e, e * e).value)


def _inner_cqu(n: int, beta: complex, c: complex, z: complex, ctx: QBase,
               num2=lambda b, h: (), den2=lambda b, h: (), zeros: int = 0) -> SeriesSpec:
    """The inner series of T4-T9 at argument z:

        (beta/c, b, 0 x zeros; q)_k (num2(b, h); q)_(2k)
          / ((q, c q^(n+1); q)_k (beta b, den2(b, h); q)_(2k)),

    with b = beta q^n and h = beta q^(n+1/2), each (a; q)_(2k) given as
    the base-q^2 pair (a, aq)."""
    q = ctx.q
    b = beta * q**n
    h = b * math.sqrt(q)
    return SeriesSpec((beta / c, b) + (0.0,) * zeros, (c * q ** (n + 1),), z, ctx,
                      _pairs(q, *num2(b, h)), _pairs(q, beta * b, *den2(b, h)))


def _inner_t4(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    beta, gamma, t = pt.get("beta"), pt.get("gamma"), pt.get("t")
    return _inner_cqu(n, beta, gamma, gamma * (beta * t) ** 2 * ctx.q ** (2 * n + 1), ctx)


def _kernel_28(pt: ParamPoint, ctx: QBase):
    # 2phi1(beta, beta e^2; beta^2; q, t/e) / (t e; q)_inf
    t, beta = pt.get("t"), pt.get("beta")
    tt, phi = ProductPlan(t, ctx), SeriesPlan((beta,), (beta * beta,), ctx, (beta,))
    return _at_e(lambda e: phi(t / e, e * e).value / tt(e))


def _inner_t5(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    beta, gamma, t = pt.get("beta"), pt.get("gamma"), pt.get("t")
    return _inner_cqu(n, beta, gamma, gamma * t * t, ctx, zeros=4)


def _kernel_33(pt: ParamPoint, ctx: QBase):
    # (gamma t e; q)_inf / (t e; q)_inf * 3phi2(gamma, beta, beta e^2;
    #                                           beta^2, gamma t e; q, t/e)
    t, beta, gamma = pt.get("t"), pt.get("beta"), pt.get("gamma")
    gt, tt = ProductPlan(gamma * t, ctx), ProductPlan(t, ctx)
    phi = SeriesPlan((gamma, beta), (beta * beta,), ctx, (beta,), (gamma * t,))
    return _at_e(lambda e: gt(e) / tt(e) * phi(t / e, e * e, e).value)


def _inner_t6(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    beta, gamma, al, t = (pt.get(nm) for nm in ("beta", "gamma", "alpha", "t"))
    return _inner_cqu(n, beta, al, al * t * t, ctx, lambda b, h: (gamma * ctx.q**n,))


def _kernel_31(pt: ParamPoint, ctx: QBase):
    t, beta = pt.get("t"), pt.get("beta")
    r = cmath.sqrt(beta)
    rq = r * math.sqrt(ctx.q)
    return _phi_pair(t, (r, -r), (-beta,), (rq, -rq), (-ctx.q * beta,), ctx)


def _inner_t7(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    beta, gamma, t = pt.get("beta"), pt.get("gamma"), pt.get("t")
    return _inner_cqu(n, beta, gamma, gamma * t * t, ctx,
                      lambda b, h: (h, -h), lambda b, h: (-b * ctx.q,))


def _kernel_30(pt: ParamPoint, ctx: QBase):
    t, beta = pt.get("t"), pt.get("beta")
    r = cmath.sqrt(beta)
    rq = r * math.sqrt(ctx.q)
    brq = beta * math.sqrt(ctx.q)
    return _phi_pair(t, (r, rq), (brq,), (-r, -rq), (brq,), ctx)


def _inner_t8(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    beta, gamma, t = pt.get("beta"), pt.get("gamma"), pt.get("t")
    return _inner_cqu(n, beta, gamma, gamma * t * t, ctx,
                      lambda b, h: (-b, -h), lambda b, h: (h,))


def _kernel_32(pt: ParamPoint, ctx: QBase):
    t, beta = pt.get("t"), pt.get("beta")
    r = cmath.sqrt(beta)
    rq = r * math.sqrt(ctx.q)
    brq = beta * math.sqrt(ctx.q)
    return _phi_pair(t, (r, -rq), (-brq,), (rq, -r), (-brq,), ctx)


def _inner_t9(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    beta, gamma, t = pt.get("beta"), pt.get("gamma"), pt.get("t")
    return _inner_cqu(n, beta, gamma, gamma * t * t, ctx,
                      lambda b, h: (-b, h), lambda b, h: (-h,))


def _sample_cqu(rng: Random, q: float, t_bound, names=("beta", "gamma"),
                complex_gamma: bool = False) -> ParamPoint:
    vals: dict[str, complex] = {}
    for nm in names:
        vals[nm] = _signed(rng, 0.1, 0.8)
    if complex_gamma:
        vals["gamma"] = _complex_gamma(rng)
    pt = ParamPoint.of(x=_xcos(rng), t=0.0, **vals)
    return pt.replace(t=_tpick(rng, t_bound(pt, q)))


# ---------------------------------------------------------------------------
# little q-Laguerre block
# ---------------------------------------------------------------------------


def _kernel_lql(pt: ParamPoint, ctx: QBase):
    # 0phi1(-; aq; q, aqxt) / (xt; q)_inf, times the prefactor (t; q)_inf
    t, aq = pt.get("t"), pt.get("a") * ctx.q
    phi, tt = SeriesPlan((), (aq,), ctx), ProductPlan(t, ctx)
    return lambda x: phi(aq * x * t).value / tt(x)


def _pinf_t(pt: ParamPoint, ctx: QBase) -> complex:
    return poch_infinite(pt.get("t"), ctx)


def _inner_t11(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    q = ctx.q
    a, b, t = pt.get("a"), pt.get("b"), pt.get("t")
    return SeriesSpec((a / b,), (a * q ** (n + 1),), b * q ** (n + 1) * t, ctx)


def _sample_lql(rng: Random, q: float, t_bound, with_b: bool = False) -> ParamPoint:
    a = rng.uniform(0.1, 0.9 / q)
    vals = {"a": a}
    if with_b:
        vals["b"] = rng.uniform(0.1, 0.9 / q)
    pt = ParamPoint.of(x=rng.uniform(0.05, 1.0), t=0.0, **vals)
    return pt.replace(t=_tpick(rng, t_bound(pt, q)))


# ---------------------------------------------------------------------------
# q-Laguerre block
# ---------------------------------------------------------------------------


# The three q-Laguerre kernels are phi(num; q^(alpha+1), den; q, -x t q^(alpha+1))
# with no parameter depending on x, and with the prefactors 1/(t; q)_inf,
# (t; q)_inf and (gamma t; q)_inf / (t; q)_inf.
def _kernel_ql14(pt: ParamPoint, ctx: QBase, num=(), den=()):
    t, qa1 = pt.get("t"), ctx.q ** (pt.real("alpha") + 1.0)
    phi = SeriesPlan(num, (qa1, *den), ctx)
    return lambda x: phi(-x * t * qa1).value


def _kernel_ql15(pt: ParamPoint, ctx: QBase):
    return _kernel_ql14(pt, ctx, den=(pt.get("t"),))


def _kernel_ql16(pt: ParamPoint, ctx: QBase):
    return _kernel_ql14(pt, ctx, (pt.get("gamma"),), (pt.get("gamma") * pt.get("t"),))


def _pref_ql14(pt: ParamPoint, ctx: QBase) -> complex:
    return 1.0 / _pinf_t(pt, ctx)


def _pref_ql16(pt: ParamPoint, ctx: QBase) -> complex:
    return poch_infinite(pt.get("gamma") * pt.get("t"), ctx) / _pinf_t(pt, ctx)


def _inner_t13(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    q = ctx.q
    al, be, t = pt.real("alpha"), pt.real("beta"), pt.get("t")
    return SeriesSpec(
        (q ** (al - be), 0.0), (q ** (al + n + 1.0),), t, ctx
    )


def _inner_t14(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    q = ctx.q
    al, be, t = pt.real("alpha"), pt.real("beta"), pt.get("t")
    return SeriesSpec((q ** (al - be),), (q ** (al + n + 1.0),), t * q**n, ctx)


def _inner_t15(n: int, pt: ParamPoint, ctx: QBase) -> SeriesSpec:
    q = ctx.q
    al, be, t, gamma = pt.real("alpha"), pt.real("beta"), pt.get("t"), pt.get("gamma")
    return SeriesSpec(
        (q ** (al - be), gamma * q**n), (q ** (al + n + 1.0),), t, ctx
    )


def _sample_ql(rng: Random, q: float, t_bound, with_beta: bool = False,
               complex_gamma: bool = False) -> ParamPoint:
    vals: dict[str, complex] = {"alpha": rng.uniform(-0.75, 2.5)}
    if with_beta:
        vals["beta"] = rng.uniform(-0.75, 2.5)
    if complex_gamma:
        vals["gamma"] = _complex_gamma(rng)
    pt = ParamPoint.of(x=rng.uniform(0.05, 2.0), t=0.0, **vals)
    bound = t_bound(pt, q)
    if with_beta:
        # The re-expanded series carries the coefficient q^(n(alpha-beta))
        # on its top entry, so it only converges for |t| < q^(beta-alpha)
        # when beta > alpha; the theorem's stated bound overlooks this.
        # Sample strictly inside the provable region.
        gap = pt.real("beta") - pt.real("alpha")
        if gap > 0.0:
            bound = min(bound, q**gap)
    return pt.replace(t=_tpick(rng, bound))


# ---------------------------------------------------------------------------
# catalog assembly
# ---------------------------------------------------------------------------


def _tb_one(pt: ParamPoint, q: float) -> float:
    return 1.0


def _tb_t2(pt: ParamPoint, q: float) -> float:
    return (1.0 - q) ** 3


def _tb_t4(pt: ParamPoint, q: float) -> float:
    return 1.0 - pt.real("beta") ** 2


def _tb_t7(pt: ParamPoint, q: float) -> float:
    b = abs(pt.get("beta"))
    g = abs(pt.get("gamma"))
    return min((1.0 - b * b) * (1.0 + math.sqrt(q) * b) * (1.0 - q * g), 1.0)


def _tb_t9(pt: ParamPoint, q: float) -> float:
    b = abs(pt.get("beta"))
    return min((1.0 - b * b) * (1.0 + math.sqrt(q) * b), 1.0)


def _tb_t11(pt: ParamPoint, q: float) -> float:
    a = pt.real("a")
    return min((1.0 - q) * (1.0 - a * q) / a, 1.0)


def _tb_t13(pt: ParamPoint, q: float) -> float:
    return (1.0 - q ** (pt.real("alpha") + 1.0)) * (1.0 - q)


def _tb_t15(pt: ParamPoint, q: float) -> float:
    return 1.0 - q


_CATALOG: dict[IdentityId, _Entry] = {}


def _source(tag: IdentityId, domain: DomainPredicate, kernel, coef, family: FamilyId,
            names: tuple[str, ...], sample, describe: str, pref=None) -> None:
    _CATALOG[tag] = _Entry(tag, None, domain, kernel, coef, None, family, names,
                           sample, describe, pref, (names,))


def _generalized(tag: IdentityId, source: IdentityId, domain: DomainPredicate, coef,
                 inner, names: tuple[str, ...], sample, describe: str) -> None:
    """A re-expansion of ``source``'s closed form: its kernel, prefactor and
    family, over the family parameters of the point names ``names``."""
    src = _CATALOG[source]
    _CATALOG[tag] = _Entry(tag, source, domain, src.kernel, coef, inner, src.family,
                           names, sample, describe, src.pref, (src.names, names))


I = IdentityId
F = FamilyId

_source(
    I.SRC_AW_14113,
    DomainPredicate(_tb_one, "|t| < 1, max(|a|,|b|,|c|,|d|) < 1, x in [-1,1]"),
    _kernel_aw,
    _record("a b c d t", lambda a, b, c, d, t, q: (t, (), (q, a * b, c * d), 0)),
    F.ASKEY_WILSON, ("a", "b", "c", "d"), _sample_aw,
    "product of two 2phi1 factors = sum t^n p_n(x;a,b,c,d) / (q,ab,cd;q)_n",
)
_generalized(
    I.T2, I.SRC_AW_14113,
    DomainPredicate(_tb_t2, "|t| < (1-q)^3, max moduli < 1 including the free parameter"),
    _record("a b c d alpha t", lambda a, b, c, d, al, t, q: (
        t, (al * b * c * d / q,), (q, a * b, c * d, a * b * c * d / q), 0,
        _pairs(q, a * b * c * d / q), _pairs(q, al * b * c * d / q))),
    _inner_t2, ("alpha", "b", "c", "d"), partial(_sample_aw, with_alpha=True),
    "re-expansion of the two-factor 2phi1 product over p_n(x;alpha,b,c,d)",
)

# The five plain sources share their hypotheses, and so do T4/T5 and T7/T8.
_CQU_SOURCE = DomainPredicate(_tb_one, "|t| < 1, beta in (-1,1)\\{0}")
_CQU_T4 = DomainPredicate(_tb_t4, "|t| < 1 - beta^2, beta, gamma in (-1,1)\\{0}")
_CQU_T7 = DomainPredicate(_tb_t7, "|t| < min{(1-b^2)(1+sqrt(q)|b|)(1-q|g|), 1}")
_sample_cqu_source = partial(_sample_cqu, names=("beta",))

_source(
    I.SRC_CQU_141027, _CQU_SOURCE, _kernel_t3, _record("t", lambda t, q: (t, (), (), 0)),
    F.CONT_Q_ULTRA, ("beta",), _sample_cqu_source,
    "(t beta e, t beta/e; q)_inf / (t e, t/e; q)_inf = sum C_n(x;beta) t^n",
)
_generalized(
    I.T3, I.SRC_CQU_141027,
    DomainPredicate(_tb_one, "|t| < 1, beta, gamma in (-1,1)\\{0}"),
    _record("beta gamma t", lambda b, g, t, q: (t, (b,), (g,), 0)),
    _inner_t3, ("gamma",), _sample_cqu,
    "re-expansion of the Pochhammer-quotient generating function",
)
_source(
    I.SRC_CQU_141029, _CQU_SOURCE, _kernel_29,
    _record("beta t", lambda b, t, q: (-b * t, (), (b * b,), 1)),
    F.CONT_Q_ULTRA, ("beta",), _sample_cqu_source,
    "(t/e; q)_inf 2phi1(beta, beta e^2; beta^2; q, t/e) expansion",
)
_generalized(
    I.T4, I.SRC_CQU_141029, _CQU_T4,
    _record("beta gamma t", lambda b, g, t, q: (-b * t, (b,), (b * b, g), 1)),
    _inner_t4, ("gamma",), _sample_cqu,
    "re-expansion with a 2phi5 coefficient factor",
)
_source(
    I.SRC_CQU_141028, _CQU_SOURCE, _kernel_28,
    _record("beta t", lambda b, t, q: (t, (), (b * b,), 0)),
    F.CONT_Q_ULTRA, ("beta",), _sample_cqu_source,
    "2phi1(beta, beta e^2; beta^2; q, t/e) / (t e; q)_inf expansion",
)
_generalized(
    I.T5, I.SRC_CQU_141028, _CQU_T4,
    _record("beta gamma t", lambda b, g, t, q: (t, (b,), (b * b, g), 0)),
    _inner_t5, ("gamma",), _sample_cqu,
    "re-expansion with a 6phi5 coefficient factor",
)
_source(
    I.SRC_CQU_141033,
    DomainPredicate(_tb_one, "|t| < 1, beta in (-1,1)\\{0}, gamma complex"),
    _kernel_33, _record("beta gamma t", lambda b, g, t, q: (t, (g,), (b * b,), 0)),
    F.CONT_Q_ULTRA, ("beta",), partial(_sample_cqu, names=("beta",), complex_gamma=True),
    "(gamma t e; q)_inf / (t e; q)_inf 3phi2 expansion",
)
_generalized(
    I.T6, I.SRC_CQU_141033,
    DomainPredicate(_tb_t4, "|t| < 1 - beta^2, alpha, beta in (-1,1)\\{0}, gamma complex"),
    _record("beta gamma alpha t", lambda b, g, al, t, q: (t, (b, g), (b * b, al), 0)),
    _inner_t6, ("alpha",), partial(_sample_cqu, names=("beta", "alpha"), complex_gamma=True),
    "re-expansion with a 6phi5 coefficient factor, complex gamma allowed",
)
_source(
    I.SRC_CQU_141031, _CQU_SOURCE, _kernel_31,
    _record("beta t", lambda b, t, q: (
        t, (b * math.sqrt(q), -b * math.sqrt(q)), (b * b, -q * b), 0)),
    F.CONT_Q_ULTRA, ("beta",), _sample_cqu_source,
    "square-root-parameter 2phi1 pair expansion (denominator -beta)",
)
_generalized(
    I.T7, I.SRC_CQU_141031, _CQU_T7,
    _record("beta gamma t", lambda b, g, t, q: (
        t, (b, b * math.sqrt(q), -b * math.sqrt(q)), (b * b, -q * b, g), 0)),
    _inner_t7, ("gamma",), _sample_cqu,
    "re-expansion with a 10phi9 coefficient factor",
)
_source(
    I.SRC_CQU_141030, _CQU_SOURCE, _kernel_30,
    _record("beta t", lambda b, t, q: (
        t, (-b, -b * math.sqrt(q)), (b * b, b * math.sqrt(q)), 0)),
    F.CONT_Q_ULTRA, ("beta",), _sample_cqu_source,
    "square-root-parameter 2phi1 pair expansion (denominator beta q^(1/2))",
)
_generalized(
    I.T8, I.SRC_CQU_141030, _CQU_T7,
    _record("beta gamma t", lambda b, g, t, q: (
        t, (b, -b, -b * math.sqrt(q)), (b * b, b * math.sqrt(q), g), 0)),
    _inner_t8, ("gamma",), _sample_cqu,
    "re-expansion with a 10phi9 coefficient factor",
)
_source(
    I.SRC_CQU_141032, _CQU_SOURCE, _kernel_32,
    _record("beta t", lambda b, t, q: (
        t, (-b, b * math.sqrt(q)), (b * b, -b * math.sqrt(q)), 0)),
    F.CONT_Q_ULTRA, ("beta",), _sample_cqu_source,
    "square-root-parameter 2phi1 pair expansion (denominator -beta q^(1/2))",
)
_generalized(
    I.T9, I.SRC_CQU_141032,
    DomainPredicate(_tb_t9, "|t| < min{(1-b^2)(1+sqrt(q)|b|), 1}"),
    _record("beta gamma t", lambda b, g, t, q: (
        t, (b, -b, b * math.sqrt(q)), (b * b, -b * math.sqrt(q), g), 0)),
    _inner_t9, ("gamma",), _sample_cqu,
    "re-expansion with a 10phi9 coefficient factor",
)

_source(
    I.SRC_LQL_142011,
    DomainPredicate(_tb_t11, "|t| < min{(1-q)(1-aq)/a, 1}, 0 < aq < 1"),
    _kernel_lql, _record("t", lambda t, q: (-t, (), (q,), 1)),
    F.LITTLE_Q_LAGUERRE, ("a",), _sample_lql,
    "(t;q)_inf/(xt;q)_inf 0phi1 = sum (-1)^n q^C(n,2) p_n(x;a) t^n / (q;q)_n",
    pref=_pinf_t,
)
_generalized(
    I.T11, I.SRC_LQL_142011,
    DomainPredicate(_tb_t11, "|t| < min{(1-q)(1-aq)/a, 1}, a, b in (0, 1/q)"),
    _record("a b t", lambda a, b, t, q: (-t, (b * q,), (q, a * q), 1)),
    _inner_t11, ("b",), partial(_sample_lql, with_b=True),
    "re-expansion with a 1phi1 coefficient factor",
)

# SRC_QL_142114 and 142115 share their hypotheses, and so do T13 and T14.
_QL_SOURCE = DomainPredicate(_tb_t13, "|t| < (1-q^(alpha+1))(1-q), alpha > -1")
_QL_T13 = DomainPredicate(_tb_t13, "|t| < (1-q^(alpha+1))(1-q), alpha, beta > -1")
_sample_ql_beta = partial(_sample_ql, with_beta=True)

_source(
    I.SRC_QL_142114, _QL_SOURCE, _kernel_ql14,
    _record("alpha t", lambda al, t, q: (t, (), (q ** (al.real + 1.0),), 0)),
    F.Q_LAGUERRE, ("alpha",), _sample_ql,
    "0phi1 / (t;q)_inf = sum L_n^(alpha)(x) t^n / (q^(alpha+1);q)_n",
    pref=_pref_ql14,
)
_generalized(
    I.T13, I.SRC_QL_142114, _QL_T13,
    _record("alpha beta t", lambda al, be, t, q: (
        q ** (al.real - be.real) * t, (), (q ** (al.real + 1.0),), 0)),
    _inner_t13, ("beta",), _sample_ql_beta,
    "re-expansion with a 2phi1 coefficient factor",
)
_source(
    I.SRC_QL_142115, _QL_SOURCE, _kernel_ql15,
    _record("alpha t", lambda al, t, q: (-t, (), (q ** (al.real + 1.0),), 1)),
    F.Q_LAGUERRE, ("alpha",), _sample_ql,
    "(t;q)_inf 0phi2 = sum (-t)^n q^C(n,2) L_n^(alpha)(x) / (q^(alpha+1);q)_n",
    pref=_pinf_t,
)
_generalized(
    I.T14, I.SRC_QL_142115, _QL_T13,
    _record("alpha beta t", lambda al, be, t, q: (
        -t * q ** (al.real - be.real), (), (q ** (al.real + 1.0),), 1)),
    _inner_t14, ("beta",), _sample_ql_beta,
    "re-expansion with a 1phi1 coefficient factor",
)
_source(
    I.SRC_QL_142116, DomainPredicate(_tb_t15, "|t| < 1-q, alpha > -1, gamma complex"),
    _kernel_ql16,
    _record("alpha gamma t", lambda al, g, t, q: (t, (g,), (q ** (al.real + 1.0),), 0)),
    F.Q_LAGUERRE, ("alpha",), partial(_sample_ql, complex_gamma=True),
    "(gamma t;q)_inf/(t;q)_inf 1phi2 expansion", pref=_pref_ql16,
)
_generalized(
    I.T15, I.SRC_QL_142116,
    DomainPredicate(_tb_t15, "|t| < 1-q, alpha, beta > -1, gamma complex"),
    _record("alpha beta gamma t", lambda al, be, g, t, q: (
        t * q ** (al.real - be.real), (g,), (q ** (al.real + 1.0),), 0)),
    _inner_t15, ("beta",), partial(_sample_ql, with_beta=True, complex_gamma=True),
    "re-expansion with a 2phi1 coefficient factor, complex gamma allowed",
)


# ---------------------------------------------------------------------------
# evaluation and verification
# ---------------------------------------------------------------------------


class _RhsAccumulator:
    """The running sum of the outer terms coef_n p_n(x) inner_n, so that
    truncation escalation reuses lower orders; it stops once terms are
    numerically exhausted.  Every term is built one way: ``_coef`` (no
    q^(k C(n,2))) times the mantissa m of the cursor's p_n(x) = m q^e times
    inner_n, put through ``unscale`` with exponent k C(n,2) + e when that
    is nonzero, so lattice terms never form their huge canceling scales.
    The cursor advances only at nonzero coefficients: a recurrence is
    walked once over the whole sum."""

    def __init__(self, entry: _Entry, point: ParamPoint, ctx: QBase) -> None:
        self.entry = entry
        self.point = point
        self.ctx = ctx
        self.coef = entry.coef(point, ctx)
        self._poly = FAMILIES[entry.family].cursors(
            entry.family_params(point, ctx))(point.real("x"))
        self.count = 0  # terms summed
        self.total = complex(0.0)
        self.max_inner = 0
        self.exhausted = False
        self._streak = 0

    def _inner(self, n: int) -> complex:
        res = eval_phi(self.entry.inner(n, self.point, self.ctx))
        self.max_inner = max(self.max_inner, res.terms_used)
        return res.value

    def partial(self, n_terms: int) -> complex:
        """The sum of the first ``n_terms`` terms, or of all of them once
        exhausted earlier; ``n_terms`` never decreases between calls."""
        entry, q, k = self.entry, self.ctx.q, self.coef.k
        while self.count < n_terms and not self.exhausted:
            n = self.count
            term = _coef(self.coef, q, n)
            if term != 0.0:
                m, e = self._poly(n)
                term *= m
                if term != 0.0 and entry.inner is not None:
                    term *= self._inner(n)
                e += k * math.comb(n, 2)
                if e:
                    term = unscale(term, e, q)
            self.count += 1
            self.total += term
            small = abs(term) <= _EXHAUSTED_TOL * (1.0 + abs(self.total))
            self._streak = self._streak + 1 if small else 0
            self.exhausted = self._streak >= _EXHAUSTED_STREAK
        return self.total


def entry_for(tag: IdentityId | str) -> _Entry:
    return _CATALOG[IdentityId(tag)]


def list_identities() -> list[dict[str, str]]:
    out = []
    for tag in IdentityId:
        e = _CATALOG[tag]
        source = e.source.value if e.source else ""
        out.append({"tag": tag.value, "kind": "generalized" if source else "source",
                    "source": source, "domain": e.domain.describe, "about": e.describe})
    return out


def sample_point(tag: IdentityId | str, rng: Random, q: float) -> ParamPoint:
    """A random point in the identity's domain at base q."""
    entry = entry_for(tag)
    return entry.sample(rng, q, entry.domain.t_bound)


def outer_coefficient(
    tag: IdentityId | str, n: int, point: ParamPoint, ctx: QBase
) -> complex:
    c = entry_for(tag).coef(point, ctx)
    value = _coef(c, ctx.q, n)
    return value if c.k == 0 else value * ctx.q ** (c.k * math.comb(n, 2))


def lhs_integrand_factor(
    tag: IdentityId | str, x: float, point: ParamPoint, ctx: QBase
) -> complex:
    """The x-dependent factor of the identity's closed form, which a
    corollary's functional takes against p_n; the x-independent prefactor
    stays on the corollary's closed-form side.  One call builds the
    kernel's plans for one x; a functional takes the factory
    ``entry_for(tag).kernel(point, ctx)`` once and calls what it returns
    at every node."""
    return entry_for(tag).kernel(point, ctx)(x)


def _verify(tag: IdentityId, point: ParamPoint, ctx: QBase) -> IdentityReport:
    entry = _CATALOG[tag]
    lhs = entry.lhs(point, ctx)
    acc = _RhsAccumulator(entry, point, ctx)
    n_outer = _OUTER_START
    rhs = acc.partial(n_outer)
    while n_outer * 2 <= OUTER_CAP:
        nxt = acc.partial(n_outer * 2)
        n_outer *= 2
        if abs(nxt - rhs) <= _TOL * (1.0 + abs(nxt)):
            rhs = nxt
            break
        rhs = nxt
    return IdentityReport.of(tag.value, ctx.q, point, lhs, rhs, n_outer,
                             acc.max_inner, entry.contains(point, ctx))


def verify_identity(
    tag: IdentityId | str, point: ParamPoint, ctx: QBase
) -> IdentityReport:
    """Verify a generalized identity (T tags) at one parameter point."""
    t = IdentityId(tag)
    if t not in GENERALIZED:
        raise PreconditionViolation(f"{t.value} is not a generalized identity")
    return _verify(t, point, ctx)


def verify_source(
    tag: IdentityId | str, point: ParamPoint, ctx: QBase
) -> IdentityReport:
    """Verify a source generating function (SRC tags) at one parameter point."""
    t = IdentityId(tag)
    if t not in SOURCES:
        raise PreconditionViolation(f"{t.value} is not a source identity")
    return _verify(t, point, ctx)

