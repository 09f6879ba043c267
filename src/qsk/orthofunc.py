"""Orthogonality functionals and the integral/series/q-integral identities
they produce when paired with the generalized generating functions.

Five functional kinds share one entry point, ``inner_product``:

* CONT_INTERVAL    int_-1^1 f g w(x) / sqrt(1-x^2) dx, evaluated in the
                   theta variable (the endpoint singularity is absorbed
                   exactly) by the trapezoid rule on [0, pi];
* CONT_HALFLINE    int_0^inf f g x^alpha / (-x; q)_inf dx, evaluated in
                   u = log x by the trapezoid rule on a window of R;
* DISCRETE_LATTICE sum_{k>=0} f(q^k) g(q^k) (aq)^k / (q; q)_k;
* BILATERAL        sum_{k in Z} f(cq^k) g(cq^k) q^((alpha+1)k)
                   / (-c q^k; q)_inf, both tails decaying (the negative
                   tail super-geometrically);
* JACKSON          the q-integral (1-q) sum_{k in Z} q^k F(q^k) with
                   F = f g x^alpha / (-x; q)_inf, which is (1-q) times
                   BILATERAL at c = 1.

The three discrete kinds share one geometric-lattice walk, ``_walk``.

``verify_corollary`` assembles each corollary as: functional applied to
(generating-function kernel, polynomial) on the left, and the displayed
closed form on the right, coefficient x inner factor x norm / prefactor:
the identity's outer coefficient, its inner r_phi_s factor, the family's
norm constant, and the x-independent prefactor of the identity's closed
form, which the kernel leaves out.  Every functional stops at agreement
1e-10 relative to 1 + |value|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from random import Random
from typing import Callable, Iterable

from .bhs import eval_phi
from .context import ParamPoint
from .errors import (
    PreconditionViolation,
    QuadratureNonConvergence,
    TailNonConvergence,
)
from .genfun import (
    IdentityId,
    IdentityReport,
    _complex_gamma,
    _tpick,
    entry_for,
    outer_coefficient,
    sample_point,
)
from .polyfam import (
    FAMILIES,
    FamilyId,
    aw_norm,
    family_of,
    lql_norm,
    qlag_bilateral_norm,
    qlag_continuous_norm,
    ultra_norm,
)
from .qpoch import QBase, poch_infinite

# A functional has converged once successive terms (tail sums, three in a
# row) or successive trapezoid values are within this of 1 + |value|.
_TOL = 1e-10
_STREAK = 3
# The trapezoid rule halves its step at most 8 times; an interval integral,
# which starts from 8 panels, thus evaluates at most 2047 nodes.
_HALVINGS = 8
# The tail sums of one functional evaluate at most this many nodes in all.
_MAX_NODES = 4000


class FunctionalKind(Enum):
    CONT_INTERVAL = "cont_interval"
    CONT_HALFLINE = "cont_halfline"
    DISCRETE_LATTICE = "discrete_lattice"
    BILATERAL = "bilateral"
    JACKSON = "jackson"


@dataclass(frozen=True)
class FunctionalSpec:
    """One orthogonality functional: its kind, the family parameters that
    fix weight and norm, and the lattice scale c (bilateral only)."""

    kind: FunctionalKind
    params: object
    c: float = 1.0

    def __post_init__(self) -> None:
        if (self.family, self.kind) not in _NORMS:
            raise PreconditionViolation(
                f"{self.kind.name} functional cannot take {self.family.name} parameters"
            )
        if self.kind is FunctionalKind.BILATERAL and not self.c > 0.0:
            raise PreconditionViolation("bilateral functional needs c > 0")

    @property
    def family(self) -> FamilyId:
        return family_of(self.params)


# The closed form of each functional applied to p_n^2, for each family whose
# orthogonality it expresses; also the list of valid (family, kind) pairs.
_NORMS: dict[tuple[FamilyId, FunctionalKind], Callable[[int, FunctionalSpec], float]] = {
    (FamilyId.ASKEY_WILSON, FunctionalKind.CONT_INTERVAL):
        lambda n, s: 2.0 * math.pi * aw_norm(n, s.params),
    (FamilyId.CONT_Q_ULTRA, FunctionalKind.CONT_INTERVAL):
        lambda n, s: ultra_norm(n, s.params),
    (FamilyId.LITTLE_Q_LAGUERRE, FunctionalKind.DISCRETE_LATTICE):
        lambda n, s: lql_norm(n, s.params),
    (FamilyId.Q_LAGUERRE, FunctionalKind.CONT_HALFLINE):
        lambda n, s: qlag_continuous_norm(n, s.params),
    (FamilyId.Q_LAGUERRE, FunctionalKind.BILATERAL):
        lambda n, s: qlag_bilateral_norm(n, s.params, s.c),
    (FamilyId.Q_LAGUERRE, FunctionalKind.JACKSON):
        lambda n, s: (1.0 - s.params.base.q) * qlag_bilateral_norm(n, s.params, 1.0),
}


def _sum_tail(terms: Iterable[complex], cap: int,
              total: complex = 0j) -> tuple[complex, int]:
    """Add ``terms`` to ``total`` until three in a row are at most
    _TOL * (1 + |total|), or the terms run out.  Returns the new total and
    the number of terms added; raises TailNonConvergence once ``cap``
    terms have been added without the run of three."""
    streak = count = 0
    for term in terms:
        total += term
        count += 1
        if abs(term) <= _TOL * (1.0 + abs(total)):
            streak += 1
            if streak >= _STREAK:
                break
        else:
            streak = 0
        if count >= cap:
            raise TailNonConvergence(f"functional sum hit its cap of {cap} nodes")
    return total, count


def _nested(F: Callable[[float], complex], lo: float, hi: float, n: int,
            s: complex, count: int) -> tuple[complex, int]:
    """Trapezoid rule for the integral of F over [lo, hi], refined by
    halving the step.  ``s`` is the sum of F over the nodes of the n-panel
    grid, already evaluated (``count`` of them); each halving evaluates the
    new midpoints only.  F must be negligible at lo and hi, so the grid's
    end nodes take whole weight or none.  Stops when two successive values
    agree to _TOL * (1 + |value|); returns the value and the node count."""
    h = (hi - lo) / n
    value = h * s
    for _ in range(_HALVINGS):
        s += sum(F(lo + (j + 0.5) * h) for j in range(n))
        count += n
        n *= 2
        h /= 2.0
        prev, value = value, h * s
        if abs(value - prev) <= _TOL * (1.0 + abs(value)):
            return value, count
    raise QuadratureNonConvergence(f"trapezoid rule not settled at {n} panels")


def _interval(spec: FunctionalSpec, f, g) -> tuple[complex, int]:
    """int_0^pi f g w(cos theta) d theta.  The integrand is even and
    2 pi-periodic in theta, so the trapezoid rule converges geometrically.
    Both weights (aw_weight, ultra_weight) are exactly 0 at x = +-1, so
    the end nodes theta = 0, pi contribute nothing and are not evaluated."""
    weight = FAMILIES[spec.family].weight(spec.params)

    def F(th: float) -> complex:
        x = math.cos(th)
        return f(x) * g(x) * weight(x)

    n = 8
    s = sum(F(j * math.pi / n) for j in range(1, n))
    return _nested(F, 0.0, math.pi, n, s, n - 1)


def _halfline(spec: FunctionalSpec, f, g) -> tuple[complex, int]:
    """int_0^inf f g w(x) dx as int_R F(u) du with x = e^u.  F decays like
    e^((alpha+1)u) as u -> -inf and faster than exponentially as u -> inf,
    so the trapezoid rule on R converges geometrically.  The unit-step sum,
    cut by the tail rule, fixes the u-window once; refinement stays inside
    it, since the nodes beyond its ends are negligible at every step."""
    weight = FAMILIES[spec.family].weight(spec.params)

    def F(u: float) -> complex:
        x = math.exp(u)
        return x * f(x) * g(x) * weight(x)

    # u = 0, -1, -2, ... toward x = 0, then u = 1, 2, ... toward infinity
    total, down = _sum_tail(map(F, itertools.count(0, -1)), _MAX_NODES)
    total, up = _sum_tail(map(F, itertools.count(1)), _MAX_NODES - down, total)
    return _nested(F, 1.0 - down, up, down + up - 1, total, down + up)


def _walk(spec: FunctionalSpec, f, g, c: float, w0: float,
          ratio: Callable[[int], float], two_sided: bool) -> tuple[complex, int]:
    """sum w_k f(cq^k) g(cq^k) over k >= 0, and over k < 0 too if
    ``two_sided``, with w_(k+1) = w_k ratio(k) from w_0; each tail is cut
    by _sum_tail, both within _MAX_NODES.  A weight that reached exact
    zero makes every later term of its tail zero whatever f g is, so the
    rule could not tell a decayed tail from a lost one: TailNonConvergence."""
    q = spec.params.base.q

    def term(w: float, k: int) -> complex:
        if w == 0.0:
            raise TailNonConvergence("weight underflowed to 0 before the tail converged")
        x = c * q**k
        return w * f(x) * g(x)

    def upper():  # k = 0, 1, 2, ...
        w = w0
        for k in itertools.count():
            yield term(w, k)
            w *= ratio(k)

    def lower():  # k = -1, -2, ...
        w = w0
        for k in itertools.count(-1, -1):
            w /= ratio(k)
            yield term(w, k)

    total, up = _sum_tail(upper(), _MAX_NODES)
    if not two_sided:
        return total, up
    total, down = _sum_tail(lower(), _MAX_NODES - up, total)
    return total, up + down


def _lattice(spec: FunctionalSpec, f, g) -> tuple[complex, int]:
    q = spec.params.base.q
    aq = spec.params.a * q
    return _walk(spec, f, g, 1.0, 1.0, lambda k: aq / (1.0 - q ** (k + 1)), False)


def _bilateral(spec: FunctionalSpec, f, g) -> tuple[complex, int]:
    p, c = spec.params, spec.c
    q = p.base.q
    qa1 = q ** (p.alpha + 1.0)
    return _walk(spec, f, g, c, 1.0 / poch_infinite(-c, p.base).real,
                 lambda k: qa1 * (1.0 + c * q**k), True)


def _jackson(spec: FunctionalSpec, f, g) -> tuple[complex, int]:
    total, count = _bilateral(replace(spec, c=1.0), f, g)
    return total * (1.0 - spec.params.base.q), count


_RULES = {
    FunctionalKind.CONT_INTERVAL: _interval,
    FunctionalKind.CONT_HALFLINE: _halfline,
    FunctionalKind.DISCRETE_LATTICE: _lattice,
    FunctionalKind.BILATERAL: _bilateral,
    FunctionalKind.JACKSON: _jackson,
}


def inner_product(spec: FunctionalSpec, f: Callable[[float], complex],
                  g: Callable[[float], complex]) -> tuple[complex, int]:
    """The functional applied to the pair (f, g), and the number of nodes
    at which it evaluated them."""
    return _RULES[spec.kind](spec, f, g)


# ---------------------------------------------------------------------------
# the norms of the families
# ---------------------------------------------------------------------------


def norm_constant(spec: FunctionalSpec, n: int) -> float:
    """The closed-form value of the functional applied to p_n^2."""
    return _NORMS[spec.family, spec.kind](n, spec)


# ---------------------------------------------------------------------------
# the corollary catalog
# ---------------------------------------------------------------------------


class CorollaryId(str, Enum):
    C_AW = "C_AW"
    C_CQU_1 = "C_CQU_1"
    C_CQU_2 = "C_CQU_2"
    C_CQU_3 = "C_CQU_3"
    C_CQU_4 = "C_CQU_4"
    C_CQU_5 = "C_CQU_5"
    C_CQU_6 = "C_CQU_6"
    C26 = "C26"
    C27 = "C27"
    C28 = "C28"
    C29 = "C29"
    C30 = "C30"
    C31 = "C31"
    C32 = "C32"
    C33 = "C33"
    C34 = "C34"
    C35 = "C35"


#: Corollaries that are reported but never counted as failures: the C29
#: derivation is left unresolved in its source (the stated proof cites an
#: orthogonality that does not apply and its domain line is garbled), so
#: its record carries status "unresolved-in-paper".
FLAGGED_COROLLARIES = frozenset({CorollaryId.C29})


@dataclass(frozen=True)
class _CorEntry:
    cid: CorollaryId
    theorem: IdentityId
    kind: FunctionalKind
    sample: Callable[[Random, float], ParamPoint]
    describe: str


def _spec_for(entry: _CorEntry, point: ParamPoint, ctx: QBase) -> FunctionalSpec:
    """The functional of the family the theorem expands over, whose
    parameters carry the weight and the norm."""
    params = entry_for(entry.theorem).family_params(point, ctx)
    c = point.real("c") if entry.kind is FunctionalKind.BILATERAL else 1.0
    return FunctionalSpec(entry.kind, params, c=c)


def _closed_form(entry: _CorEntry, n: int, point: ParamPoint, ctx: QBase,
                 spec: FunctionalSpec) -> tuple[complex, int]:
    """Coefficient x inner factor x norm / prefactor, and the inner
    series' term count.  The coefficient keeps its q^C(n,2) factor, which
    the definite-integral display C27 omits in print: a transcription slip,
    since the parallel series and q-integral displays retain it."""
    thm = entry_for(entry.theorem)
    inner = eval_phi(thm.inner(n, point, ctx))
    value = (outer_coefficient(entry.theorem, n, point, ctx) * inner.value
             * norm_constant(spec, n))
    if thm.pref is not None:
        value /= thm.pref(point, ctx)
    return value, inner.terms_used


def verify_corollary(
    cid: CorollaryId | str, point: ParamPoint, ctx: QBase
) -> IdentityReport:
    """Functional applied to (kernel, p_n) against the displayed closed form."""
    entry = _COR[CorollaryId(cid)]
    n = point.intval("n")
    if n < 0:
        raise PreconditionViolation("n must be >= 0")
    spec = _spec_for(entry, point, ctx)
    kernel = entry_for(entry.theorem).kernel(point, ctx)
    evaluate = FAMILIES[spec.family].evaluate
    lhs, count = inner_product(spec, kernel, lambda x: evaluate(n, x, spec.params))
    rhs, inner_terms = _closed_form(entry, n, point, ctx, spec)
    # corollary points carry no x: 0.5 is on every family's support, no t-bound reads x
    in_domain = entry_for(entry.theorem).contains(point.replace(x=0.5), ctx)
    return IdentityReport.of(entry.cid.value, ctx.q, point, lhs, rhs, count,
                             inner_terms, in_domain)


def is_flagged(cid: CorollaryId | str) -> bool:
    return CorollaryId(cid) in FLAGGED_COROLLARIES


def list_corollaries() -> list[dict[str, str]]:
    out = []
    for cid in CorollaryId:
        e = _COR[cid]
        out.append(
            {
                "tag": cid.value,
                "kind": e.kind.name,
                "theorem": e.theorem.value,
                "about": e.describe,
                "flagged": "unresolved-in-paper" if is_flagged(cid) else "",
            }
        )
    return out


def sample_corollary_point(cid: CorollaryId | str, rng: Random, q: float) -> ParamPoint:
    return _COR[CorollaryId(cid)].sample(rng, q)


# --- samplers --------------------------------------------------------------


def _with_n(rng: Random, pt: ParamPoint, nmax: int = 4) -> ParamPoint:
    return pt.replace(n=rng.randint(0, nmax))


def _sample_from_theorem(theorem: IdentityId):
    def sample(rng: Random, q: float) -> ParamPoint:
        d = sample_point(theorem, rng, q).as_dict()
        d.pop("x", None)
        return _with_n(rng, ParamPoint.of(**d))

    return sample


def _sample_ql_corollary(kind: FunctionalKind, theorem: IdentityId,
                         complex_gamma: bool = False, with_c: bool = False):
    def sample(rng: Random, q: float) -> ParamPoint:
        alpha = rng.uniform(-0.6, 2.2)
        # mix the two norm branches: integer beta on the continuous
        # functional exercises the log-q branch
        if kind is FunctionalKind.CONT_HALFLINE and rng.random() < 0.34:
            beta = float(rng.randint(0, 2))
        else:
            beta = rng.uniform(-0.6, 2.2)
            while min(abs(beta - k) for k in range(-1, 4)) < 0.05:
                beta = rng.uniform(-0.6, 2.2)
        vals: dict[str, complex] = {"alpha": alpha, "beta": beta}
        if complex_gamma:
            vals["gamma"] = _complex_gamma(rng)
        if with_c:
            vals["c"] = rng.uniform(0.5, 2.0)
        pt = ParamPoint.of(**vals)
        t = _tpick(rng, entry_for(theorem).domain.t_bound(pt, q))
        return _with_n(rng, pt.replace(t=t))

    return sample


def _sample_c29(rng: Random, q: float) -> ParamPoint:
    alpha = rng.uniform(0.1, 0.9 / q)
    beta = rng.uniform(0.1, 0.9 / q)
    pt = ParamPoint.of(a=alpha, b=beta, alpha=alpha, beta=beta)
    # single printed bound, taken as stated
    b = abs(beta) if abs(beta) < 1 else 0.99
    bound = min((1.0 - b * b) * (1.0 + math.sqrt(q) * b), 1.0)
    t = rng.uniform(0.05, 0.9) * bound
    return _with_n(rng, pt.replace(t=t))


_COR: dict[CorollaryId, _CorEntry] = {}


def _addc(entry: _CorEntry) -> None:
    _COR[entry.cid] = entry


_addc(_CorEntry(
    CorollaryId.C_AW, IdentityId.T2, FunctionalKind.CONT_INTERVAL,
    _sample_from_theorem(IdentityId.T2),
    "definite integral of the two-factor 2phi1 kernel against p_n",
))
for _i, _thm in enumerate(
    (IdentityId.T3, IdentityId.T4, IdentityId.T5, IdentityId.T6,
     IdentityId.T7, IdentityId.T8),
    start=1,
):
    _addc(_CorEntry(
        CorollaryId(f"C_CQU_{_i}"), _thm, FunctionalKind.CONT_INTERVAL,
        _sample_from_theorem(_thm),
        "definite integral of the generating kernel against C_n",
    ))
_addc(_CorEntry(
    CorollaryId.C26, IdentityId.T13, FunctionalKind.CONT_HALFLINE,
    _sample_ql_corollary(FunctionalKind.CONT_HALFLINE, IdentityId.T13),
    "half-line integral of the 0phi1 kernel against L_n (both norm branches)",
))
_addc(_CorEntry(
    CorollaryId.C27, IdentityId.T14, FunctionalKind.CONT_HALFLINE,
    _sample_ql_corollary(FunctionalKind.CONT_HALFLINE, IdentityId.T14),
    "half-line integral of the 0phi2 kernel against L_n",
))
_addc(_CorEntry(
    CorollaryId.C28, IdentityId.T15, FunctionalKind.CONT_HALFLINE,
    _sample_ql_corollary(FunctionalKind.CONT_HALFLINE, IdentityId.T15,
                         complex_gamma=True),
    "half-line integral of the 1phi2 kernel against L_n, complex gamma",
))
_addc(_CorEntry(
    CorollaryId.C29, IdentityId.T11, FunctionalKind.DISCRETE_LATTICE,
    _sample_c29,
    "lattice sum of the 0phi1 kernel against the little q-Laguerre family",
))
for _cid, _thm in ((CorollaryId.C30, IdentityId.T13),
                   (CorollaryId.C31, IdentityId.T14),
                   (CorollaryId.C32, IdentityId.T15)):
    _addc(_CorEntry(
        _cid, _thm, FunctionalKind.BILATERAL,
        _sample_ql_corollary(FunctionalKind.BILATERAL, _thm,
                             complex_gamma=_thm is IdentityId.T15, with_c=True),
        "bilateral lattice sum of the kernel against L_n, scale c",
    ))
for _cid, _thm in ((CorollaryId.C33, IdentityId.T13),
                   (CorollaryId.C34, IdentityId.T14),
                   (CorollaryId.C35, IdentityId.T15)):
    _addc(_CorEntry(
        _cid, _thm, FunctionalKind.JACKSON,
        _sample_ql_corollary(FunctionalKind.JACKSON, _thm,
                             complex_gamma=_thm is IdentityId.T15),
        "q-integral of the kernel against L_n",
    ))
