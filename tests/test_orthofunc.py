"""Orthogonality functionals: collapse oracles, Gram structure, the
functional algebra, and the corollary catalog."""

import itertools
import math
from random import Random

import pytest

from oracles import verify_orthogonality
from qsk import orthofunc
from qsk.bhs import eval_phi
from qsk.context import ParamPoint
from qsk.errors import PreconditionViolation, TailNonConvergence
from qsk.genfun import entry_for, outer_coefficient
from qsk.orthofunc import (
    FLAGGED_COROLLARIES,
    CorollaryId,
    FunctionalKind,
    FunctionalSpec,
    _sum_tail,
    inner_product,
    is_flagged,
    list_corollaries,
    norm_constant,
    sample_corollary_point,
    verify_corollary,
)
from qsk.polyfam import (
    AWParams,
    FamilyId,
    LqLParams,
    QBase,
    QLagParams,
    UltraParams,
    aw_norm,
    cont_q_ultra,
    poch_finite,
    q_laguerre,
    ultra_norm,
)
from qsk.qpoch import poch_all_infinite, poch_infinite

B5 = QBase(0.5)
ONE = lambda x: 1.0


def test_lattice_collapse_oracle():
    """sum (aq)^k/(q;q)_k = 1/(aq;q)_inf by the binomial-theorem limit."""
    spec = FunctionalSpec(FunctionalKind.DISCRETE_LATTICE, LqLParams(0.5, B5))
    got, _ = inner_product(spec, ONE, ONE)
    assert got.real == pytest.approx(1.0 / poch_infinite(0.25, B5).real, rel=1e-10)


def test_bilateral_n0_against_product_oracle():
    """<1, 1> under the bilateral functional equals the displayed constant,
    evaluated here by independent infinite products."""
    q = 0.5
    alpha, c = 0.5, 1.0
    spec = FunctionalSpec(FunctionalKind.BILATERAL, QLagParams(alpha, B5), c=c)
    got, _ = inner_product(spec, ONE, ONE)
    qa1 = q ** (alpha + 1.0)
    want = (
        poch_all_infinite((q, -c * qa1, -(q**-alpha) / c), B5).real
        / poch_all_infinite((qa1, -c, -q / c), B5).real
    )
    assert got.real == pytest.approx(want, rel=1e-8)


def test_interval_orthogonality_cqu():
    p = UltraParams(0.4, B5)
    spec = FunctionalSpec(FunctionalKind.CONT_INTERVAL, p)
    f0 = lambda x: complex(cont_q_ultra(0, x, p))
    f1 = lambda x: complex(cont_q_ultra(1, x, p))
    off, _ = inner_product(spec, f0, f1)
    assert abs(off) < 1e-8 * ultra_norm(0, p)
    diag, _ = inner_product(spec, f1, f1)
    assert diag.real == pytest.approx(ultra_norm(1, p), rel=1e-9)


def test_aw_quadrature_norm_ratio():
    p = AWParams(0.3, 0.2, 0.1, 0.05, B5)
    rep = verify_orthogonality(
        FamilyId.ASKEY_WILSON,
        FunctionalSpec(FunctionalKind.CONT_INTERVAL, p), 1, 1)
    assert rep.lhs.real / (2.0 * math.pi * aw_norm(1, p)) == pytest.approx(
        1.0, abs=1e-6
    )
    rep = verify_orthogonality(
        FamilyId.ASKEY_WILSON,
        FunctionalSpec(FunctionalKind.CONT_INTERVAL, p), 0, 3)
    assert abs(rep.lhs) / (2.0 * math.pi * aw_norm(3, p)) < 1e-8


def test_gram_matrices_all_functionals():
    cases = [
        (FamilyId.ASKEY_WILSON,
         FunctionalSpec(FunctionalKind.CONT_INTERVAL,
                        AWParams(0.3, 0.2, 0.1, 0.05, B5))),
        (FamilyId.CONT_Q_ULTRA,
         FunctionalSpec(FunctionalKind.CONT_INTERVAL, UltraParams(0.4, B5))),
        (FamilyId.LITTLE_Q_LAGUERRE,
         FunctionalSpec(FunctionalKind.DISCRETE_LATTICE, LqLParams(0.5, B5))),
        (FamilyId.Q_LAGUERRE,
         FunctionalSpec(FunctionalKind.CONT_HALFLINE, QLagParams(0.5, B5))),
        (FamilyId.Q_LAGUERRE,
         FunctionalSpec(FunctionalKind.BILATERAL, QLagParams(0.5, B5), c=1.3)),
        (FamilyId.Q_LAGUERRE,
         FunctionalSpec(FunctionalKind.JACKSON, QLagParams(0.5, B5))),
    ]
    node_cap = {FunctionalKind.CONT_INTERVAL: 255, FunctionalKind.CONT_HALFLINE: 511}
    for fam, spec in cases:
        for m in range(3):
            for n in range(m, 3):
                rep = verify_orthogonality(fam, spec, m, n)
                assert rep.n_terms_outer <= node_cap.get(spec.kind, 4000), (fam, m, n)
                scale = abs(norm_constant(spec, n))
                if m == n:
                    assert abs(rep.lhs - rep.rhs) <= 1e-7 * scale, (fam, m, n)
                else:
                    assert abs(rep.lhs) <= 1e-7 * scale, (fam, m, n)


def test_qlag_integer_branch_orthogonality():
    """Integer alpha takes the log-q branch of the half-line norm."""
    p = QLagParams(2.0, B5)
    spec = FunctionalSpec(FunctionalKind.CONT_HALFLINE, p)
    rep = verify_orthogonality(FamilyId.Q_LAGUERRE, spec, 1, 1)
    assert rep.lhs.real == pytest.approx(rep.rhs.real, rel=1e-5)


def test_functional_linearity():
    p = LqLParams(0.5, B5)
    spec = FunctionalSpec(FunctionalKind.DISCRETE_LATTICE, p)
    f = lambda x: 1.0 + 2.0 * x
    g = lambda x: x * x
    h = lambda x: 0.5 - x
    lhs, _ = inner_product(spec, lambda x: f(x) + g(x), h)
    rhs = inner_product(spec, f, h)[0] + inner_product(spec, g, h)[0]
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _q_integral_oracle(p: QLagParams, f, g) -> complex:
    """The q-integral (1-q) sum_{k in Z} q^k F(q^k), F = f g x^alpha /
    (-x; q)_inf, node by node: the weight is rebuilt from x at every node
    instead of carried by a one-step ratio, each tail cut by the same
    three-terms rule."""
    q = p.base.q

    def terms(ks):
        for k in ks:
            x = q**k
            yield x ** (p.alpha + 1.0) / poch_infinite(-x, p.base).real * f(x) * g(x)

    total, up = _sum_tail(terms(itertools.count()), 4000)
    total, _ = _sum_tail(terms(itertools.count(-1, -1)), 4000 - up, total)
    return total * (1.0 - q)


def _printed_jackson_norm(n: int, p: QLagParams) -> float:
    """The q-integral norm as displayed:

        (1-q) (q, -q^(alpha+1), -q^-alpha; q)_inf (q^(alpha+1); q)_n
        / (2 q^n (q^(alpha+1), -q, -q; q)_inf (q; q)_n).
    """
    q = p.base.q
    qa1 = q ** (p.alpha + 1.0)
    num = poch_all_infinite((q, -qa1, -(q**-p.alpha)), p.base).real
    den = poch_all_infinite((qa1, -q, -q), p.base).real
    return ((1.0 - q) * num * poch_finite(qa1, q, n).real
            / (2.0 * q**n * den * poch_finite(q, q, n).real))


def test_jackson_equals_scaled_bilateral():
    """The q-integral functional is (1-q) times the bilateral walk at
    c = 1; it must match the node-by-node q-integral, whose weight comes
    from an independent infinite product at every node."""
    q = 0.5
    p = QLagParams(0.75, B5)
    jack = FunctionalSpec(FunctionalKind.JACKSON, p)
    for m, n in ((0, 0), (1, 1), (2, 3), (3, 3)):
        f = lambda x: complex(q_laguerre(m, x, p))
        g = lambda x: complex(q_laguerre(n, x, p))
        assert inner_product(jack, f, g)[0].real == pytest.approx(
            _q_integral_oracle(p, f, g).real, rel=1e-9, abs=1e-12
        )
    # a JACKSON spec ignores c: the q-integral always runs on the nodes q^k
    f = lambda x: complex(q_laguerre(2, x, p))
    bila = FunctionalSpec(FunctionalKind.BILATERAL, p, c=1.0)
    value, nodes = inner_product(FunctionalSpec(FunctionalKind.JACKSON, p, c=1.7), f, f)
    bilateral, bilateral_nodes = inner_product(bila, f, f)
    assert (value, nodes) == ((1.0 - q) * bilateral, bilateral_nodes)


def test_jackson_norm_matches_printed_form():
    """(-1; q)_inf = 2 (-q; q)_inf turns (1-q) times the bilateral norm at
    c = 1 into the displayed q-integral norm."""
    for q in (0.2, 0.5, 0.8):
        for alpha in (-0.5, 0.75, 2.3):
            p = QLagParams(alpha, QBase(q))
            spec = FunctionalSpec(FunctionalKind.JACKSON, p)
            for n in range(6):
                assert norm_constant(spec, n) == pytest.approx(
                    _printed_jackson_norm(n, p), rel=1e-13), (q, alpha, n)


def test_tail_sums_stop_at_the_node_cap(monkeypatch):
    """An integrand whose terms do not decay exhausts the node cap: on the
    lattice f = g = 1/x at a = q = 0.5 gives terms 1/(q; q)_k, which tend
    to 1/(q; q)_inf; at alpha = 1 the bilateral and q-integral terms tend
    to constants as x -> 0.  At the default cap the weight underflows to
    zero first (after about 540 nodes), which must not pass for a
    converged tail."""
    inv = lambda x: 1.0 / x
    specs = (
        FunctionalSpec(FunctionalKind.DISCRETE_LATTICE, LqLParams(0.5, B5)),
        FunctionalSpec(FunctionalKind.BILATERAL, QLagParams(1.0, B5), c=1.3),
        FunctionalSpec(FunctionalKind.JACKSON, QLagParams(1.0, B5)),
    )
    for cap in (200, orthofunc._MAX_NODES):
        monkeypatch.setattr(orthofunc, "_MAX_NODES", cap)
        for spec in specs:
            with pytest.raises(TailNonConvergence):
                inner_product(spec, inv, inv)


def test_lower_tail_weight_underflow_raises():
    """The same rule holds toward x -> infinity: with f = g = the square root
    of 1/weight for x > 1, every lower-tail term is about 1 until the weight
    w(x) = x^(alpha+1) / (-x; q)_inf reaches exact zero, so a sum cut there
    would be lost, not converged."""
    p = QLagParams(0.5, B5)
    q = p.base.q

    def root_inverse_weight(x: float) -> complex:
        if x <= 1.0:
            return 1.0
        log_poch = sum(math.log1p(x * q**j) for j in range(200))
        return complex(math.exp(0.5 * (log_poch - (p.alpha + 1.0) * math.log(x))))

    for spec in (FunctionalSpec(FunctionalKind.BILATERAL, p, c=1.0),
                 FunctionalSpec(FunctionalKind.JACKSON, p)):
        with pytest.raises(TailNonConvergence, match="underflowed"):
            inner_product(spec, root_inverse_weight, root_inverse_weight)


def test_functional_kind_validation():
    with pytest.raises(PreconditionViolation):
        FunctionalSpec(FunctionalKind.BILATERAL, QLagParams(0.5, B5), c=0.0)
    with pytest.raises(PreconditionViolation):
        inner_product(
            FunctionalSpec(FunctionalKind.CONT_INTERVAL, QLagParams(0.5, B5)),
            ONE, ONE)


# --- corollaries -------------------------------------------------------------


def test_corollary_catalog():
    assert len(list(CorollaryId)) == 17
    assert FLAGGED_COROLLARIES == {CorollaryId.C29}
    assert is_flagged("C29") and not is_flagged("C26")
    rows = list_corollaries()
    assert len(rows) == 17
    assert any(r["flagged"] == "unresolved-in-paper" for r in rows)


@pytest.mark.parametrize("n", [2.4, 2 + 0.5j, math.nan, -1])
def test_corollary_degree_must_be_a_nonnegative_integer(n):
    """A degree is never rounded: 2.4 or 2 + 0.5j would check p_2 and
    report the point as given, and NaN has no integer to round to."""
    point = sample_corollary_point("C26", Random(1), 0.5).replace(n=n)
    with pytest.raises(PreconditionViolation, match="^n must be"):
        verify_corollary("C26", point, B5)


@pytest.mark.parametrize("cid", sorted(CorollaryId, key=lambda c: c.value))
def test_corollary_random_points(cid):
    rng = Random(f"cor:{cid}")
    for q in (0.5,):
        ctx = QBase(q)
        for _ in range(2):
            pt = sample_corollary_point(cid, rng, q)
            rep = verify_corollary(cid, pt, ctx)
            assert rep.rel_residual < 1e-7, (cid, pt)


def test_c26_t_zero_collapse():
    """At t = 0, n = 0 the left side is the degree-zero norm integral and
    the right side collapses to the half-line norm constant."""
    pt = ParamPoint.of(alpha=0.5, beta=0.5, t=0.0, n=0)
    rep = verify_corollary("C26", pt, B5)
    from qsk.polyfam import qlag_continuous_norm

    assert rep.rhs.real == pytest.approx(
        qlag_continuous_norm(0, QLagParams(0.5, B5)), rel=1e-12
    )
    assert rep.rel_residual < 1e-7


def test_c33_pinned_point():
    pt = ParamPoint.of(alpha=0.5, beta=1.0, t=0.05, n=1)
    rep = verify_corollary("C33", pt, B5)
    assert rep.rel_residual < 1e-7


def test_c_aw_pinned_point():
    pt = ParamPoint.of(a=0.3, b=0.2, c=0.1, d=0.05, alpha=0.25, t=0.01, n=0)
    rep = verify_corollary("C_AW", pt, B5)
    assert rep.in_domain and rep.rel_residual < 1e-6


def test_c29_formula_verifies_despite_flag():
    """The displayed lattice identity holds numerically even though its
    printed derivation is unresolved; it stays flagged in reports."""
    rng = Random("c29")
    for _ in range(3):
        pt = sample_corollary_point("C29", rng, 0.5)
        rep = verify_corollary("C29", pt, B5)
        assert rep.rel_residual < 1e-7
    assert is_flagged("C29")


def test_t9_derived_integral_extra():
    """The display-order catalog covers six interval corollaries; the one
    built on the last 10phi9 expansion is checked here the same way."""
    q = 0.5
    ctx = QBase(q)
    point = ParamPoint.of(beta=0.35, gamma=0.45, t=0.15, n=2)
    n = 2
    tgt = UltraParams(point.real("gamma"), ctx)
    spec = FunctionalSpec(FunctionalKind.CONT_INTERVAL, tgt)
    from qsk.genfun import lhs_integrand_factor

    kernel = lambda x: lhs_integrand_factor("T9", x, point, ctx)
    g = lambda x: complex(cont_q_ultra(n, x, tgt))
    lhs, _ = inner_product(spec, kernel, g)
    rhs = (
        outer_coefficient("T9", n, point, ctx)
        * eval_phi(entry_for("T9").inner(n, point, ctx)).value
        * ultra_norm(n, tgt)
    )
    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_corollary_reports_carry_counts():
    pt = ParamPoint.of(alpha=0.5, beta=0.9, t=0.05, n=1)
    rep = verify_corollary("C30", pt.replace(c=1.0), B5)
    assert rep.n_terms_outer > 10
    assert rep.n_terms_inner >= 1
    assert rep.id == "C30"


def test_corollary_tracks_theorem_residual():
    """Each definite-integral corollary is its theorem composed with the
    orthogonality relation, so both residuals are simultaneously small at
    a shared parameter point (drawn from the theorem's sampler, whose t
    stays inside the series' convergence radius)."""
    from qsk.genfun import sample_point, verify_identity

    pairs = (("C26", "T13"), ("C27", "T14"), ("C28", "T15"))
    rng = Random("track")
    for cid, thm in pairs:
        pt = sample_point(thm, rng, 0.5)
        if min(abs(pt.real("beta") - k) for k in range(-1, 4)) < 1e-6:
            pt = pt.replace(beta=pt.real("beta") + 0.01)
        rep_t = verify_identity(thm, pt, B5)
        rep_c = verify_corollary(cid, pt.replace(n=rng.randint(0, 3)), B5)
        assert rep_c.rel_residual < 1e-7
        assert rep_t.rel_residual < 1e-7


# The C26 and C28 points ``qsk verify --q-grid 0.9`` draws at seed 1.  At
# q = 0.9 the half-line integrands decay slowly toward x = 0 (the first two
# C26 and the first three C28 points take 117-249 trapezoid nodes).
_Q09_HALFLINE_POINTS = (
    ("C26", dict(alpha=-0.15655087162116033, beta=0.0, n=4, t=0.006376406159697743)),
    ("C26", dict(alpha=1.943675622903584, beta=0.0, n=0, t=-0.010728978231094824)),
    ("C26", dict(alpha=2.0362916717363824, beta=1.2465898254093966, n=0,
                 t=0.0241436833261669)),
    ("C26", dict(alpha=1.4053590607883097, beta=2.0, n=2, t=0.014591919224762752)),
    ("C26", dict(alpha=0.5784732997675478, beta=1.0, n=1, t=0.013713456246175537)),
    ("C28", dict(alpha=-0.394002482887717, beta=0.0,
                 gamma=0.24753957370799842 + 0.7515612117729749j, n=3,
                 t=0.013224879135893588)),
    ("C28", dict(alpha=1.1693171879081903, beta=0.06304578835972074,
                 gamma=-0.17317826246158968 + 0.16240423090781275j, n=2,
                 t=0.06635298024551729)),
    ("C28", dict(alpha=0.6090884000403886, beta=0.0,
                 gamma=-0.13224278045044288 + 0.22106381546305354j, n=1,
                 t=0.04607989990653989)),
    ("C28", dict(alpha=1.022077145678569, beta=1.768451905273011,
                 gamma=-0.10636412558844549 + 0.12283747498964397j, n=4,
                 t=-0.016300608142794205)),
    ("C28", dict(alpha=-0.16418289967644, beta=2.086718418532478,
                 gamma=0.4007554693869283 - 0.44125979410863886j, n=1,
                 t=-0.06618012098463884)),
)


@pytest.mark.parametrize("cid,values", _Q09_HALFLINE_POINTS)
def test_halfline_corollaries_at_q09(cid, values):
    rep = verify_corollary(cid, ParamPoint.of(**values), QBase(0.9))
    assert rep.rel_residual < 1e-7


def test_gram_extends_to_degree_six():
    cqu = FunctionalSpec(FunctionalKind.CONT_INTERVAL, UltraParams(0.4, B5))
    rep = verify_orthogonality(FamilyId.CONT_Q_ULTRA, cqu, 6, 6)
    assert rep.lhs.real == pytest.approx(rep.rhs.real, rel=1e-6)
    lat = FunctionalSpec(FunctionalKind.DISCRETE_LATTICE, LqLParams(0.5, B5))
    rep = verify_orthogonality(FamilyId.LITTLE_Q_LAGUERRE, lat, 4, 6)
    assert abs(rep.lhs) < 1e-6 * norm_constant(lat, 6)
