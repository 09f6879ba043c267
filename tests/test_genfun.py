"""Generating-function catalog: trivial points, collapse onto the source
identities, residuals at sampled in-domain points, and truncation
behavior."""

import math
from random import Random

import pytest

from qsk import polyfam
from qsk.context import ParamPoint
from qsk.errors import PreconditionViolation
from qsk.genfun import (
    GENERALIZED,
    SOURCES,
    IdentityId,
    _coef,
    _RhsAccumulator,
    entry_for,
    lhs_integrand_factor,
    list_identities,
    outer_coefficient,
    sample_point,
    verify_identity,
    verify_source,
)
from qsk.qpoch import QBase

CTX = QBase(0.5)


def test_catalog_structure():
    assert len(list(IdentityId)) == 24
    assert len(GENERALIZED) == 12 and len(SOURCES) == 12
    rows = list_identities()
    assert len(rows) == 24
    for t in GENERALIZED:
        assert entry_for(t).source in SOURCES
    for t in SOURCES:
        assert entry_for(t).source is None


@pytest.mark.parametrize("tag", [t for t in IdentityId])
def test_t_zero_is_exact(tag):
    """At t = 0 both sides collapse to 1."""
    rng = Random(f"zero:{tag}")
    pt = sample_point(tag, rng, 0.5).replace(t=0.0)
    fn = verify_source if tag in SOURCES else verify_identity
    rep = fn(tag, pt, CTX)
    assert rep.lhs == pytest.approx(1.0, abs=1e-13)
    assert rep.rel_residual < 1e-14


COLLAPSES = {
    IdentityId.T2: "alpha",
    IdentityId.T3: "gamma",
    IdentityId.T4: "gamma",
    IdentityId.T5: "gamma",
    IdentityId.T6: "alpha",
    IdentityId.T7: "gamma",
    IdentityId.T8: "gamma",
    IdentityId.T9: "gamma",
    IdentityId.T11: "b",
    IdentityId.T13: "beta",
    IdentityId.T14: "beta",
    IdentityId.T15: "beta",
}

SOURCE_PARAM = {
    IdentityId.T2: "a",
    IdentityId.T11: "a",
    IdentityId.T13: "alpha",
    IdentityId.T14: "alpha",
    IdentityId.T15: "alpha",
}


@pytest.mark.parametrize("tag", sorted(COLLAPSES, key=lambda t: t.value))
def test_collapse_onto_source(tag):
    """Free parameter equal to the source parameter reproduces the source
    identity: same left side and matching series side to 1e-12."""
    rng = Random(f"collapse:{tag}")
    pt = sample_point(tag, rng, 0.5)
    src_name = SOURCE_PARAM.get(tag, "beta")
    pt = pt.replace(**{COLLAPSES[tag]: pt.get(src_name)})
    rep = verify_identity(tag, pt, CTX)
    assert rep.rel_residual < 1e-12
    src_rep = verify_source(entry_for(tag).source, pt, CTX)
    assert rep.lhs == pytest.approx(src_rep.lhs, rel=1e-12, abs=1e-13)
    assert rep.rhs == pytest.approx(src_rep.rhs, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("tag", sorted(GENERALIZED, key=lambda t: t.value))
def test_generalized_random_points(tag):
    for q in (0.4, 0.65):
        ctx = QBase(q)
        rng = Random(f"gen:{tag}:{q}")
        for _ in range(3):
            pt = sample_point(tag, rng, q)
            rep = verify_identity(tag, pt, ctx)
            assert rep.in_domain
            assert rep.rel_residual < 1e-8, (tag, pt)


@pytest.mark.parametrize("tag", sorted(SOURCES, key=lambda t: t.value))
def test_source_random_points(tag):
    for q in (0.4, 0.65):
        ctx = QBase(q)
        rng = Random(f"src:{tag}:{q}")
        for _ in range(3):
            pt = sample_point(tag, rng, q)
            rep = verify_source(tag, pt, ctx)
            assert rep.in_domain
            assert rep.rel_residual < 1e-9, (tag, pt)


def test_pinned_verification_points():
    # the two pinned verification points
    rep = verify_identity(
        "T4", ParamPoint.of(beta=0.3, gamma=0.5, x=0.2, t=0.1), CTX
    )
    assert rep.in_domain and rep.rel_residual < 1e-8
    t9 = 0.2 * (1 - 0.3**2) * (1 + (0.5**0.5) * 0.3)
    rep = verify_identity(
        "T9", ParamPoint.of(beta=0.3, gamma=0.4, x=0.7, t=t9), CTX
    )
    assert rep.in_domain and rep.rel_residual < 1e-8


def test_two_factor_lhs_against_double_truncation():
    """The product-of-two-series closed form at theta = 0, against an
    independent double truncation built from explicit Pochhammer terms."""
    from qsk.qpoch import poch_finite

    q, t = 0.5, 0.05
    a, b, c, d = 0.3, 0.2, 0.1, 0.05
    pt = ParamPoint.of(a=a, b=b, c=c, d=d, alpha=0.25, t=t, x=1.0)
    got = entry_for("T2").lhs(pt, CTX)

    def phi_direct(u1, u2, den, z, kmax=60):
        total = 0.0 + 0.0j
        for k in range(kmax):
            total += (
                poch_finite(u1, q, k) * poch_finite(u2, q, k)
                / (poch_finite(q, q, k) * poch_finite(den, q, k))
                * z**k
            )
        return total

    want = phi_direct(a, b, a * b, t) * phi_direct(c, d, c * d, t)
    assert abs(got - want) < 1e-10 * (1.0 + abs(want))


def test_pinned_source_points():
    rep = verify_source(
        "SRC_CQU_141027", ParamPoint.of(beta=0.5, x=0.3, t=0.2), CTX
    )
    assert rep.rel_residual < 1e-9
    rep = verify_source(
        "SRC_QL_142114", ParamPoint.of(alpha=0.5, x=1.0, t=0.1), CTX
    )
    assert rep.rel_residual < 1e-9


def test_complex_gamma_points():
    """T6 and T15 accept complex gamma."""
    g = 0.3 + 0.4j
    rep = verify_identity(
        "T6", ParamPoint.of(beta=0.3, alpha=0.5, gamma=g, x=0.2, t=0.08), CTX
    )
    assert rep.in_domain and rep.rel_residual < 1e-10
    rep = verify_identity(
        "T15", ParamPoint.of(alpha=0.5, beta=0.9, gamma=g, x=0.7, t=0.2), CTX
    )
    assert rep.in_domain and rep.rel_residual < 1e-10


def test_t6_rhs_real_for_real_gamma_negative_beta():
    """Negative beta routes square roots through complex intermediates;
    the assembled series side must still be numerically real."""
    pt = ParamPoint.of(beta=-0.4, gamma=0.35, x=0.3, t=0.2)
    for tag in ("T7", "T8", "T9"):
        rep = verify_identity(tag, pt, CTX)
        assert abs(rep.rhs.imag) < 1e-9 * (1.0 + abs(rep.rhs))
        assert rep.rel_residual < 1e-10


def test_domain_monotonicity_along_ray():
    """Residual at fixed small truncation is non-increasing as |t|
    shrinks toward 0 along a ray (sampled)."""
    pt0 = ParamPoint.of(beta=0.4, gamma=0.6, x=0.3, t=0.8)
    res = []
    for scale in (1.0, 0.5, 0.25, 0.1):
        pt = pt0.replace(t=0.8 * scale)
        lhs = entry_for("T3").lhs(pt, CTX)
        # plain 48-term truncations, which need not have settled at the
        # largest |t|
        acc = _RhsAccumulator(entry_for("T3"), pt, CTX)
        res.append(abs(lhs - acc.partial(48)) / (1.0 + abs(lhs)))
    assert all(res[i + 1] <= res[i] * 1.01 + 1e-15 for i in range(len(res) - 1))


def test_in_domain_and_bounds():
    pt = ParamPoint.of(beta=0.4, gamma=0.6, x=0.3, t=0.5)
    assert entry_for("T3").domain.t_bound(pt, CTX.q) == 1.0
    assert entry_for("T3").contains(pt, CTX)
    assert entry_for("T4").domain.t_bound(pt, CTX.q) == pytest.approx(1 - 0.16)
    assert not entry_for("T4").contains(pt.replace(t=0.9), CTX)
    # T2 bound is (1-q)^3
    pt2 = ParamPoint.of(a=0.3, b=0.2, c=0.1, d=0.05, alpha=0.25, x=0.1, t=0.0)
    assert entry_for("T2").domain.t_bound(pt2, CTX.q) == pytest.approx(0.125)


@pytest.mark.parametrize("q", (0.05, 0.5, 0.9, 0.95))
def test_sampled_points_lie_in_their_domain(q):
    ctx = QBase(q)
    for tag in IdentityId:
        rng = Random(f"domain:{tag.value}:{q}")
        for _ in range(20):
            pt = sample_point(tag, rng, q)
            assert entry_for(tag).contains(pt, ctx), (tag, pt.canonical())


@pytest.mark.parametrize("tag", list(IdentityId))
def test_non_finite_values_are_out_of_domain(tag):
    """A NaN or infinite x or parameter puts the point outside the
    domain, and the closed form and the verification refuse it."""
    base = sample_point(tag, Random(f"non-finite:{tag.value}"), 0.5)
    verify = verify_source if tag in SOURCES else verify_identity
    for name, _ in base:
        for bad in (math.nan, math.inf, -math.inf):
            pt = base.replace(**{name: bad})
            assert not entry_for(tag).contains(pt, CTX), (name, bad)
            with pytest.raises(PreconditionViolation):
                entry_for(tag).lhs(pt, CTX)
            with pytest.raises(PreconditionViolation):
                verify(tag, pt, CTX)


@pytest.mark.parametrize("tag", list(IdentityId))
def test_kernel_refuses_a_non_finite_x(tag):
    """The interval kernels refuse x through the |x| <= 1 check, which a
    NaN fails; the lattice and half-line kernels through their series,
    whose argument is then not finite."""
    pt = sample_point(tag, Random(f"kernel-x:{tag.value}"), 0.5)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionViolation):
            lhs_integrand_factor(tag, x, pt, CTX)


def test_domain_follows_the_family_records():
    """Parameter ranges are those of the family records: a real
    parameter with any imaginary part, or an infinite alpha, is out, and
    a record's refusal names the point's parameter."""
    def inside(tag, pt):
        return entry_for(tag).contains(pt, CTX)

    ql = ParamPoint.of(alpha=0.5, x=1.0, t=0.1)
    assert inside("SRC_QL_142114", ql)
    assert not inside("SRC_QL_142114", ql.replace(alpha=math.inf))
    assert not inside("SRC_QL_142114", ql.replace(x=-0.1))
    cqu = ParamPoint.of(beta=0.4, gamma=0.6, x=0.3, t=0.5)
    assert not inside("T3", cqu.replace(gamma=0.6 + 1e-15j))
    assert not inside("T3", cqu.replace(x=1.5))
    with pytest.raises(PreconditionViolation, match="^gamma must lie"):
        verify_identity("T3", cqu.replace(gamma=1.5), CTX)
    assert inside("SRC_LQL_142011", ParamPoint.of(a=0.7, t=0.1, x=-3.0))
    aw = ParamPoint.of(a=0.3, b=0.2, c=0.1, d=0.05, alpha=0.25, x=0.1, t=0.1)
    assert inside("T2", aw)
    assert not inside("T2", aw.replace(alpha=1.2))  # its record is not orthogonal
    src = ParamPoint.of(a=0.3, b=0.2, c=0.1, d=0.05, x=0.1, t=0.1)
    assert inside("SRC_AW_14113", src)
    assert not inside("SRC_AW_14113", src.replace(a=0.3 + 0.1j))
    assert inside("SRC_AW_14113", src.replace(a=0.3 + 0.1j, b=0.3 - 0.1j))
    assert not inside("SRC_AW_14113", src.replace(a=0.3 + 0.1j, b=0.3 + 0.1j, c=0.3 - 0.1j))


def test_verify_identity_rejects_source_tags():
    pt = ParamPoint.of(beta=0.4, x=0.3, t=0.5)
    with pytest.raises(PreconditionViolation):
        verify_identity("SRC_CQU_141027", pt, CTX)
    with pytest.raises(PreconditionViolation):
        verify_source("T3", pt, CTX)


def test_consistency_chain():
    """A generalized identity and its source hold simultaneously on a
    shared point (the free parameter sampled independently)."""
    rng = Random("chain")
    for tag in (IdentityId.T3, IdentityId.T13):
        pt = sample_point(tag, rng, 0.5)
        rep_gen = verify_identity(tag, pt, CTX)
        rep_src = verify_source(entry_for(tag).source, pt, CTX)
        assert rep_gen.rel_residual < 1e-9
        assert rep_src.rel_residual < 1e-9
        assert rep_gen.lhs == pytest.approx(rep_src.lhs, rel=1e-12)


def test_report_fields():
    rng = Random("fields")
    pt = sample_point("T3", rng, 0.5)
    rep = verify_identity("T3", pt, CTX)
    assert rep.id == "T3" and rep.q == 0.5
    assert rep.n_terms_outer >= 16 and rep.n_terms_inner >= 1
    assert rep.rel_residual == rep.abs_residual / (
        1.0 + max(abs(rep.lhs), abs(rep.rhs))
    )


@pytest.mark.parametrize("tag", ["T3", "SRC_QL_142114"])
def test_values_stay_complex_at_real_points(tag):
    """Real parameters run in float arithmetic inside the kernel, but every
    public value is still a complex."""
    pt = sample_point(tag, Random("types"), 0.5)
    assert all(type(v) is complex and v.imag == 0.0 for _, v in pt)
    rep = (verify_source if tag in SOURCES else verify_identity)(tag, pt, CTX)
    assert type(rep.lhs) is complex and type(rep.rhs) is complex
    assert all(type(outer_coefficient(tag, n, pt, CTX)) is complex for n in range(4))


@pytest.mark.parametrize("tag", ["T2", "T3", "T13"])
def test_outer_sum_walks_the_recurrence_once(monkeypatch, tag):
    """An outer sum of N terms draws at most N recurrence steps from its
    family; evaluating every degree from degree 0 would draw about N^2 / 2."""
    rec = polyfam.FAMILIES[entry_for(tag).family].cursors.__self__  # its Recurrence
    walk, drawn = rec.walk, [0]

    def counted(term, rows, *state):
        rows = list(rows)
        drawn[0] += len(rows)
        return walk(term, rows, *state)

    monkeypatch.setattr(rec, "walk", counted)
    rep = verify_identity(tag, sample_point(tag, Random(1), 0.5), CTX)
    assert rep.n_terms_outer >= 32
    assert 0 < drawn[0] <= rep.n_terms_outer


LATTICE = {"SRC_LQL_142011": verify_source, "T11": verify_identity}
# Every tag whose coefficient carries q^C(n,2) (k = 1): the two lattice
# sums and four recurrence-family sums.
Q_POWER_TAGS = [*LATTICE, "SRC_CQU_141029", "T4", "SRC_QL_142115", "T14"]


def test_q_power_tags_are_the_k1_records():
    ctx = QBase(0.5)
    k1 = [t.value for t in IdentityId
          if entry_for(t).coef(sample_point(t, Random(0), 0.5), ctx).k == 1]
    assert sorted(k1) == sorted(Q_POWER_TAGS)


@pytest.mark.parametrize("tag", Q_POWER_TAGS)
def test_scaled_coefficient_drops_only_the_q_power(tag):
    """``_coef`` leaves out q^(k C(n,2)), which the outer sum carries as an
    exponent; ``outer_coefficient`` multiplies it back, bit for bit."""
    for q in (0.05, 0.4, 0.9):
        ctx = QBase(q)
        rng = Random(f"scaled:{tag}:{q}")
        for _ in range(3):
            pt = sample_point(tag, rng, q)
            c = entry_for(tag).coef(pt, ctx)
            assert c.k == 1
            for n in range(65):
                want = _coef(c, q, n) * q ** math.comb(n, 2)
                assert outer_coefficient(tag, n, pt, ctx) == want, (q, n)


@pytest.mark.parametrize("tag", list(LATTICE))
@pytest.mark.parametrize("x", [-0.9, -0.3, 0.0])
def test_lattice_sum_at_nonpositive_x(tag, x):
    """For x <= 0 the little q-Laguerre cursor gives (p_n(x), 0), so the
    term takes only the coefficient's q^C(n,2) as its exponent."""
    pt = ParamPoint.of(a=0.7, b=0.4, t=0.2, x=x)
    rep = LATTICE[tag](tag, pt, CTX)
    assert rep.in_domain
    assert rep.rel_residual < 4e-15


@pytest.mark.parametrize("tag, seed", [("SRC_LQL_142011", 55), ("T11", 72)])
def test_lattice_sum_past_the_q_power_underflow(tag, seed):
    """At q = 0.4, q^C(n,2) underflows past n = 40 (q^C(40,2) is about
    1e-310), while these points need 256 and 128 outer terms: they pass
    because the lattice terms are combined in exponent space.  Taken as
    doubles, p_n leaves double range and the sum raises IllConditioned."""
    ctx = QBase(0.4)
    pt = sample_point(tag, Random(seed), 0.4)
    assert outer_coefficient(tag, 48, pt, ctx) == 0.0
    rep = LATTICE[tag](tag, pt, ctx)
    assert rep.n_terms_outer > 40
    assert rep.rel_residual < 1e-12


@pytest.mark.parametrize("q", (0.5, 0.8, 0.95))
def test_t2_coefficient_is_exactly_real(q):
    """T2's (w; q)_(2n) factors are products of real factors (w, wq in base
    q^2), so at real parameters its coefficient has no imaginary part at
    all; square roots of negative w would leave rounding residue there."""
    ctx = QBase(q)
    rng = Random(f"t2-real:{q}")
    for _ in range(14):
        pt = sample_point("T2", rng, q)
        for n in range(41):
            assert outer_coefficient("T2", n, pt, ctx).imag == 0.0, (pt.canonical(), n)
