"""Connection coefficients: identity collapse, pointwise exactness,
parity, transitivity, and degenerate-input handling."""

import hashlib
import math
from collections import Counter
from dataclasses import replace
from random import Random

import pytest

from qsk import polyfam
from qsk.errors import DegenerateDenominator, IllConditioned, PreconditionViolation
from qsk.connect import (
    ConnectionExpansion,
    aw_connection,
    expansion_residual,
    lql_connection,
    prefix_residuals,
    qlag_connection,
    ultra_connection,
)
from qsk.polyfam import AWParams, FAMILIES, FamilyId, askey_wilson


def assert_identity_collapse(exp):
    """Source = target must give the single entry (n, 1)."""
    lead = dict(exp.coefficients)[exp.n]
    assert lead == pytest.approx(1.0, rel=1e-12)
    for deg, v in exp.coefficients:
        if deg != exp.n:
            assert abs(v) < 1e-12


def test_identity_collapse_all_families():
    q = 0.5
    assert_identity_collapse(aw_connection(5, 0.3, 0.2, 0.1, 0.05, 0.3, q))
    assert_identity_collapse(ultra_connection(6, 0.4, 0.4, q))
    assert_identity_collapse(lql_connection(5, 0.7, 0.7, q))
    assert_identity_collapse(qlag_connection(5, 0.8, 0.8, q))


def test_degree_zero_is_trivial():
    assert aw_connection(0, 0.3, 0.2, 0.1, 0.05, 0.25, 0.5).coefficients == ((0, 1.0),)
    assert lql_connection(0, 0.5, 0.8, 0.5).coefficients == ((0, 1.0),)


def test_aw_pointwise():
    exp = aw_connection(3, 0.3, 0.2, 0.1, 0.05, 0.2, 0.5)
    assert expansion_residual(exp) < 1e-9


def test_ultra_n1_coefficient():
    q = 0.5
    beta, gamma = 0.3, 0.6
    exp = ultra_connection(1, beta, gamma, q)
    assert [deg for deg, _ in exp.coefficients] == [1]
    assert dict(exp.coefficients)[1] == pytest.approx((1 - beta) / (1 - gamma), rel=1e-13)
    assert expansion_residual(exp) < 1e-12


def test_ultra_pointwise_and_parity():
    exp = ultra_connection(4, 0.3, 0.6, 0.5)
    assert [deg for deg, _ in exp.coefficients] == [4, 2, 0]
    assert expansion_residual(exp) < 1e-10
    exp5 = ultra_connection(5, -0.45, 0.25, 0.4)
    assert [deg for deg, _ in exp5.coefficients] == [5, 3, 1]
    assert expansion_residual(exp5) < 1e-10


def test_lql_pointwise_on_lattice():
    q = 0.5
    exp = lql_connection(3, 0.5, 0.8, q)
    pts = [q**k for k in range(11)]
    assert expansion_residual(exp, pts) < 1e-10


def test_qlag_n1_pointwise():
    exp = qlag_connection(1, 0.0, 1.0, 0.5)
    assert len(exp.coefficients) == 2
    assert expansion_residual(exp, [0.0, 0.5, 1.0, 2.0]) < 1e-12


def test_qlag_n4_pointwise():
    exp = qlag_connection(4, 0.5, 1.5, 0.3)
    assert expansion_residual(exp) < 1e-9


def test_pointwise_random_all_families():
    rng = Random(11)
    for _ in range(12):
        q = rng.uniform(0.3, 0.75)
        n = rng.randint(1, 8)
        aw = aw_connection(
            n,
            *(rng.choice((-1, 1)) * rng.uniform(0.05, 0.6) for _ in range(4)),
            rng.choice((-1, 1)) * rng.uniform(0.08, 0.6),
            q,
        )
        assert expansion_residual(aw) < 1e-9
        cq = ultra_connection(
            n,
            rng.choice((-1, 1)) * rng.uniform(0.1, 0.85),
            rng.choice((-1, 1)) * rng.uniform(0.1, 0.85),
            q,
        )
        assert expansion_residual(cq) < 1e-9
        lq = lql_connection(n, rng.uniform(0.1, 0.9 / q), rng.uniform(0.1, 0.9 / q), q)
        assert expansion_residual(lq) < 1e-9
        ql = qlag_connection(n, rng.uniform(-0.75, 2.5), rng.uniform(-0.75, 2.5), q)
        assert expansion_residual(ql) < 1e-9


def _residual_of_first(exp, i, points):
    """The defining formula of the residual, for the first i terms only."""
    evaluate = FAMILIES[exp.family].evaluate
    worst = peak = 0.0
    for x in points:
        lhs = sum(v * evaluate(deg, x, exp.target_params) for deg, v in exp.coefficients[:i])
        rhs = evaluate(exp.n, x, exp.source_params)
        worst, peak = max(worst, abs(lhs - rhs)), max(peak, abs(rhs))
    return worst / (1.0 + peak)


def _signed(rng, lo, hi):
    return rng.choice((-1, 1)) * rng.uniform(lo, hi)


# The families, degrees and parameter ranges of the connect_expand
# benchmark workload.
_WORKLOAD = {
    "aw": (aw_connection, range(17), lambda rng, q: [_signed(rng, 0.05, 0.6) for _ in range(4)]
           + [_signed(rng, 0.08, 0.6)]),
    "cqu": (ultra_connection, range(17), lambda rng, q: [_signed(rng, 0.1, 0.85) for _ in range(2)]),
    "lql": (lql_connection, range(17), lambda rng, q: [rng.uniform(0.1, 0.9 / q) for _ in range(2)]),
    "qlag": (qlag_connection, range(8), lambda rng, q: [rng.uniform(-0.75, 2.5) for _ in range(2)]),
}


def _workload_draws():
    """One seeded draw per family and degree of the workload."""
    for family, (build, degrees, draw) in _WORKLOAD.items():
        rng = Random(f"prefix-parity:{family}")
        for n in degrees:
            q = rng.uniform(0.3, 0.75)
            yield pytest.param(build(n, *draw(rng, q), q), id=f"{family}-{n}")


# Points a caller may pass besides the sample points: x <= 0 takes little
# q-Laguerre's 2phi1 branch, and x = 0 is q-Laguerre's lattice origin.
_EXTRA_POINTS = {FamilyId.LITTLE_Q_LAGUERRE: [0.0, -0.5], FamilyId.Q_LAGUERRE: [0.0]}


@pytest.mark.parametrize("exp", [
    aw_connection(6, 0.3, 0.2, 0.1, 0.05, 0.25, 0.5),
    ultra_connection(7, 0.3, 0.6, 0.7),
    lql_connection(5, 0.5, 0.25, 0.3),
    qlag_connection(6, 0.5, 1.25, 0.6),
    *_workload_draws(),
])
def test_prefix_residuals_are_the_residuals_of_each_leading_part(exp):
    """Entry i of the one-pass table equals the residual formula applied to
    the first i coefficients, bit for bit, and the last entry is the
    expansion's own residual."""
    pts = (FAMILIES[exp.family].support(exp.source_params.base.q, 20)
           + _EXTRA_POINTS.get(exp.family, []))
    table = prefix_residuals(exp, pts)
    assert len(table) == len(exp.coefficients) + 1
    assert table == [_residual_of_first(exp, i, pts) for i in range(len(table))]
    assert table[-1] == expansion_residual(exp, pts)
    assert table[0] > 1e-3 and table[-1] < 1e-9


# SHA-256 of the float.hex of every prefix residual of the workload draws at
# the default sample points, taken when every point built its own factors.
PREFIX_BITS = "41320f657067490a8fe3594fd1855cb23a7ae5228424066fe3b13878ab9b9863"


def test_prefix_residual_bits_are_pinned():
    digest = hashlib.sha256()
    for draw in _workload_draws():
        table = prefix_residuals(draw.values[0])
        digest.update((" ".join(r.hex() for r in table) + "\n").encode())
    assert digest.hexdigest() == PREFIX_BITS


def test_prefix_residuals_raise_where_the_formula_does():
    """alpha bcd = q makes the target recurrence's first denominator
    1 - abcd q^-1 vanish, which no connection denominator screens: the
    formula raises IllConditioned from the degree-1 target polynomial, and
    so does the table, while the source polynomial is fine."""
    exp = aw_connection(3, 0.3, 0.5, 0.5, 0.5, 4.0, 0.5)
    pts = FAMILIES[exp.family].support(0.5, 4)
    for x in pts:
        FAMILIES[exp.family].evaluate(exp.n, x, exp.source_params)
    assert _residual_of_first(exp, 1, pts) > 0.0
    with pytest.raises(IllConditioned):
        _residual_of_first(exp, 2, pts)
    with pytest.raises(IllConditioned):
        prefix_residuals(exp, pts)


@pytest.mark.parametrize("residual", [expansion_residual, prefix_residuals])
def test_a_residual_over_no_points_is_refused(residual):
    """An empty sample would read 0 and certify any expansion."""
    exp = replace(lql_connection(3, 0.5, 0.25, 0.3), coefficients=((0, 1.0),))
    with pytest.raises(PreconditionViolation, match="at least one sample point"):
        residual(exp, [])


@pytest.mark.parametrize("exp", [
    aw_connection(16, 0.3, -0.2, 0.1, 0.05, 0.25, 0.5),
    ultra_connection(16, 0.3, -0.6, 0.7),
    lql_connection(16, 0.5, 0.7, 0.5),
    qlag_connection(7, 0.5, 1.25, 0.6),
], ids=["aw", "cqu", "lql", "qlag"])
def test_prefix_residuals_walk_each_recurrence_once_per_point(monkeypatch, exp):
    """Beyond the source evaluations, the table takes at most n + 1
    recurrence steps per point, where evaluating each target degree from
    degree 0 would take n (n + 1) / 2.  Both the evaluators and the cursors
    walk their family's Recurrence, so counting the rows it walks covers
    both.  Each row is built once per record, however many points and
    calls read it: rows 0..n-1 of a recurrence, rows 0..n of little
    q-Laguerre, which has no recurrence, plus each degree's prefactor
    once.  The table outlives a call, so each phase takes fresh records."""
    # the Recurrence whose cursors the record holds; None for little q-Laguerre
    fid, rec = exp.family, getattr(FAMILIES[exp.family].cursors, "__self__", None)
    taken, built, prefactors = [0], [], []
    if rec is not None:
        walk, rows = rec.walk, rec.rows

        def counted_walk(term, steps, *state):
            steps = list(steps)
            taken[0] += len(steps)
            return walk(term, steps, *state)

        def counted_rows(p):
            row = rows(p)
            return lambda k: built.append((p, k)) or row(k)

        monkeypatch.setattr(rec, "walk", counted_walk)
        monkeypatch.setattr(rec, "rows", counted_rows)
    lql_row, prefactor = polyfam._lql_row, polyfam._lql_prefactor
    monkeypatch.setattr(polyfam, "_lql_row",
                        lambda p, k: built.append((p, k)) or lql_row(p, k))
    monkeypatch.setattr(polyfam, "_lql_prefactor",
                        lambda pdown, n, q: prefactors.append(n) or prefactor(pdown, n, q))
    # rows per degree n: 0..n-1 for a recurrence, 0..n for the series
    n_rows = exp.n if rec is not None else exp.n + 1
    once = Counter({(exp.source_params, k): 1 for k in range(n_rows)})
    pts = FAMILIES[fid].support(exp.source_params.base.q, 20)
    source_params = replace(exp.source_params)
    for x in pts:
        FAMILIES[fid].evaluate(exp.n, x, source_params)
    assert Counter(built) == once
    assert Counter(prefactors) == (Counter({exp.n: 1}) if rec is None else Counter())
    source = taken[0]
    taken[0], built[:], prefactors[:] = 0, [], []
    fresh = replace(exp, source_params=replace(exp.source_params),
                    target_params=replace(exp.target_params))
    first = prefix_residuals(fresh, pts)
    assert Counter(built) == once + Counter(
        {(exp.target_params, k): 1 for k in range(n_rows)})
    if rec is None:
        assert taken[0] == 0
        assert Counter(prefactors) == (Counter({exp.n: 1})
                                       + Counter(deg for deg, _ in exp.coefficients))
    else:
        assert source < taken[0] <= source + len(pts) * (exp.n + 1)
        assert not prefactors
    built[:], prefactors[:] = [], []
    assert prefix_residuals(fresh, pts) == first
    assert not built and not prefactors  # the tables outlived the first call


def test_nan_coefficient_scores_nan_not_zero():
    """A NaN coefficient makes its prefix residual and every later one NaN;
    it must never score as a residual that passes."""
    exp = aw_connection(3, 0.3, 0.2, 0.1, 0.05, 0.4, 0.5)
    coeffs = tuple((k, math.nan if k == 3 else v) for k, v in exp.coefficients)
    bad = ConnectionExpansion(exp.family, exp.n, exp.source_params, exp.target_params, coeffs)
    assert not expansion_residual(bad) <= 1e-9
    table = prefix_residuals(bad)
    first = [k for k, _ in coeffs].index(3) + 1
    assert all(math.isnan(r) for r in table[first:])
    assert all(r > 0.0 for r in table[:first])


def compose_ultra(first, second):
    """Compose two q-ultraspherical expansions (beta -> gamma -> delta)."""
    q = first.source_params.base.q
    out: dict[int, complex] = {}
    for deg, v in first.coefficients:
        inner = ultra_connection(deg, first.target_params.beta, second.target_params.beta, q)
        for d2, w in inner.coefficients:
            out[d2] = out.get(d2, 0.0) + v * w
    return ConnectionExpansion(FamilyId.CONT_Q_ULTRA, first.n, first.source_params,
                               second.target_params, tuple(sorted(out.items(), reverse=True)))


def test_ultra_transitivity():
    """beta -> gamma -> delta composed equals direct beta -> delta."""
    q = 0.5
    rng = Random(12)
    for _ in range(6):
        n = rng.randint(2, 8)
        beta, gamma, delta = (rng.choice((-1, 1)) * rng.uniform(0.1, 0.8)
                              for _ in range(3))
        first = ultra_connection(n, beta, gamma, q)
        second = ultra_connection(n, gamma, delta, q)
        composed = compose_ultra(first, second)
        direct = ultra_connection(n, beta, delta, q)
        for deg, v in direct.coefficients:
            assert dict(composed.coefficients).get(deg, 0.0) == pytest.approx(v, rel=1e-9, abs=1e-12)


def test_aw_expansion_evaluates_correct_bases():
    """The expansion object carries source and target parameter records."""
    exp = aw_connection(2, 0.3, 0.2, 0.1, 0.05, 0.25, 0.5)
    assert isinstance(exp.source_params, AWParams)
    assert exp.source_params.a == 0.3
    assert exp.target_params.a == 0.25
    # manual pointwise check at one x
    x = 0.3
    lhs = sum(v * askey_wilson(k, x, exp.target_params)
              for k, v in exp.coefficients)
    rhs = askey_wilson(2, x, exp.source_params)
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_support_points_shapes():
    assert len(FAMILIES[FamilyId.CONT_Q_ULTRA].support(0.5, 20)) == 20
    lat = FAMILIES[FamilyId.LITTLE_Q_LAGUERRE].support(0.5, 6)
    assert lat == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
    ql = FAMILIES[FamilyId.Q_LAGUERRE].support(0.5, 5)
    assert ql[0] == 0.0 and max(ql) > 1.0


def test_large_degree_coefficients_stay_finite():
    """Renormalized assembly keeps n ~ 24 in range even at small q."""
    exp = qlag_connection(24, 2.5, -0.5, 0.3)
    assert all(math.isfinite(abs(v)) for _, v in exp.coefficients)
    exp2 = lql_connection(24, 0.4, 2.2, 0.3)
    assert all(math.isfinite(abs(v)) for _, v in exp2.coefficients)


def test_vanishing_denominator_raises():
    # alpha bcd = 1, so (alpha bcd; q)_2 = (1; q)_2 = 0 in the k = 0 denominator
    with pytest.raises(DegenerateDenominator,
                       match="vanishing denominator Pochhammer at k=0"):
        aw_connection(2, 0.3, 0.5, 0.5, 0.5, 8.0, 0.5)


def test_out_of_range_coefficient_raises():
    # some coefficients exceed double range: refuse rather than return inf or 0
    with pytest.raises(IllConditioned):
        qlag_connection(100, -0.9, 2.5, 0.05)
