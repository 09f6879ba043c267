"""Series evaluator against direct term-by-term summation, termination
detection, the stopping rule, the q-binomial theorem, and series plans
against the unsplit series."""

import cmath
import math
import re
from pathlib import Path
from random import Random

import pytest

from qsk.bhs import (HALVING, OUTER, OUTER_DOUBLING, SERIES, TAIL, SeriesPlan,
                     SeriesSpec, eval_phi)
from qsk.errors import (
    DivergentSeries,
    IllConditioned,
    NoConvergence,
    PreconditionViolation,
    ZeroDenominator,
)
from qsk.qpoch import QBase, poch_finite, poch_infinite


def direct_term(num, den, q, z, k):
    """The k-th term straight from the defining sum, with the
    ((-1)^k q^C(k,2))^(1+s-r) factor formed explicitly."""
    term = z**k
    for a in num:
        term *= poch_finite(a, q, k)
    term /= poch_finite(q, q, k)
    for b in den:
        term /= poch_finite(b, q, k)
    return term * ((-1.0) ** k * q ** math.comb(k, 2)) ** (1 + len(den) - len(num))


def direct_phi(num, den, q, z, kmax):
    """Term-by-term evaluation straight from the defining sum."""
    return sum(direct_term(num, den, q, z, k) for k in range(kmax + 1))


def test_qbinomial_collapse_at_a_equals_q():
    # 1phi0(q; -; q, z) = (qz; q)_inf / (z; q)_inf = 1/(1-z)
    res = eval_phi(SeriesSpec((0.5,), (), 0.3, QBase(0.5)))
    assert res.value.real == pytest.approx(1.0 / 0.7, rel=1e-13)
    # not terminated: the sum runs until 0.3^k <= 1e-15 |sum| at k = 29, 30, 31
    assert res.terms_used == 32


def test_zero_argument_gives_one():
    for num, den in [((0.3,), (0.7,)), ((), (0.4,)), ((0.2, 0.5), (0.6,))]:
        res = eval_phi(SeriesSpec(num, den, 0.0, QBase(0.5)))
        assert res.value == 1.0


def test_terminating_three_term_sum():
    q = 0.5
    spec = SeriesSpec((q**-2, 0.3), (0.7,), 0.5, QBase(q))
    res = eval_phi(spec)
    assert res.terms_used == 3
    assert res.value == pytest.approx(direct_phi((q**-2, 0.3), (0.7,), q, 0.5, 2),
                                      rel=1e-13)


def test_termination_at_unit_parameter():
    res = eval_phi(SeriesSpec((1.0, 0.3), (0.7,), 0.5, QBase(0.5)))
    assert res.terms_used == 1 and res.value == 1.0


def test_sign_convention_against_direct_sum():
    """For r = s the k-th term carries (-1)^k q^C(k,2); checked against
    the explicit definition on random specs, including r < s and r > s
    terminating cases."""
    rng = Random(77)
    for _ in range(20):
        q = rng.uniform(0.3, 0.8)
        shape = rng.choice([(1, 1), (2, 2), (0, 1), (0, 2), (2, 0), (1, 2)])
        r, s = shape
        n = rng.randint(1, 6)
        num = [q**-n] if r else []
        num += [complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3))
                for _ in range(max(0, r - 1))]
        den = [complex(rng.uniform(0.1, 0.8)) for _ in range(s)]
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
        if r == 0:
            # non-terminating is fine for r <= s
            spec = SeriesSpec((), tuple(den), z, QBase(q))
            res = eval_phi(spec)
            ref = direct_phi((), den, q, z, res.terms_used + 40)
        else:
            spec = SeriesSpec(tuple(num), tuple(den), z, QBase(q))
            res = eval_phi(spec)
            ref = direct_phi(num, den, q, z, n)
        assert res.value == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_terminating_series_is_polynomial_in_z():
    """Finite differences of order n+1 in z annihilate the value."""
    q = 0.5
    n = 4
    h = 0.21

    def f(z):
        return eval_phi(SeriesSpec((q**-n, 0.4), (0.3,), z, QBase(q))).value

    diff = sum((-1) ** i * math.comb(n + 1, i) * f(0.05 + i * h)
               for i in range(n + 2))
    scale = max(abs(f(0.05 + i * h)) for i in range(n + 2))
    assert abs(diff) <= 1e-9 * (1.0 + scale)


def test_divergence_rejection():
    with pytest.raises(DivergentSeries):
        eval_phi(SeriesSpec((0.3, 0.4), (), 0.2, QBase(0.5)))  # 2phi0
    with pytest.raises(DivergentSeries):
        eval_phi(SeriesSpec((0.3, 0.4), (0.2,), 1.1, QBase(0.5)))  # |z| >= 1


def test_zero_denominator_detection():
    # denominator parameter q^-1 zeroes the k = 1 ratio factor
    with pytest.raises(ZeroDenominator):
        eval_phi(SeriesSpec((0.3,), (2.0,), 0.5, QBase(0.5)))


def test_no_convergence_cap():
    # 1phi0(0.5; -; 0.5, z) has the terms z^k exactly: 0.9999^k is still
    # above 1e-15 times the sum after MAX_TERMS of them
    with pytest.raises(NoConvergence, match="within 10000 terms"):
        eval_phi(SeriesSpec((0.5,), (), 0.9999, QBase(0.5)))


def test_overflowing_terms_raise_rather_than_return_nan():
    """Terms past double range make the compensated sum inf - inf = NaN;
    a sum that is not finite raises, as renorm and unscale do."""
    with pytest.raises(IllConditioned):
        eval_phi(SeriesSpec((0.5**-6,), (), 1e300, QBase(0.5)))
    with pytest.raises(IllConditioned):
        SeriesPlan((0.5**-6,), (), QBase(0.5))(1e300 * cmath.exp(0.3j))
    # the largest term, 1e300^6 q^15 / (q;q)_6, is past range; at 1e40 it is not
    assert cmath.isfinite(eval_phi(SeriesSpec((0.5**-6,), (), 1e40, QBase(0.5))).value)


def test_non_finite_argument_is_refused():
    """A NaN or infinite z is refused before any term is summed: a
    non-terminating sum would otherwise run to its 10,000-term cap and
    raise NoConvergence, a terminating one return NaN."""
    for z in (math.nan, math.inf, -math.inf, complex(0.1, math.inf), complex(math.nan, 0.0)):
        for num in ((0.3,), (0.5**-3,)):
            with pytest.raises(PreconditionViolation):
                SeriesPlan(num, (0.2,), QBase(0.5))(z)
            with pytest.raises(PreconditionViolation):
                eval_phi(SeriesSpec(num, (0.2,), z, QBase(0.5)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.1, math.inf)])
def test_non_finite_numerator_parameters_and_node_values_are_refused(bad):
    """A NaN or infinite numerator parameter, fixed, in base q^2 or scaled,
    or node value u raises PreconditionViolation, never the bare
    ValueError or OverflowError of the termination test's round()."""
    with pytest.raises(PreconditionViolation):
        eval_phi(SeriesSpec((bad,), (0.2,), 0.5, QBase(0.5)))
    with pytest.raises(PreconditionViolation):
        eval_phi(SeriesSpec((0.3,), (0.2,), 0.5, QBase(0.5), numerator2=(bad,)))
    with pytest.raises(PreconditionViolation):
        SeriesPlan((0.3,), (0.2,), QBase(0.5), scaled_num=(bad,))(0.5)
    plan = SeriesPlan((), (0.2,), QBase(0.5), scaled_num=(0.3,))
    with pytest.raises(PreconditionViolation):
        plan(0.5, bad)
    assert cmath.isfinite(plan(0.5, 0.7).value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.1, math.inf)])
def test_non_finite_denominator_parameters_and_node_values_are_refused(bad):
    """A NaN or infinite denominator parameter, fixed, in base q^2 or
    scaled, or node value v raises PreconditionViolation before any term
    is summed: an infinite one would otherwise zero every term after the
    first and return 1 silently, a NaN one run to the term cap and raise
    NoConvergence."""
    with pytest.raises(PreconditionViolation):
        eval_phi(SeriesSpec((0.3,), (bad,), 0.5, QBase(0.5)))
    with pytest.raises(PreconditionViolation):
        eval_phi(SeriesSpec((0.3,), (0.2,), 0.5, QBase(0.5), denominator2=(bad,)))
    with pytest.raises(PreconditionViolation):
        SeriesPlan((0.3,), (0.2,), QBase(0.5), scaled_den=(bad,))
    plan = SeriesPlan((0.3,), (0.2,), QBase(0.5), scaled_den=(0.4,))
    with pytest.raises(PreconditionViolation):
        plan(0.5, 1.0, bad)
    with pytest.raises(PreconditionViolation):
        plan(0.5, bad)  # v defaults to u
    assert cmath.isfinite(plan(0.5, 1.0, 0.7).value)


def test_monotone_tail_stopping():
    """Non-terminating 2phi1 with 0 < z < 1: term ratio tends to z, so the
    stopping rule fires and the tail estimate matches the truncation."""
    q = 0.6
    spec = SeriesSpec((0.5, 0.25), (0.4,), 0.7, QBase(q))
    res = eval_phi(spec)
    long = direct_phi((0.5, 0.25), (0.4,), q, 0.7, res.terms_used + 200)
    assert res.value == pytest.approx(long, rel=1e-12)
    last = direct_term((0.5, 0.25), (0.4,), q, 0.7, res.terms_used - 1)
    assert abs(last) < 1e-12 * abs(res.value)
    # the sum stops at the first three terms in a row at most 1e-15 |sum|,
    # counted here from the defining terms
    partial, streak, k = 1.0, 0, 0
    while streak < 3:
        k += 1
        term = direct_term((0.5, 0.25), (0.4,), q, 0.7, k)
        partial += term
        streak = streak + 1 if abs(term) <= 1e-15 * abs(partial) else 0
    assert res.terms_used == k + 1


STREAKS = {"SERIES": SERIES, "TAIL": TAIL, "OUTER": OUTER}
RULES = {**STREAKS, "OUTER_DOUBLING": OUTER_DOUBLING, "HALVING": HALVING}


def test_stop_rules_match_the_readme_table():
    """README's "Stop rules" table states every layer's tol, R, u and cap
    as ``bhs`` does; a cap that is not a number is None."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 7 and cells[1].strip("`") in RULES:
            cap = re.search(r"\d[\d,]*", cells[6])
            rows[cells[1].strip("`")] = (float(cells[3]), int(cells[4]), float(cells[5]),
                                         int(cap[0].replace(",", "")) if cap else None)
    assert rows == {name: tuple(rule) for name, rule in RULES.items()}


@pytest.mark.parametrize("name", STREAKS)
def test_a_term_at_the_bound_is_negligible(name):
    """|t| = tol (unit + |S|) exactly, S the sum with t added, counts toward
    the run, and the next double above it does not: ``run`` terms at the
    bound end the sum on the last of them, before the term after."""
    rule = STREAKS[name]
    total, terms = 1.0, []
    for _ in range(rule.run):
        t = rule.tol * (rule.unit + total)
        for _ in range(3):  # the fixed point t = tol (unit + |total + t|)
            t = rule.tol * (rule.unit + abs(total + t))
        assert t == rule.tol * (rule.unit + abs(total + t))
        assert math.nextafter(t, 1.0) > rule.tol * (rule.unit + abs(total + math.nextafter(t, 1.0)))
        terms.append(t)
        total += t
    assert rule.add(iter(terms + [1.0]), 1.0) == (total, rule.run, rule.run)
    over = [math.nextafter(terms[0], 1.0)] + terms[1:]
    assert rule.add(iter(over), 1.0)[2] == rule.run - 1


@pytest.mark.parametrize("name", STREAKS)
def test_one_large_term_resets_the_run(name):
    """A run one short of complete, broken by a term of 1, starts again:
    the sum ends only after a whole run that follows it."""
    rule = STREAKS[name]
    stream = [0.0] * (rule.run - 1) + [1.0] + [0.0] * rule.run + [1.0]
    assert rule.add(iter(stream), 1.0) == (2.0, 2 * rule.run, rule.run)
    # a run already complete adds nothing; one in progress carries on
    assert rule.add(iter([1.0]), 2.0, rule.run) == (2.0, 0, rule.run)
    assert rule.add(iter([0.0, 1.0]), 2.0, rule.run - 1) == (2.0, 1, rule.run)


@pytest.mark.parametrize("rule", [OUTER_DOUBLING, HALVING], ids=["OUTER_DOUBLING", "HALVING"])
def test_estimates_exactly_tol_apart_agree(rule):
    """|new - old| = tol (1 + |new|) agrees; one double farther does not."""
    assert (rule.run, rule.unit) == (1, 1.0)
    assert rule.agree(0.0, -rule.tol) and rule.agree(0j, complex(rule.tol))
    assert not rule.agree(0.0, -math.nextafter(rule.tol, 1.0))


@pytest.mark.parametrize("z", [0.5, 0.5 + 0.0j])
def test_series_plan_stops_where_its_rule_does(z):
    """The inline test of ``SeriesPlan`` is ``SERIES``: 1phi0(q; -; q, 1/2)
    at q = 1/2 has the exact terms 2^-k and exact partial sums, and stops
    after the terms ``SERIES.add`` takes."""
    _, count, run = SERIES.add((0.5**k for k in range(1, 200)), 1.0)
    assert run == SERIES.run
    assert SeriesPlan((0.5,), (), QBase(0.5))(z).terms_used == count + 1


def qbinomial_residual(a: complex, z: complex, q: float) -> float:
    """|1phi0(a; -; q, z) - (az; q)_inf / (z; q)_inf|, the q-binomial theorem."""
    return abs(eval_phi(SeriesSpec((complex(a),), (), z, QBase(q))).value
               - poch_infinite(complex(a) * complex(z), q) / poch_infinite(complex(z), q))


def test_qbinomial_residuals():
    assert qbinomial_residual(0.0, 0.5, 0.5) < 1e-12
    assert qbinomial_residual(0.3, 0.6, 0.4) < 1e-11
    # a = q^3: right side telescopes to 1/(z; q)_3
    q = 0.5
    res = qbinomial_residual(q**3, 0.2, q)
    assert res < 1e-12
    rhs = poch_infinite(q**3 * 0.2, q) / poch_infinite(0.2, q)
    assert rhs == pytest.approx((1.0 / poch_finite(0.2, q, 3)).real, rel=1e-12)


def test_qbinomial_random_grid():
    rng = Random(5)
    for _ in range(60):
        q = rng.uniform(0.2, 0.8)
        a = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.5, 0.5))
        z = complex(rng.uniform(-0.85, 0.85), 0.0)
        assert qbinomial_residual(a, z, q) < 1e-10


# ---------------------------------------------------------------------------
# series plans: parameters split into fixed ones and ones scaled by a node
# ---------------------------------------------------------------------------


def _split(params, rng):
    """A random split of ``params`` into (fixed, scaled) index sets."""
    idx = list(range(len(params)))
    scaled = sorted(rng.sample(idx, rng.randint(0, len(idx))))
    return [i for i in idx if i not in scaled], scaled


def _plan_and_spec(num, den, z, q, u, v, rng):
    """The plan with a random split of num and den, whose scaled parameters
    are given divided by the node variable, and the unsplit spec."""
    fn, sn = _split(num, rng)
    fd, sd = _split(den, rng)
    plan = SeriesPlan([num[i] for i in fn], [den[i] for i in fd], QBase(q),
                      scaled_num=[num[i] / u for i in sn],
                      scaled_den=[den[i] / v for i in sd])
    spec = SeriesSpec(tuple(num), tuple(den), z, QBase(q))
    return plan, spec


def _node(rng):
    """A node variable: on the unit circle, or real and positive."""
    if rng.random() < 0.5:
        return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return rng.uniform(0.2, 3.0)


def test_plan_matches_unsplit_series_on_random_splits():
    """The split reorders each ratio's factors, which moves the sum by about
    1e-16 times sum |t_k|; parameters in the disk of radius 0.6 and
    |z| <= 0.6 keep that sum within a few times |value| + 1."""
    rng = Random(2024)
    for _ in range(300):
        q = rng.uniform(0.2, 0.9)
        r = rng.randint(0, 4)
        s = rng.randint(max(0, r - 1), r + 1)
        num = [0.6 * rng.random() * cmath.exp(2j * math.pi * rng.random()) for _ in range(r)]
        den = [0.6 * rng.random() * cmath.exp(2j * math.pi * rng.random()) for _ in range(s)]
        z = rng.uniform(0.05, 0.6) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        u, v = _node(rng), _node(rng)
        plan, spec = _plan_and_spec(num, den, z, q, u, v, rng)
        want = eval_phi(spec)
        got = plan(z, u, v)
        assert abs(got.value - want.value) <= 1e-14 * (1.0 + abs(want.value))
        assert got.terms_used == want.terms_used
        # the same plan at a second node reuses its degree factors
        again = plan(z * 0.5, u, v)
        assert again.value == pytest.approx(eval_phi(SeriesSpec(
            spec.numerator, spec.denominator, z * 0.5, QBase(q))).value,
            rel=1e-13, abs=1e-14)


def test_plan_with_nothing_scaled_is_eval_phi():
    spec = SeriesSpec((0.3, 0.4), (0.2,), 0.5 + 0.1j, QBase(0.5))
    plan = SeriesPlan(spec.numerator, spec.denominator, spec.base)
    assert plan(spec.z) == eval_phi(spec)
    assert plan(spec.z) == eval_phi(spec)  # warm tables give the same sum


def test_plan_raises_what_the_unsplit_series_raises():
    q = 0.5
    u = cmath.exp(0.7j)
    # r = s + 1 with |z| >= 1: divergent either way
    with pytest.raises(DivergentSeries):
        eval_phi(SeriesSpec((0.3, 0.4), (0.2,), 1.2, QBase(q)))
    with pytest.raises(DivergentSeries):
        SeriesPlan((0.3,), (0.2,), QBase(q), scaled_num=(0.4 / u,))(1.2, u)
    # a scaled numerator equal to q^-3 at the node terminates the series
    want = eval_phi(SeriesSpec((q**-3, 0.4), (0.2,), 1.5, QBase(q)))
    got = SeriesPlan((0.4,), (0.2,), QBase(q), scaled_num=(q**-3 / u,))(1.5, u)
    assert got.terms_used == want.terms_used == 4
    assert got.value == pytest.approx(want.value, rel=1e-14)
    # a scaled denominator equal to q^-2 at the node zeroes the k = 2 factor
    with pytest.raises(ZeroDenominator):
        eval_phi(SeriesSpec((0.3,), (q**-2,), 0.5, QBase(q)))
    plan = SeriesPlan((0.3,), (), QBase(q), scaled_den=(q**-2 / u,))
    with pytest.raises(ZeroDenominator):
        plan(0.5, u)
    # the same plan sums normally at a node where nothing vanishes
    assert plan(0.5, 1.0).value == pytest.approx(
        eval_phi(SeriesSpec((0.3,), (q**-2 / u,), 0.5, QBase(q))).value, rel=1e-14)


# ---------------------------------------------------------------------------
# base-q^2 parameters
# ---------------------------------------------------------------------------


def _roots(params):
    """The +-sqrt(w) pair of each w: (w; q^2)_k = (sqrt(w), -sqrt(w); q)_k
    on either branch, the base-q form the base-q^2 parameters replace."""
    return tuple(s * cmath.sqrt(w) for w in params for s in (1.0, -1.0))


def _with_roots(num, den, num2, den2, z, q):
    """The base-q^2 series and the same series written with +-root pairs."""
    return (SeriesSpec(num, den, z, QBase(q), num2, den2),
            SeriesSpec(num + _roots(num2), den + _roots(den2), z, QBase(q)))


def _disk(rng, radius):
    return radius * rng.random() * cmath.exp(2j * math.pi * rng.random())


def test_base_q2_parameters_match_their_root_pairs():
    """On random draws, a series with base-q^2 parameters sums to the value
    of the same series with each replaced by its two square roots."""
    rng = Random(7)
    for _ in range(300):
        q = rng.uniform(0.2, 0.9)
        num = tuple(_disk(rng, 0.6) for _ in range(rng.randint(0, 2)))
        num2 = tuple(_disk(rng, 0.36) for _ in range(rng.randint(0, 2)))
        den2 = tuple(_disk(rng, 0.36) for _ in range(rng.randint(0, 2)))
        # s = r - 1, r or r + 1 (or more when den2 alone exceeds that), each
        # base-q^2 parameter counted twice
        r = len(num) + 2 * len(num2)
        den = tuple(_disk(rng, 0.6)
                    for _ in range(max(0, r + rng.randint(-1, 1) - 2 * len(den2))))
        z = _disk(rng, 0.6)
        spec, ladder = _with_roots(num, den, num2, den2, z, q)
        got, want = eval_phi(spec), eval_phi(ladder)
        assert abs(got.value - want.value) <= 1e-13 * (1.0 + abs(want.value))


def test_base_q2_numerator_terminates():
    """A base-q^2 numerator q^(-2m) stops the series after m + 1 terms."""
    q = 0.5
    for m in range(4):
        spec, ladder = _with_roots((0.3,), (0.7,), (q ** (-2 * m),), (), 0.5, q)
        got, want = eval_phi(spec), eval_phi(ladder)
        assert got.terms_used == m + 1
        assert got.value == pytest.approx(want.value, rel=1e-13)
    # the base-q^2 stop wins over a later base-q one, and the other way round
    assert eval_phi(SeriesSpec((q**-5,), (), 0.5, QBase(q), (q**-4,))).terms_used == 3
    assert eval_phi(SeriesSpec((q**-1,), (), 0.5, QBase(q), (q**-4,))).terms_used == 2


def test_base_q2_denominator_hitting_q_power_raises():
    """A base-q^2 denominator q^(-2k) zeroes the k-th factor, as a base-q
    one q^(-k) does, unless the series terminates first."""
    q = 0.5
    with pytest.raises(ZeroDenominator):
        eval_phi(SeriesSpec((0.3,), (), 0.5, QBase(q), (), (q**-4,)))
    with pytest.raises(ZeroDenominator):
        SeriesPlan((0.3,), (), QBase(q), den2=(q**-2,))(0.5)
    res = eval_phi(SeriesSpec((q**-1,), (), 0.5, QBase(q), (), (q**-4,)))
    assert res.terms_used == 2


def test_base_q2_balance_counts_each_parameter_twice():
    """The r > s + 1 and |z| >= 1 checks count a base-q^2 parameter twice,
    so they raise exactly where the root-pair form raises."""
    q = 0.5
    for num, den, num2, den2, z in [
        ((0.2,), (), (0.3,), (), 0.5),  # r = 3, s = 0
        ((0.2,), (0.4,), (0.3,), (), 0.5),  # r = 3, s = 1
        ((), (0.5,), (0.3,), (), 1.2),  # r = 2 = s + 1, |z| >= 1
        ((0.2, 0.3, 0.4), (), (), (0.5,), 1.2),  # r = 3 = s + 1, |z| >= 1
    ]:
        for spec in _with_roots(num, den, num2, den2, z, q):
            with pytest.raises(DivergentSeries):
                eval_phi(spec)
    # r = 3 = s + 1 with |z| < 1 converges; counted once, s = 1 would not
    spec, ladder = _with_roots((0.2, 0.3, 0.4), (), (), (0.5,), 0.5, q)
    assert eval_phi(spec).value == pytest.approx(eval_phi(ladder).value, rel=1e-13)


# float.hex of the real and imaginary parts of each value, and its term count.
_Q = 0.6
PHI_BITS = {
    "real": (SeriesSpec((0.3, -0.4), (0.2,), 0.5, QBase(_Q)),
             "0x1.8b33482b52239p+2", "0x0.0p+0", 54),
    "complex": (SeriesSpec((0.3 + 0.2j, -0.4), (0.2 - 0.1j,), 0.5 + 0.1j, QBase(_Q)),
                "0x1.a10723d1d55f2p+2", "-0x1.1d0e2cfed3bdep-1", 56),
    "base_q2": (SeriesSpec((0.3,), (0.2,), 0.5, QBase(_Q), (0.7,), (-0.45,)),
                "0x1.a7338d935df63p-1", "0x0.0p+0", 14),
    "terminating": (SeriesSpec((_Q**-6, 0.4), (-0.3,), 1.7, QBase(_Q)),
                    "0x1.0a51c35aa82eep+16", "0x0.0p+0", 7),
}
PLAN_NODE_BITS = {
    "real": ((0.5, 0.8, 1.1), "0x1.2157eecaf5289p-1", "0x0.0p+0", 14),
    "complex": ((0.5, cmath.exp(0.7j), cmath.exp(-0.7j)),
                "0x1.0856cb8117f24p-1", "0x1.777cba79c53b1p-4", 14),
}


@pytest.mark.parametrize("name", list(PHI_BITS))
def test_eval_phi_bits_are_pinned(name):
    """Real specs run in float arithmetic and complex ones in complex
    arithmetic; both keep the bits of the all-complex loop, and the value
    is a complex either way."""
    spec, re, im, terms = PHI_BITS[name]
    res = eval_phi(spec)
    assert type(res.value) is complex
    assert (res.value.real.hex(), res.value.imag.hex(), res.terms_used) == (re, im, terms)


@pytest.mark.parametrize("name", list(PLAN_NODE_BITS))
def test_scaled_plan_node_bits_are_pinned(name):
    node, re, im, terms = PLAN_NODE_BITS[name]
    plan = SeriesPlan((0.3,), (0.2,), QBase(_Q), scaled_num=(0.4,), scaled_den=(-0.25,))
    res = plan(*node)
    assert type(res.value) is complex
    assert (res.value.real.hex(), res.value.imag.hex(), res.terms_used) == (re, im, terms)


def test_spec_parameters_are_floats_when_real():
    """SeriesSpec keeps its fields as given, and the sum takes a parameter
    or z with zero imaginary part as a float, a complex one as it is: a
    spec with 0j parts and int parameters sums to the bits and term count
    of the same spec written in floats."""
    spec = SeriesSpec((0.3 + 0j, -0.4), (0.2 - 0.1j,), 0.5 + 0j, 0.5, (0,), (0.7 + 0j,))
    assert spec.numerator == (0.3 + 0j, -0.4) and type(spec.z) is complex
    assert spec.base == 0.5 and spec.numerator2 == (0,)
    want = eval_phi(SeriesSpec((0.3, -0.4), (0.2 - 0.1j,), 0.5, QBase(0.5), (0.0,), (0.7,)))
    got = eval_phi(spec)
    assert got.terms_used == want.terms_used > 1
    assert (got.value.real.hex(), got.value.imag.hex()) == (
        want.value.real.hex(), want.value.imag.hex())
