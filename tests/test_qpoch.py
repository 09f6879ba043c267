"""Pochhammer arithmetic against brute-force products, the eight product
identities, and the four inequality margins."""

import cmath
import itertools
import math
import operator
import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsk.errors import IllConditioned, PreconditionViolation
from qsk.qpoch import (
    ProductPlan,
    QBase,
    _euler_table,
    as_base,
    poch_finite,
    poch_infinite,
    poch_prefix,
    renorm,
    scalar,
    unscale,
)


def brute_poch(a: complex, q: float, n: int) -> complex:
    out = 1.0 + 0.0j
    for j in range(n):
        out *= 1.0 - a * q**j
    return out


def literal_poch_infinite(a: complex, q: float, tol: float = 1e-15) -> complex:
    """(a; q)_inf as the literal product of its factors 1 - a q^j, j < M, M
    the first index at which the geometric tail bound |a| q^M / (1-q)
    drops below tol/4; the powers by repeated multiplication.  This was
    the library's product loop before the Euler tail."""
    a = complex(a)
    a = a.real if a.imag == 0.0 else a
    mag = abs(a)
    if mag == 0.0:
        return complex(1.0)
    ratio = 0.25 * tol * (1.0 - q) / mag
    n = 1 if ratio >= 1.0 else max(1, math.ceil(math.log(ratio) / math.log(q)) + 1)
    out = 1.0
    for t in itertools.accumulate(itertools.repeat(q, n - 1), operator.mul, initial=1.0):
        out *= 1.0 - a * t
    return complex(out)


def test_qbase_validation():
    QBase(0.5)
    for bad in (0.0, 1.0, -0.3, 1.7, float("nan"), float("inf")):
        with pytest.raises(PreconditionViolation):
            QBase(bad)
    with pytest.raises(PreconditionViolation):
        QBase(0.5 + 0.1j)


class FloatLike(float):
    """A float subclass: not an exact float, so it takes the full check."""


@pytest.mark.parametrize("bad", [1.5, float("nan"), math.inf, -math.inf, 0.0, 1.0, -0.3, 0, 1,
                                 2, True, False, 0.5 + 0.0j, 0.5 + 0.1j,
                                 pytest.param(FloatLike(1.5), id="FloatLike-1.5"),
                                 pytest.param(FloatLike(math.nan), id="FloatLike-nan")])
def test_bare_float_base_is_validated(bad):
    """The fast path of the base check admits only an exact float inside
    (0, 1); every other invalid base still raises, through each entry."""
    for check in (QBase, as_base, lambda q: poch_finite(0.3, q, 3),
                  lambda q: poch_infinite(0.3, q), lambda q: ProductPlan(0.3, q)):
        with pytest.raises(PreconditionViolation):
            check(bad)


def test_valid_base_is_returned_as_a_float():
    """The fast path keeps the edges of (0, 1); an int-like or QBase base
    takes the full check and also comes back as a float."""
    for q, want in ((1e-300, 1e-300), (math.nextafter(1.0, 0.0), math.nextafter(1.0, 0.0)),
                    (QBase(0.25), 0.25), (FloatLike(0.5), 0.5)):
        v = as_base(q)
        assert type(v) is float and v == want


def test_scaled_value_range_policy():
    # 0.5**-1100 = 2**1100 is above double range, 0.5**1100 below it
    with pytest.raises(IllConditioned):
        unscale(1.0, -1100.0, 0.5)
    assert unscale(1.0, 1100.0, 0.5) == 0.0
    # the mantissa counts: 1e-200 * 2**1100 = 1.36e131 fits
    assert unscale(1e-200, -1100.0, 0.5) == pytest.approx(1e-200 * 2.0**550 * 2.0**550)
    with pytest.raises(IllConditioned):
        unscale(1e200, -400.0, 0.5)
    assert unscale(0.0, -1e6, 0.5) == 0.0
    # a shift of e by k costs about k * ln(1/q) * 2**-52 of relative accuracy
    m, e = renorm(3e70, 2.0, 0.5)
    assert abs(m) <= 1e60 and unscale(m, e, 0.5) == pytest.approx(3e70 * 0.25, rel=1e-12)


def test_poch_finite_examples():
    assert poch_finite(123.4, 0.5, 0) == 1.0  # empty product
    assert poch_finite(0.5, 0.5, 2) == pytest.approx(0.375, abs=1e-15)
    assert poch_finite(2.0, 0.5, 1) == pytest.approx(-1.0, abs=1e-15)


def test_poch_finite_matches_brute_force():
    rng = Random(1)
    for _ in range(200):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = rng.uniform(0.1, 0.9)
        n = rng.randint(0, 30)
        v = poch_finite(a, QBase(q), n)
        assert v == pytest.approx(brute_poch(a, q, n), rel=1e-13, abs=1e-300)


def test_poch_infinite_examples():
    assert poch_infinite(0.0, 0.5) == 1.0
    # long-product oracle
    long = brute_poch(0.5, 0.5, 200)
    assert abs(poch_infinite(0.5, 0.5) - long) < 1e-13
    # telescoping: (a;q)_inf = (a;q)_K (a q^K; q)_inf
    for K in (1, 3, 7):
        lhs = poch_infinite(0.5, 0.5)
        rhs = poch_finite(0.5, 0.5, K) * poch_infinite(0.5 * 0.5**K, 0.5)
        assert abs(lhs - rhs) < 1e-13


def test_poch_infinite_ratio_property():
    rng = Random(2)
    for _ in range(120):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = rng.uniform(0.1, 0.9)
        n = rng.randint(0, 30)
        denom = poch_infinite(a * q**n, q)
        if min(abs(1.0 - a * q**j) for j in range(n + 1)) < 1e-3:
            continue  # avoid near-vanishing leading factors
        ratio = poch_infinite(a, q) / denom
        fin = poch_finite(a, q, n)
        assert abs(ratio - fin) <= 1e-11 * (1.0 + abs(fin))


def test_poch_infinite_real_overflow_is_inf_not_nan():
    """A product of real factors beyond double range is inf with a zero
    imaginary part, not nan+nanj from inf times the zero imaginary parts;
    here (-x; q)_inf is about 3.7e322."""
    x, q = 6651.745352043733, 0.9467669031021675
    assert poch_infinite(-x, q) == complex(math.inf, 0.0)


def test_poch_finite_real_overflow_is_inf_not_nan():
    """A real finite product beyond double range is +-inf with a zero
    imaginary part, as for poch_infinite, not nan+nanj."""
    assert poch_finite(1e200, 0.5, 4) == complex(math.inf, 0.0)
    assert poch_finite(1e200, 0.5, 3) == complex(-math.inf, 0.0)


# (a, q, n) -> float.hex of the real and imaginary parts of (a; q)_n.
POCH_FINITE_BITS = {
    (0.37, 0.6, 9): ("0x1.65ba735208b10p-2", "0x0.0p+0"),
    (-2.5, 0.6, 9): ("0x1.933d9c51ac9a4p+5", "0x0.0p+0"),
    (0.3 - 0.8j, 0.6, 9): ("-0x1.bc8a317223f7bp-2", "0x1.69e90ff0ccd6dp-1"),
}


@pytest.mark.parametrize("args", list(POCH_FINITE_BITS), ids=str)
def test_poch_finite_bits_are_pinned(args):
    """Real a runs in float arithmetic and complex a in complex arithmetic;
    both keep the bits of the all-complex product and return a complex."""
    v = poch_finite(*args)
    assert type(v) is complex
    assert (v.real.hex(), v.imag.hex()) == POCH_FINITE_BITS[args]


@pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
def test_poch_prefix_is_poch_finite_entry_by_entry(q):
    """Entry m of the prefix table has the bits of poch_finite(a, q, m) for
    every m <= 64, at real, complex and terminating (a = q^-k) parameters."""
    for a in (0.37, -2.5, 0.3 - 0.8j, 1.5j, *(q**-k for k in (0, 3, 17))):
        table = poch_prefix(a, q, 64)
        assert len(table) == 65
        for m, v in enumerate(table):
            want = poch_finite(a, q, m)
            assert type(v) is complex
            assert (v.real.hex(), v.imag.hex()) == (want.real.hex(), want.imag.hex()), (a, m)


@pytest.mark.parametrize("args", [(0.3, 0.5, -1), (0.3, 1.5, 3), (0.3, 0.5 + 0.1j, 3),
                                  (0.3, math.nan, 3), (0.3, 0.0, 3)], ids=str)
def test_poch_prefix_refuses_what_poch_finite_refuses(args):
    """A negative n or an invalid base is refused with poch_finite's message."""
    with pytest.raises(PreconditionViolation) as want:
        poch_finite(*args)
    with pytest.raises(PreconditionViolation, match=re.escape(str(want.value))):
        poch_prefix(*args)


def test_real_products_stay_complex_values():
    assert type(poch_infinite(0.5, 0.5)) is complex
    assert type(ProductPlan(0.5, 0.5)(0.3)) is complex
    assert scalar(0.5 + 0j) == 0.5 and type(scalar(0.5 + 0j)) is float
    assert type(scalar(2)) is float and scalar(0.5 - 0.25j) == 0.5 - 0.25j


def test_renorm_infinite_mantissa_is_ill_conditioned():
    """An infinite mantissa raises IllConditioned (round(inf) would raise a
    bare OverflowError); a NaN passes through unchanged."""
    for m in (math.inf, -math.inf, complex(math.inf, 0.0)):
        with pytest.raises(IllConditioned):
            renorm(m, 0.0, 0.5)
    m, e = renorm(math.nan, 3.0, 0.5)
    assert math.isnan(m) and e == 3.0


def q_number(x: float, q: float) -> float:
    """The q-number [x]_q = (1 - q^x) / (1 - q) at real x."""
    return (1.0 - q**x) / (1.0 - q)


def q_power(z: complex, q: float) -> complex:
    """Principal-branch q^z at complex z."""
    return cmath.exp(complex(z) * math.log(q))


def q_factorial(n: int, q: float) -> float:
    """The q-factorial [n]_q! = [1]_q [2]_q ... [n]_q (1 for n = 0)."""
    out = 1.0
    t = 1.0
    for _ in range(n):
        t *= q
        out *= (1.0 - t) / (1.0 - q)
    return out


def test_q_factorial():
    """The helper that criterion 2's bounds rest on."""
    assert q_factorial(0, 0.3) == 1.0
    assert q_factorial(2, 0.5) == pytest.approx(1.5)
    # [n]_q! = (q; q)_n / (1-q)^n
    for q in (0.3, 0.5, 0.7):
        for n in (1, 3, 5, 9):
            lhs = q_factorial(n, q)
            rhs = brute_poch(q, q, n).real / (1.0 - q) ** n
            assert lhs == pytest.approx(rhs, rel=1e-12)


def _midproduct(a: complex, q: float, n: int) -> complex:
    """(ra;q)_n (-ra;q)_n (rq;q)_n (-rq;q)_n / (a;q)_n, ra = sqrt(a) and
    rq = sqrt(aq): each root taken once (principal branch) and its partner
    formed by negation, so the pair products do not depend on the branch."""
    ra = cmath.sqrt(a)
    rq = ra * math.sqrt(q)
    return (poch_finite(ra, q, n) * poch_finite(-ra, q, n) * poch_finite(rq, q, n)
            * poch_finite(-rq, q, n) / poch_finite(a, q, n))


# The eight q-Pochhammer identities as (lhs, rhs) of (a, q, n, k).
POCH_IDENTITIES = {
    # (a;q)_{n+k} = (a;q)_n (a q^n; q)_k
    "ADD": (lambda a, q, n, k: poch_finite(a, q, n + k),
            lambda a, q, n, k: poch_finite(a, q, n) * poch_finite(a * q**n, q, k)),
    # (a q^n; q)_k = (a;q)_k (a q^k; q)_n / (a;q)_n
    "SHIFT_UP": (lambda a, q, n, k: poch_finite(a * q**n, q, k),
                 lambda a, q, n, k: poch_finite(a, q, k) * poch_finite(a * q**k, q, n)
                 / poch_finite(a, q, n)),
    # (a q^-n; q)_n = (-a)^n q^(-n - C(n,2)) (q/a; q)_n
    "NEG_SHIFT_N": (lambda a, q, n, k: poch_finite(a * q**-n, q, n),
                    lambda a, q, n, k: (-a) ** n * q ** (-n - math.comb(n, 2))
                    * poch_finite(q / a, q, n)),
    # (a q^-n; q)_k = q^(-nk) (q/a;q)_n (a;q)_k / (q^(1-k)/a; q)_n
    "NEG_SHIFT_K": (lambda a, q, n, k: poch_finite(a * q**-n, q, k),
                    lambda a, q, n, k: q ** (-n * k) * poch_finite(q / a, q, n)
                    * poch_finite(a, q, k) / poch_finite(q ** (1 - k) / a, q, n)),
    # (a; q)_{2n} = (a; q^2)_n (aq; q^2)_n
    "DOUBLE": (lambda a, q, n, k: poch_finite(a, q, 2 * n),
               lambda a, q, n, k: poch_finite(a, q * q, n) * poch_finite(a * q, q * q, n)),
    # (a^2; q^2)_n = (a; q)_n (-a; q)_n
    "SQUARE": (lambda a, q, n, k: poch_finite(a * a, q * q, n),
               lambda a, q, n, k: poch_finite(a, q, n) * poch_finite(-a, q, n)),
    # (a q^n; q)_n = (ra;q)_n (-ra;q)_n (rq;q)_n (-rq;q)_n / (a;q)_n
    "MIDPRODUCT": (lambda a, q, n, k: poch_finite(a * q**n, q, n),
                   lambda a, q, n, k: _midproduct(a, q, n)),
    # (-a^2; q^2)_n = (ia; q)_n (-ia; q)_n
    "NEG_SQUARE": (lambda a, q, n, k: poch_finite(-a * a, q * q, n),
                   lambda a, q, n, k: poch_finite(1j * a, q, n) * poch_finite(-1j * a, q, n)),
}


def identity_residual(name: str, a: complex, q: float, n: int, k: int = 0) -> float:
    """|LHS - RHS| of the named identity at complex a."""
    lhs, rhs = POCH_IDENTITIES[name]
    a = complex(a)
    return abs(lhs(a, q, n, k) - rhs(a, q, n, k))


IDENTITY_GRIDS = {
    "ADD": dict(nmax=10, kmax=10, qlo=0.2, qhi=0.85),
    "SHIFT_UP": dict(nmax=10, kmax=10, qlo=0.2, qhi=0.85),
    "NEG_SHIFT_N": dict(nmax=4, kmax=0, qlo=0.45, qhi=0.85),
    "NEG_SHIFT_K": dict(nmax=4, kmax=4, qlo=0.45, qhi=0.85),
    "DOUBLE": dict(nmax=10, kmax=0, qlo=0.2, qhi=0.85),
    "SQUARE": dict(nmax=10, kmax=0, qlo=0.2, qhi=0.85),
    "MIDPRODUCT": dict(nmax=8, kmax=0, qlo=0.3, qhi=0.85),
    "NEG_SQUARE": dict(nmax=10, kmax=0, qlo=0.2, qhi=0.85),
}


def sample_identity_case(name: str, rng: Random):
    """Random admissible (a, q, n, k), rejecting near-degenerate
    denominators for the identities that divide by a Pochhammer value."""
    g = IDENTITY_GRIDS[name]
    while True:
        q = rng.uniform(g["qlo"], g["qhi"])
        a = cmath.rect(rng.uniform(0.1, 1.4), rng.uniform(0.0, 2.0 * math.pi))
        n = rng.randint(0, g["nmax"])
        k = rng.randint(0, g["kmax"]) if g["kmax"] else 0
        if name in ("NEG_SHIFT_N", "NEG_SHIFT_K"):
            if abs(a) < 0.3:
                continue
        if name in ("SHIFT_UP", "MIDPRODUCT"):
            if min(abs(1.0 - a * q**j) for j in range(max(n, 1))) < 0.05:
                continue
        if name == "NEG_SHIFT_K":
            if abs(brute_poch(q ** (1 - k) / a, q, n)) < 0.05:
                continue
        return a, q, n, k


# the ids keep the form this test has always printed under
@pytest.mark.parametrize("name", list(POCH_IDENTITIES), ids=lambda n: f"PochIdentity.{n}")
def test_poch_identities_random_grid(name):
    rng = Random(f"ident:{name}")
    for _ in range(150):
        a, q, n, k = sample_identity_case(name, rng)
        assert identity_residual(name, a, q, n, k) < 1e-11


def test_poch_identity_pinned_cases():
    assert identity_residual("ADD", 0.3, 0.5, 2, 3) < 1e-13
    assert identity_residual("SQUARE", 0.6, 0.25, 4) < 1e-13
    assert identity_residual("NEG_SHIFT_N", 0.8, 0.5, 3) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    re=st.floats(-1.5, 1.5),
    im=st.floats(-1.5, 1.5),
    q=st.floats(0.2, 0.85),
    n=st.integers(0, 12),
    k=st.integers(0, 12),
)
def test_splitting_law_property(re, im, q, n, k):
    a = complex(re, im)
    lhs = poch_finite(a, q, n + k)
    rhs = poch_finite(a, q, n) * poch_finite(a * q**n, q, k)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_splitting_law_full_grid():
    """|a| <= 2, q over the deciles, n <= 30, relative 1e-12.  Points with
    a factor within 1e-3 of zero are resampled: both sides share the
    factor but reach it through different roundings, so no finite
    precision can certify a relative bound across such points."""
    rng = Random("grid-add")
    for q in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        done = 0
        while done < 40:
            a = cmath.rect(rng.uniform(0.0, 2.0), rng.uniform(0, 2 * math.pi))
            n = rng.randint(0, 30)
            k = rng.randint(0, 30 - n) if n < 30 else 0
            if min((abs(1.0 - a * q**j) for j in range(n + k)), default=1.0) < 1e-3:
                continue
            lhs = poch_finite(a, q, n + k)
            rhs = poch_finite(a, q, n) * poch_finite(a * q**n, q, k)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
            done += 1


# --- inequality margins ----------------------------------------------------
# Each inequality of Lemma 1 as ``bound - quantity`` (``quantity - bound``
# for the lower bound of case 1), so that a nonnegative margin means it
# holds; complex quantities enter through their modulus.


def lemma1_case1(q: float, u: complex, j: int) -> float:
    """|(q^u;q)_j| / (1-q)^j >= [Re u]_q [j-1]_q!  (j >= 1)"""
    quantity = abs(poch_finite(q_power(u, q), q, j)) / (1.0 - q) ** j
    return quantity - q_number(complex(u).real, q) * q_factorial(j - 1, q)


def lemma1_case2(q: float, u: complex, n: int) -> float:
    """|(q^u;q)_n| / (q;q)_n <= [n+1]_q^(Re u)"""
    quantity = abs(poch_finite(q_power(u, q), q, n)) / poch_finite(q, q, n).real
    return q_number(n + 1, q) ** complex(u).real - quantity


def lemma1_case3(q: float, u: complex, v: float, k: int, n: int) -> float:
    """|(q^(v+k);q)_n / (q^(u+k);q)_n| <= [n+1]_q^(v+1) / [Re u]_q"""
    quantity = abs(poch_finite(q ** (v + k), q, n)
                   / poch_finite(q_power(complex(u) + k, q), q, n))
    return q_number(n + 1, q) ** (v + 1.0) / q_number(complex(u).real, q) - quantity


def lemma1_case4(q: float, z: complex, k: int, n: int) -> float:
    """|(q^(z+k);q)_(n-k)| / (1-q)^(n-k) <= ([n]_q!/[k]_q!) [n+1]_q^|z|  (k <= n)"""
    z = complex(z)
    quantity = abs(poch_finite(q_power(z + k, q), q, n - k)) / (1.0 - q) ** (n - k)
    return (q_factorial(n, q) / q_factorial(k, q)) * q_number(n + 1, q) ** abs(z) - quantity


LEMMA1_MARGINS = {1: lemma1_case1, 2: lemma1_case2, 3: lemma1_case3, 4: lemma1_case4}


def sample_lemma_case(which: int, rng: Random):
    """A point inside the region where each inequality provably holds.

    Cases 2 and 3 take real u (their derivations order u against
    integers); case 3 additionally keeps u <= 1 (for u > 1 the printed
    bound fails already at n = 0, where the left side is exactly 1);
    case 4 keeps Re z >= 0 and |Im z| <= 1/2 (purely imaginary z of unit
    size violates the printed bound at small q).
    """
    q = rng.uniform(0.15, 0.9)
    if which == 1:
        return q, dict(u=complex(rng.uniform(0.05, 4), rng.uniform(-3, 3)),
                       j=rng.randint(1, 12))
    if which == 2:
        return q, dict(u=rng.uniform(0.05, 5.0), n=rng.randint(0, 14))
    if which == 3:
        return q, dict(u=rng.uniform(0.05, 1.0), v=rng.uniform(0.0, 4.0),
                       k=rng.randint(0, 8), n=rng.randint(0, 12))
    n = rng.randint(0, 12)
    return q, dict(z=complex(rng.uniform(0.0, 3.0), rng.uniform(-0.5, 0.5)),
                   k=rng.randint(0, n), n=n)


@pytest.mark.parametrize("which", [1, 2, 3, 4])
def test_lemma_margins_random_grid(which):
    rng = Random(f"lemma:{which}")
    for _ in range(300):
        q, kw = sample_lemma_case(which, rng)
        assert LEMMA1_MARGINS[which](q, **kw) >= -1e-12


def test_lemma_margin_pinned_cases():
    # equality case: (q; q)_1 / (1-q) = 1 = [1]_q [0]_q!
    assert lemma1_case1(0.5, u=1.0, j=1) == pytest.approx(0.0, abs=1e-14)
    # u = 1 gives ratio 1 <= [4]_q
    assert lemma1_case2(0.5, u=1.0, n=3) > 0.0
    assert lemma1_case4(0.3, z=0.5 + 0.2j, k=1, n=4) >= 0.0


def test_product_plan_matches_poch_infinite():
    """(s u; q)_inf from the plan of s equals poch_infinite(s u) for u on
    the unit circle and u real and positive; at u = 1 it is poch_infinite."""
    rng = Random(11)
    for _ in range(300):
        q = rng.uniform(0.05, 0.95)
        s = rng.uniform(0.0, 1.5) * cmath.exp(2j * math.pi * rng.random())
        plan = ProductPlan(s, q)
        assert plan() == poch_infinite(s, q)
        for u in (cmath.exp(2j * math.pi * rng.random()), rng.uniform(0.05, 3.0)):
            want = poch_infinite(s * u, q)
            assert abs(plan(u) - want) <= 1e-14 * (1.0 + abs(want))
    assert ProductPlan(0.0, 0.5)(2.0) == 1.0


# --- infinite products: Euler tail against the literal loop ----------------

EULER_QS = (0.05, 0.2, 0.5, 0.8, 0.9, 0.95)


@pytest.mark.parametrize("q", EULER_QS)
def test_product_plan_against_literal_loop_and_mpmath(q):
    """Over 400 draws of |a| in [0.01, 3], real of both signs and complex,
    the worst relative error of the plan against mpmath is within twice
    the literal loop's, or 1e-15.  The worst points of both sit next to a
    zero of the product, a = q^-k, in the plain factors both share."""
    mp = pytest.importorskip("mpmath")
    rng = Random(f"euler:{q}")
    worst_plan = worst_literal = 0.0
    for i in range(400):
        mag = rng.uniform(0.01, 3.0)
        a = (mag, -mag, mag * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))[i % 3]
        got, literal = ProductPlan(a, q)(), literal_poch_infinite(a, q)
        with mp.workdps(20):
            want = mp.qp(mp.mpf(a) if isinstance(a, float) else mp.mpc(a), mp.mpf(q))
            err = float(abs(mp.mpc(got) - want) / abs(want))
            err_literal = float(abs(mp.mpc(literal) - want) / abs(want))
        worst_plan, worst_literal = max(worst_plan, err), max(worst_literal, err_literal)
    assert worst_plan <= max(2.0 * worst_literal, 1e-15), (worst_plan, worst_literal)


@pytest.mark.parametrize("q", (0.5, 0.25, 0.125))
def test_lattice_zeros_of_the_product_are_exact(q):
    """(q^-k; q)_inf has the factor 1 - q^-k q^k, exactly 0 when the powers
    are exact (a dyadic q), both directly and through a plan at u."""
    for k in range(6):
        a = q**-k
        assert poch_infinite(a, q) == 0.0
        assert ProductPlan(1.0, q)(a) == 0.0
        assert ProductPlan(0.5 * a, q)(2.0) == 0.0


def test_product_plan_is_deterministic():
    """The same input gives the same bits: from a fresh plan or from one
    whose ladder of powers was already extended by other calls."""
    rng = Random(17)
    for _ in range(100):
        q = rng.uniform(0.05, 0.95)
        s = rng.uniform(0.01, 3.0) * cmath.exp(2j * math.pi * rng.random())
        u = rng.uniform(0.05, 3.0)
        plan = ProductPlan(s, q)
        first = plan(u)
        plan(1e3 * u)
        for v in (plan(u), ProductPlan(s, q)(u), ProductPlan(s, q)(u)):
            assert (v.real.hex(), v.imag.hex()) == (first.real.hex(), first.imag.hex())
        real = poch_infinite(-abs(s), q)
        assert real.imag == 0.0 and real == poch_infinite(-abs(s), q)


def test_euler_table_length_is_bounded():
    """The Euler tail has at most 16 terms for every q up to 0.95, the cost
    that replaces up to about 760 plain factors, and never none."""
    lengths = [len(_euler_table(j / 1000)) for j in range(1, 951)]
    assert max(lengths) <= 16
    assert min(lengths) >= 1


def test_euler_tail_alone_is_within_an_ulp():
    """For |t| <= (1-q)/4 the plan takes no plain factor: the Horner sum of
    the table alone is (t; q)_inf to 2e-16 relative (the literal loop's
    hundreds of factors near 1 miss by up to 3.7e-15 at these points)."""
    mp = pytest.importorskip("mpmath")
    for q in EULER_QS:
        r = 0.25 * (1.0 - q)
        for t in (r, -r, 0.5j * r, 0.1 * r):
            got = ProductPlan(t, q)()
            with mp.workdps(20):
                want = mp.qp(mp.mpc(t), mp.mpf(q))
                assert float(abs(mp.mpc(got) - want) / abs(want)) <= 2e-16, (q, t)


def test_product_plan_infinite_argument_is_ill_conditioned():
    for s in (math.inf, -math.inf, math.nan, complex(math.inf, 1.0)):
        with pytest.raises(IllConditioned):
            ProductPlan(s, 0.5)()
    with pytest.raises(IllConditioned):
        ProductPlan(1e300, 0.5)(1e300)
