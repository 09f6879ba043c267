"""Acceptance suite: every criterion is exercised at its stated tolerance
and prints one PASS line (run with -s to see them).

 1. eight Pochhammer identities, residual < 1e-11, >= 1000 points each
 2. four product inequalities, margin >= -1e-12, >= 1000 points each
 3. q-binomial theorem, residual < 1e-10, 200 points with |z| <= 0.9
 4. connection exactness, four families, n <= 8, 50 pairs each,
    pointwise residual < 1e-9; identity collapse strays < 1e-12
 5. source generating functions, rel residual < 1e-8, 20 points each
 6. generalized generating functions, rel residual < 1e-7, 20 points
    each, complex gamma included, collapse onto sources < 1e-12
 7. Gram matrices of all orthogonality functionals, m, n <= 5:
    off-diagonal/norm < 1e-6, diagonal to 1e-6 (1e-5 on the half line)
 8. corollary suite at 5 points each, rel residual < 1e-6; C29 runs
    flagged without affecting the exit status
 9. repeated verify runs with one seed produce identical reports
"""

import json
import math
import time
from random import Random

import pytest

from oracles import verify_orthogonality
from qsk.cli import SuiteConfig, run_suite
from qsk.connect import (
    aw_connection,
    expansion_residual,
    lql_connection,
    qlag_connection,
    ultra_connection,
)
from qsk.context import ParamPoint
from qsk.genfun import (
    GENERALIZED,
    SOURCES,
    sample_point,
    verify_identity,
    verify_source,
)
from qsk.orthofunc import (
    CorollaryId,
    FunctionalKind,
    FunctionalSpec,
    is_flagged,
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
)

from test_bhs import qbinomial_residual
from test_qpoch import (
    LEMMA1_MARGINS,
    POCH_IDENTITIES,
    identity_residual,
    sample_identity_case,
    sample_lemma_case,
)


def _report(idx: int, label: str, detail: str, t0: float, budget: float):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {idx} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"\n[{idx}] {label}: PASS ({detail}, {elapsed:.1f} s)")


def test_criterion_1_pochhammer_identities():
    t0 = time.time()
    worst = 0.0
    for name in POCH_IDENTITIES:
        rng = Random(f"acc1:{name}")
        for _ in range(1000):
            a, q, n, k = sample_identity_case(name, rng)
            r = identity_residual(name, a, q, n, k)
            worst = max(worst, r)
            assert r < 1e-11, (name, a, q, n, k)
    _report(1, "q-Pochhammer identity suite",
            f"8 x 1000 points, max residual {worst:.2e}", t0, 5.0)


def test_criterion_2_inequality_suite():
    t0 = time.time()
    worst = math.inf
    for which in (1, 2, 3, 4):
        rng = Random(f"acc2:{which}")
        for _ in range(1000):
            q, kw = sample_lemma_case(which, rng)
            m = LEMMA1_MARGINS[which](q, **kw)
            worst = min(worst, m)
            assert m >= -1e-12, (which, q, kw)
    _report(2, "product inequality suite",
            f"4 x 1000 points, min margin {worst:.2e}", t0, 5.0)


def test_criterion_3_qbinomial():
    # |LHS - RHS| is an absolute residual and both sides scale like
    # 1/(z; q)_inf, which grows without bound as q -> 1; the admissible
    # grid keeps q <= 0.8 so the scale stays within what double
    # precision can certify at 1e-10.
    t0 = time.time()
    rng = Random("acc3")
    worst = 0.0
    for _ in range(200):
        q = rng.uniform(0.15, 0.8)
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))
        z = 0.9 * rng.uniform(-1.0, 1.0)
        r = qbinomial_residual(a, z, q)
        worst = max(worst, r)
        assert r < 1e-10, (a, z, q)
    _report(3, "q-binomial theorem", f"200 points, max residual {worst:.2e}",
            t0, 5.0)


def test_criterion_4_connection_exactness():
    t0 = time.time()
    worst = 0.0
    stray = 0.0

    def check(exp):
        nonlocal worst
        r = expansion_residual(exp)
        worst = max(worst, r)
        assert r < 1e-9

    rng = Random("acc4")
    for _ in range(50):
        q = rng.uniform(0.3, 0.75)
        n = rng.randint(0, 8)
        check(aw_connection(
            n,
            *(rng.choice((-1, 1)) * rng.uniform(0.05, 0.6) for _ in range(4)),
            rng.choice((-1, 1)) * rng.uniform(0.08, 0.6), q))
        check(ultra_connection(
            n, rng.choice((-1, 1)) * rng.uniform(0.1, 0.85),
            rng.choice((-1, 1)) * rng.uniform(0.1, 0.85), q))
        check(lql_connection(n, rng.uniform(0.1, 0.9 / q),
                             rng.uniform(0.1, 0.9 / q), q))
        check(qlag_connection(n, rng.uniform(-0.75, 2.5),
                              rng.uniform(-0.75, 2.5), q))
        # identity collapse: source = target
        n2 = rng.randint(1, 8)
        a4 = [rng.choice((-1, 1)) * rng.uniform(0.08, 0.6) for _ in range(4)]
        collapses = (
            aw_connection(n2, a4[0], a4[1], a4[2], a4[3], a4[0], q),
            ultra_connection(n2, 0.37, 0.37, q),
            lql_connection(n2, 0.8, 0.8, q),
            qlag_connection(n2, 1.1, 1.1, q),
        )
        for exp in collapses:
            assert dict(exp.coefficients)[exp.n] == pytest.approx(1.0, rel=1e-12)
            for deg, v in exp.coefficients:
                if deg != exp.n:
                    stray = max(stray, abs(v))
                    assert abs(v) < 1e-12
    _report(4, "connection exactness",
            f"4 x 50 pairs + collapses, max pointwise {worst:.2e}, "
            f"max stray {stray:.2e}", t0, 30.0)


def test_criterion_5_source_generating_functions():
    t0 = time.time()
    worst = 0.0
    for tag in SOURCES:
        for q in (0.4, 0.65):
            ctx = QBase(q)
            rng = Random(f"acc5:{tag.value}:{q}")
            for _ in range(10):
                pt = sample_point(tag, rng, q)
                rep = verify_source(tag, pt, ctx)
                assert rep.in_domain
                worst = max(worst, rep.rel_residual)
                assert rep.rel_residual < 1e-8, (tag, pt)
    _report(5, "source generating functions",
            f"{len(SOURCES)} tags x 20 points, max rel {worst:.2e}", t0, 60.0)


def test_criterion_6_generalized_generating_functions():
    t0 = time.time()
    worst = 0.0
    for tag in GENERALIZED:
        for q in (0.4, 0.65):
            ctx = QBase(q)
            rng = Random(f"acc6:{tag.value}:{q}")
            for _ in range(10):
                pt = sample_point(tag, rng, q)
                rep = verify_identity(tag, pt, ctx)
                assert rep.in_domain
                worst = max(worst, rep.rel_residual)
                assert rep.rel_residual < 1e-7, (tag, pt)
    # complex gamma is exercised by the T6/T15 samplers above; pin the
    # stated value too
    ctx = QBase(0.5)
    g = 0.3 + 0.4j
    assert verify_identity(
        "T6", ParamPoint.of(beta=0.3, alpha=0.5, gamma=g, x=0.2, t=0.08), ctx
    ).rel_residual < 1e-7
    assert verify_identity(
        "T15", ParamPoint.of(alpha=0.5, beta=0.9, gamma=g, x=0.7, t=0.2), ctx
    ).rel_residual < 1e-7
    # collapse laws
    collapse_free = {"T2": ("alpha", "a"), "T3": ("gamma", "beta"),
                     "T4": ("gamma", "beta"), "T5": ("gamma", "beta"),
                     "T6": ("alpha", "beta"), "T7": ("gamma", "beta"),
                     "T8": ("gamma", "beta"), "T9": ("gamma", "beta"),
                     "T11": ("b", "a"), "T13": ("beta", "alpha"),
                     "T14": ("beta", "alpha"), "T15": ("beta", "alpha")}
    worst_col = 0.0
    for tag, (free, src) in collapse_free.items():
        rng = Random(f"acc6c:{tag}")
        pt = sample_point(tag, rng, 0.5)
        pt = pt.replace(**{free: pt.get(src)})
        rep = verify_identity(tag, pt, ctx)
        worst_col = max(worst_col, rep.rel_residual)
        assert rep.rel_residual < 1e-12, (tag, pt)
    _report(6, "generalized generating functions",
            f"12 tags x 20 points, max rel {worst:.2e}; collapse max "
            f"{worst_col:.2e}", t0, 300.0)


def test_criterion_7_gram_matrices():
    t0 = time.time()
    b5 = QBase(0.5)
    cases = [
        ("AW quadrature", 1e-6,
         FamilyId.ASKEY_WILSON,
         FunctionalSpec(FunctionalKind.CONT_INTERVAL,
                        AWParams(0.3, 0.2, 0.1, 0.05, b5))),
        ("CqU quadrature", 1e-6,
         FamilyId.CONT_Q_ULTRA,
         FunctionalSpec(FunctionalKind.CONT_INTERVAL, UltraParams(0.4, b5))),
        ("little q-Laguerre lattice", 1e-6,
         FamilyId.LITTLE_Q_LAGUERRE,
         FunctionalSpec(FunctionalKind.DISCRETE_LATTICE, LqLParams(0.5, b5))),
        ("q-Laguerre continuous (sine branch)", 1e-5,
         FamilyId.Q_LAGUERRE,
         FunctionalSpec(FunctionalKind.CONT_HALFLINE, QLagParams(0.5, b5))),
        ("q-Laguerre continuous (integer branch)", 1e-5,
         FamilyId.Q_LAGUERRE,
         FunctionalSpec(FunctionalKind.CONT_HALFLINE, QLagParams(2.0, b5))),
        ("q-Laguerre bilateral", 1e-6,
         FamilyId.Q_LAGUERRE,
         FunctionalSpec(FunctionalKind.BILATERAL, QLagParams(0.5, b5), c=1.3)),
        ("q-Laguerre q-integral", 1e-6,
         FamilyId.Q_LAGUERRE,
         FunctionalSpec(FunctionalKind.JACKSON, QLagParams(0.5, b5))),
    ]
    details = []
    for label, tol, fam, spec in cases:
        worst_diag = 0.0
        worst_off = 0.0
        for m in range(6):
            for n in range(m, 6):
                rep = verify_orthogonality(fam, spec, m, n)
                scale = abs(norm_constant(spec, n))
                if m == n:
                    d = abs(rep.lhs - rep.rhs) / scale
                    worst_diag = max(worst_diag, d)
                    assert d < tol, (label, m, n)
                else:
                    d = abs(rep.lhs) / scale
                    worst_off = max(worst_off, d)
                    assert d < tol, (label, m, n)
        details.append(f"{label}: diag {worst_diag:.1e} off {worst_off:.1e}")
    _report(7, "orthogonality Gram matrices", "; ".join(details), t0, 300.0)


def test_criterion_8_corollary_suite():
    t0 = time.time()
    worst = 0.0
    ctx = QBase(0.5)
    passing = [c for c in CorollaryId if not is_flagged(c)]
    for cid in passing:
        rng = Random(f"acc8:{cid.value}")
        for _ in range(5):
            pt = sample_corollary_point(cid, rng, 0.5)
            rep = verify_corollary(cid, pt, ctx)
            worst = max(worst, rep.rel_residual)
            assert rep.rel_residual < 1e-6, (cid, pt)
    # C29 is executed and reported without being allowed to fail the run
    rng = Random("acc8:C29")
    rep = verify_corollary("C29", sample_corollary_point("C29", rng, 0.5), ctx)
    assert is_flagged("C29")
    cfg = SuiteConfig(tags=("C29",), q_grid=(0.5,), seed=3,
                      points_per_identity=2)
    report = run_suite(cfg)
    assert report["summary"]["failed"] == 0
    assert all(r["status"] == "unresolved-in-paper" for r in report["records"])
    _report(8, "corollary suite",
            f"{len(passing)} tags x 5 points, max rel {worst:.2e}; "
            f"C29 flagged (residual {rep.rel_residual:.1e})", t0, 600.0)


def test_criterion_9_determinism():
    t0 = time.time()
    cfg = SuiteConfig(tags=("T3", "T13", "SRC_LQL_142011", "C33"),
                      q_grid=(0.4, 0.65), seed=20260810,
                      points_per_identity=3)
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)
    r1.pop("generated_at")
    r2.pop("generated_at")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    _report(9, "determinism", "two runs, identical reports", t0, 120.0)
