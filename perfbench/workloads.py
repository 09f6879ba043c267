"""Workload definitions: the operations each benchmark workload runs.

One verification op is one record of ``qsk verify``: the point is drawn
from the same ``Random(f"{seed}:{tag}:{qi}")`` stream that
``qsk.cli.run_suite`` uses, the matching ``verify_*`` function is called
and the report is classified the way the CLI classifies it.  Unlike
``run_suite``, a ``QskError`` turns one op into an ``error`` record and
the workload goes on.  A connection op is one ``*_connection`` call plus
its ``expansion_residual``.

Pass 0 of a workload is its fixed-size op list for the given seed; pass
k > 0 draws fresh points from the seed string ``f"{seed}/{k}"``, so a
timed run that repeats the workload never evaluates a point twice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Callable

from qsk import connect, genfun, orthofunc
from qsk.cli import SuiteConfig
from qsk.errors import QskError

IDENTITY_TAGS = tuple(t.value for t in genfun.IdentityId)
COROLLARY_TAGS = tuple(c.value for c in orthofunc.CorollaryId)
_SOURCE_TAGS = frozenset(t.value for t in genfun.SOURCES)

# Acceptance criterion 4 of the test suite holds connection expansions to
# this residual.
CONNECT_TOLERANCE = 1e-9

STATUSES = ("pass", "fail", "flagged", "unresolved-in-paper", "error")
FAILING = ("fail", "error")


# One benchmark operation: calling it returns its record.
Op = Callable[[], dict]


def point_hash(tag: str, q: float, canonical: str) -> str:
    """The record key ``qsk verify`` sorts and reports by."""
    key = f"{tag}|{q:.17g}|{canonical}"
    return hashlib.sha1(key.encode()).hexdigest()[:12]


def _sci(x: float) -> str:
    return f"{x:.6e}"


def _error_record(tag: str, kind: str, q: float, phash: str, exc: QskError) -> dict:
    return {"id": tag, "kind": kind, "q": q, "point_hash": phash,
            "status": "error", "error": type(exc).__name__}


def _verify_op(tag: str, q: float, point, config: SuiteConfig) -> Op:
    kind = ("corollary" if tag in COROLLARY_TAGS
            else "source" if tag in _SOURCE_TAGS else "identity")
    phash = point_hash(tag, q, point.canonical())
    ctx = config.context(q)

    def run() -> dict:
        try:
            if kind == "corollary":
                rep = orthofunc.verify_corollary(tag, point, ctx)
            elif kind == "source":
                rep = genfun.verify_source(tag, point, ctx)
            else:
                rep = genfun.verify_identity(tag, point, ctx)
        except QskError as exc:
            return _error_record(tag, kind, q, phash, exc)
        if kind == "corollary" and orthofunc.is_flagged(tag):
            status = "unresolved-in-paper"
        elif not rep.in_domain:
            status = "flagged"
        elif rep.rel_residual <= config.tolerance:
            status = "pass"
        else:
            status = "fail"
        return {
            "id": tag, "kind": kind, "q": q, "point_hash": phash,
            "status": status,
            "lhs": rep.lhs, "rhs": rep.rhs,
            "abs_residual": _sci(rep.abs_residual),
            "rel_residual": _sci(rep.rel_residual),
            "n_terms_outer": rep.n_terms_outer,
            "n_terms_inner": rep.n_terms_inner,
        }

    return run


def verify_ops(tags, q_grid, points: int, seed: str) -> list[Op]:
    """The ops of ``qsk verify --tags ... --q-grid ... --points ...``, in
    the order ``run_suite`` visits them."""
    config = SuiteConfig(tags=tuple(tags), q_grid=tuple(q_grid))
    ops = []
    for tag in tags:
        for qi, q in enumerate(q_grid):
            rng = Random(f"{seed}:{tag}:{qi}")
            for _ in range(points):
                if tag in COROLLARY_TAGS:
                    point = orthofunc.sample_corollary_point(tag, rng, q)
                else:
                    point = genfun.sample_point(tag, rng, q)
                ops.append(_verify_op(tag, q, point, config))
    return ops


def _signed(rng: Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


# Parameter ranges follow the connection tests of the suite.  Functions
# are named, and looked up at call time, so a tracer can rebind them.
_CONNECTIONS = {
    "aw": ("aw_connection", lambda rng, q: tuple(
        _signed(rng, 0.05, 0.6) for _ in range(4)) + (_signed(rng, 0.08, 0.6),)),
    "cqu": ("ultra_connection", lambda rng, q: (
        _signed(rng, 0.1, 0.85), _signed(rng, 0.1, 0.85))),
    "lql": ("lql_connection", lambda rng, q: (
        rng.uniform(0.1, 0.9 / q), rng.uniform(0.1, 0.9 / q))),
    "qlag": ("qlag_connection", lambda rng, q: (
        rng.uniform(-0.75, 2.5), rng.uniform(-0.75, 2.5))),
}


def _connect_op(family: str, n: int, args: tuple, q: float) -> Op:
    tag = f"CONNECT_{family.upper()}"
    build = _CONNECTIONS[family][0]
    phash = point_hash(tag, q, f"n={n};" + ";".join(f"{a:.17g}" for a in args))

    def run() -> dict:
        try:
            resid = connect.expansion_residual(getattr(connect, build)(n, *args, q))
        except QskError as exc:
            return _error_record(tag, "connection", q, phash, exc)
        return {
            "id": tag, "kind": "connection", "q": q, "point_hash": phash,
            "status": "pass" if resid <= CONNECT_TOLERANCE else "fail",
            "rel_residual": _sci(resid),
        }

    return run


def connect_ops(seed: str, degrees: dict[str, range], draws: dict[str, int]) -> list[Op]:
    """Each family at each of its degrees, ``draws[family]`` parameter
    draws per degree."""
    ops = []
    for family, family_degrees in degrees.items():
        for n in family_degrees:
            rng = Random(f"{seed}:connect:{family}:{n}")
            for _ in range(draws[family]):
                q = rng.uniform(0.3, 0.75)
                ops.append(_connect_op(family, n, _CONNECTIONS[family][1](rng, q), q))
    return ops


# q-Laguerre expansions of high degree with target beta well above source
# alpha are ill-conditioned in double precision.  Over 10,000 draws from the
# ranges above, 3 degree-8 expansions missed 1e-9 (worst 2.9e-9) while the
# worst at degree 7 was 5.6e-11; from degree 9 residuals reach 1e-3.
# The benchmark's listed workloads must have no failing op, so
# connect_expand stops at degree 7 for q-Laguerre, and connect_qlag_high
# counts the failures of degrees 8..16.
_CONNECT_DEGREES = {"aw": range(17), "cqu": range(17), "lql": range(17),
                    "qlag": range(8)}
_CONNECT_DRAWS = {"aw": 3, "cqu": 3, "lql": 3, "qlag": 6}


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[str], list[Op]]
    tolerance: float
    # Trace groups that must record calls, or the tracer missed a binding.
    must_hit: tuple[str, ...]


_VERIFY_TOLERANCE = SuiteConfig(tags=()).tolerance
_ORTHO_GROUPS = tuple(f"orthofunc.{k.value}" for k in orthofunc.FunctionalKind)
_VERIFY_MUST_HIT = ("genfun.verify", *_ORTHO_GROUPS, "bhs.eval_phi",
                    "qpoch.poch_infinite")
_CONNECT_MUST_HIT = ("connect.coeffs", "connect.residual", "qpoch.poch_finite")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_q05",
                 lambda s: verify_ops(IDENTITY_TAGS + COROLLARY_TAGS, (0.5,), 5, s),
                 _VERIFY_TOLERANCE, _VERIFY_MUST_HIT),
        Workload("genfun_mid_q",
                 lambda s: verify_ops(IDENTITY_TAGS, (0.4, 0.65), 10, s),
                 _VERIFY_TOLERANCE, ("genfun.verify", "bhs.eval_phi", "qpoch.poch_finite")),
        Workload("connect_expand",
                 lambda s: connect_ops(s, _CONNECT_DEGREES, _CONNECT_DRAWS),
                 CONNECT_TOLERANCE, _CONNECT_MUST_HIT),
        Workload("verify_q09",
                 lambda s: verify_ops(IDENTITY_TAGS + COROLLARY_TAGS, (0.9,), 5, s),
                 _VERIFY_TOLERANCE, _VERIFY_MUST_HIT),
        Workload("connect_qlag_high",
                 lambda s: connect_ops(s, {"qlag": range(8, 17)}, {"qlag": 6}),
                 CONNECT_TOLERANCE, _CONNECT_MUST_HIT),
    )
}


def build_pass(workload: Workload, seed: int, k: int) -> list[Op]:
    """Pass k of the workload, in a seeded shuffled order so that a run
    cut short mid-pass still samples the whole op mix."""
    ops = workload.build(str(seed) if k == 0 else f"{seed}/{k}")
    Random(f"{seed}:order:{k}").shuffle(ops)
    return ops
