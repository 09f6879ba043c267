"""Command-line interface: evaluate polynomials, print connection
coefficients, and run the verification suites with a machine-readable
report.

Subcommands
-----------
eval             evaluate one polynomial of one family
connect          print the connection coefficients for one expansion
verify           run identity/corollary suites, write a JSON report
list-identities  show every verifiable tag with its validity domain

Exit codes: 0 success (verify: no non-flagged failures), 1 verify found
failures, 2 invalid parameters or a report file that cannot be written,
3 infrastructure failure inside a suite, 141 stdout closed before all
output was written (qsk list-identities | head -3; the status of a
process ended by SIGPIPE), with no traceback.

Report schema ("qsk-report/1"): lower_snake_case field names, complex
numbers as [re, im] pairs, residuals as scientific-notation strings.
Records are sorted by (tag, point hash), so two runs with the same
config produce identical reports up to the generated_at timestamp.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import ClassVar, Iterator

from . import genfun, orthofunc
from .bhs import OUTER_DOUBLING, SERIES
from .connect import (
    aw_connection,
    lql_connection,
    prefix_residuals,
    qlag_connection,
    ultra_connection,
)
from .context import ParamPoint
from .errors import QskError
from .polyfam import FAMILIES, FamilyId, QBase

SCHEMA_VERSION = "qsk-report/1"

_IDENTITY_TAGS = [t.value for t in genfun.IdentityId]
_COROLLARY_TAGS = [c.value for c in orthofunc.CorollaryId]


@dataclass(frozen=True)
class SuiteConfig:
    """Everything that determines a verification run.  The seed fully
    determines the sampled points, so identical configs produce
    byte-identical reports modulo the timestamp.  A record passes at
    relative residual ``tolerance``, the same for every run."""

    tags: tuple[str, ...]
    q_grid: tuple[float, ...] = (0.5,)
    seed: int = 1
    points_per_identity: int = 5
    tolerance: ClassVar[float] = 1e-7

    def __post_init__(self) -> None:
        if not self.q_grid:  # a run over no q certifies nothing
            raise ValueError("q-grid must name at least one q")
        for q in self.q_grid:
            QBase(q)
        if self.points_per_identity < 1:
            raise ValueError("points-per-identity must be >= 1")
        for tag in self.tags:
            if tag not in _IDENTITY_TAGS and tag not in _COROLLARY_TAGS:
                raise ValueError(f"unknown tag {tag!r}")

    def context(self, q: float) -> QBase:
        """The base of the run at q: the one input of every check besides
        its point.  Everything else is fixed: every sum and refinement
        stops by the rules in ``bhs`` (README, "Stop rules"), infinite
        products are held to 1e-15 (``qpoch``), and a record passes at
        relative residual ``tolerance`` (1e-7)."""
        return QBase(q)


def _c2pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _sci(x: float) -> str:
    return f"{x:.6e}"


def _point_hash(tag: str, q: float, point: ParamPoint) -> str:
    key = f"{tag}|{q:.17g}|{point.canonical()}"
    return hashlib.sha1(key.encode()).hexdigest()[:12]


def draws(config: SuiteConfig) -> Iterator[tuple[str, float, ParamPoint]]:
    """The run's points as (tag, q, point), in run order: for each tag and
    each q of the grid, ``points_per_identity`` points drawn from
    ``Random(f"{seed}:{tag}:{qi}")``, qi the index of q in the grid."""
    for tag in config.tags:
        sample = (orthofunc.sample_corollary_point if tag in _COROLLARY_TAGS
                  else genfun.sample_point)
        for qi, q in enumerate(config.q_grid):
            rng = Random(f"{config.seed}:{tag}:{qi}")
            for _ in range(config.points_per_identity):
                yield tag, q, sample(tag, rng, q)


def record(tag: str, q: float, point: ParamPoint) -> dict:
    """The report record of one point: the tag's corollary, source or
    identity check run at ``QBase(q)``, its residual classified at
    ``SuiteConfig.tolerance``.  A ``QskError`` of the check propagates."""
    if tag in _COROLLARY_TAGS:
        kind, check = "corollary", orthofunc.verify_corollary
    elif genfun.IdentityId(tag) in genfun.SOURCES:
        kind, check = "source", genfun.verify_source
    else:
        kind, check = "identity", genfun.verify_identity
    rep = check(tag, point, QBase(q))
    if kind == "corollary" and orthofunc.is_flagged(rep.id):
        status = "unresolved-in-paper"
    elif not rep.in_domain:
        status = "flagged"
    elif rep.rel_residual <= SuiteConfig.tolerance:
        status = "pass"
    else:
        status = "fail"
    return {
        "id": rep.id,
        "kind": kind,
        "q": rep.q,
        "point": {k: _c2pair(v) for k, v in rep.point},
        "point_hash": _point_hash(rep.id, rep.q, rep.point),
        "lhs": _c2pair(rep.lhs),
        "rhs": _c2pair(rep.rhs),
        "abs_residual": _sci(rep.abs_residual),
        "rel_residual": _sci(rep.rel_residual),
        "n_terms_outer": rep.n_terms_outer,
        "n_terms_inner": rep.n_terms_inner,
        "in_domain": rep.in_domain,
        "status": status,
    }


def run_suite(config: SuiteConfig) -> dict:
    """Run every requested tag over the q-grid and assemble the report."""
    records = sorted((record(*d) for d in draws(config)),
                     key=lambda r: (r["id"], r["point_hash"]))
    counts = Counter(r["status"] for r in records)
    worst: dict[str, float] = {}
    for r in records:
        worst[r["id"]] = max(worst.get(r["id"], 0.0), float(r["rel_residual"]))
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            "tags": list(config.tags),
            "q_grid": list(config.q_grid),
            "seed": config.seed,
            "points_per_identity": config.points_per_identity,
            "tolerance": _sci(SuiteConfig.tolerance),
            "outer_cap": OUTER_DOUBLING.cap,
            "max_terms": SERIES.cap,
        },
        "records": records,
        "summary": {
            "total": len(records),
            "passed": counts["pass"],
            "failed": counts["fail"],
            "flagged": len(records) - counts["pass"] - counts["fail"],
            "max_rel_residual_by_tag": {k: _sci(v) for k, v in sorted(worst.items())},
        },
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _flag_values(args, names: tuple[str, ...]) -> list[float]:
    vals = [getattr(args, k) for k in names]
    if any(v is None for v in vals):
        flags = " ".join(f"--{k}" for k in names)
        raise ValueError(f"family {args.family} needs {flags}")
    return vals


def _shown(v: complex, rel: float) -> str:
    if abs(v.imag) < rel * (1 + abs(v)):
        return f"{v.real:.15g}"
    return f"{v.real:.15g}{v.imag:+.15g}j"


def _cmd_eval(args) -> int:
    base = QBase(args.q)
    fam = FAMILIES[FamilyId(args.family)]
    p = fam.params(*_flag_values(args, fam.names), base)
    value = fam.evaluate(args.n, args.x, p)
    print(f"family={args.family} n={args.n} x={args.x} q={args.q}")
    print(f"value = {_shown(value, 1e-12)}")
    return 0


# Each family's connection function and the flags it takes: the source
# parameters, then the replaced (target) one.
_CONNECTIONS = {
    "aw": (aw_connection, ("a", "b", "c", "d", "alpha")),
    "cqu": (ultra_connection, ("beta", "gamma")),
    "lql": (lql_connection, ("a", "b")),
    "qlag": (qlag_connection, ("alpha", "beta")),
}


def _cmd_connect(args) -> int:
    q = args.q
    build, names = _CONNECTIONS[args.family]
    exp = build(args.n, *_flag_values(args, names), q)
    residuals = prefix_residuals(exp)
    print(f"# family={args.family} n={args.n} q={q}")
    print(f"{'degree':>8s}  {'coefficient':>24s}  {'cumulative residual':>20s}")
    for (deg, v), resid in zip(exp.coefficients, residuals[1:]):
        print(f"{deg:8d}  {_shown(v, 1e-13):>24s}  {resid:20.3e}")
    return 0


def _cmd_verify(args) -> int:
    if args.tags.strip().lower() == "all":
        tags = tuple(_IDENTITY_TAGS + _COROLLARY_TAGS)
    elif args.tags.strip() == "":
        tags = ()
    else:
        tags = tuple(s.strip() for s in args.tags.split(",") if s.strip())
    config = SuiteConfig(
        tags=tags,
        q_grid=tuple(float(s) for s in args.q_grid.split(",") if s.strip()),
        seed=args.seed,
        points_per_identity=args.points,
    )
    try:
        report = run_suite(config)
    except QskError as exc:
        print(f"suite infrastructure failure: {exc}", file=sys.stderr)
        return 3
    text = report_to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    s = report["summary"]
    print(
        f"total={s['total']} passed={s['passed']} failed={s['failed']} "
        f"flagged={s['flagged']}",
        file=sys.stderr,
    )
    return 0 if s["failed"] == 0 else 1


def _cmd_list(_args) -> int:
    print(f"{'tag':18s} {'kind':12s} {'built on':16s} domain")
    for row in genfun.list_identities():
        print(f"{row['tag']:18s} {row['kind']:12s} {row['source']:16s} {row['domain']}")
    for row in orthofunc.list_corollaries():
        note = f" [{row['flagged']}]" if row["flagged"] else ""
        print(f"{row['tag']:18s} {'corollary':12s} {row['theorem']:16s} "
              f"{row['kind']}{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qsk",
        description="numerical kernel for basic hypergeometric orthogonal polynomials",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_family_args(p, with_x: bool):
        p.add_argument("--family", required=True, choices=("aw", "cqu", "lql", "qlag"))
        p.add_argument("--n", type=int, required=True)
        if with_x:
            p.add_argument("--x", type=float, required=True)
        p.add_argument("--q", type=float, required=True)
        for name in ("a", "b", "c", "d", "alpha", "beta", "gamma"):
            p.add_argument(f"--{name}", type=float, default=None)

    pe = sub.add_parser("eval", help="evaluate one polynomial")
    add_family_args(pe, with_x=True)
    pe.set_defaults(fn=_cmd_eval)

    pc = sub.add_parser("connect", help="print connection coefficients")
    add_family_args(pc, with_x=False)
    pc.set_defaults(fn=_cmd_connect)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--tags", default="all",
                    help="comma-separated tags, or 'all' (default)")
    pv.add_argument("--q-grid", dest="q_grid", default="0.5")
    pv.add_argument("--seed", type=int, default=1)
    pv.add_argument("--points", type=int, default=5,
                    help="points per (tag, q) pair")
    pv.add_argument("--out", default=None, help="report path (default stdout)")
    pv.set_defaults(fn=_cmd_verify)

    pl = sub.add_parser("list-identities", help="list verifiable tags")
    pl.set_defaults(fn=_cmd_list)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # an OSError, so it comes before the clause below
        # Point the descriptor at devnull, so that the interpreter's own
        # flush at exit finds nothing to fail on; a stream without a
        # descriptor is left as it is.
        with contextlib.suppress(AttributeError, OSError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141  # 128 + SIGPIPE, as a process that SIGPIPE ended
    except (QskError, ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
