"""Command-line surface: eval/connect examples, the verify report
contract, exit codes, and determinism."""

import hashlib
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path
from random import Random

import pytest

import qsk
from qsk.cli import SuiteConfig, _point_hash, _record, main, report_to_json, run_suite
from qsk.connect import (
    aw_connection,
    expansion_residual,
    lql_connection,
    qlag_connection,
    ultra_connection,
)
from qsk.errors import QskError
from qsk.genfun import SOURCES, IdentityId, sample_point, verify_identity, verify_source
from qsk.orthofunc import CorollaryId, sample_corollary_point, verify_corollary

COROLLARY_TAGS = [c.value for c in CorollaryId]
ALL_TAGS = [t.value for t in IdentityId] + COROLLARY_TAGS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_examples(capsys):
    code, out, _ = run(capsys, "eval", "--family", "cqu", "--n", "0",
                       "--x", "0.5", "--beta", "0.4", "--q", "0.5")
    assert code == 0 and "value = 1" in out
    code, out, _ = run(capsys, "eval", "--family", "qlag", "--n", "1",
                       "--x", "1", "--alpha", "0", "--q", "0.5")
    assert code == 0 and "value = 0" in out
    code, out, _ = run(capsys, "eval", "--family", "lql", "--n", "1",
                       "--x", "0.5", "--a", "0.5", "--q", "0.5")
    assert code == 0 and "0.333333333333333" in out


def test_eval_invalid_parameters_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--family", "cqu", "--n", "1",
                       "--x", "0.5", "--beta", "1.4", "--q", "0.5")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "eval", "--family", "aw", "--n", "1",
                       "--x", "0.5", "--q", "0.5")
    assert code == 2  # missing a, b, c, d
    code, _, err = run(capsys, "eval", "--family", "cqu", "--n", "31",
                       "--x", "1.5", "--beta", "0.4", "--q", "0.5")
    assert code == 2 and "|x| <= 1" in err


def test_out_of_range_values_exit_2(capsys):
    for n, x, q in (("60", "0.7", "0.5"), ("240", "0.5", "0.05"), ("250", "-0.5", "0.05"),
                    ("60", "-0.5", "0.5")):
        code, _, err = run(capsys, "eval", "--family", "lql", "--n", n,
                           "--x", x, "--a", "0.5", "--q", q)
        assert code == 2 and "range" in err, (n, x, q)
    # 1/x would overflow the first term of the scaled 2phi0, but p_5(x) is
    # 1 in double precision, and the defining sum reads it
    code, out, _ = run(capsys, "eval", "--family", "lql", "--n", "5",
                       "--x", "5e-324", "--a", "0.5", "--q", "0.5")
    assert code == 0 and out.splitlines()[-1] == "value = 1"
    code, _, err = run(capsys, "connect", "--family", "qlag", "--n", "100",
                       "--alpha", "-0.9", "--beta", "2.5", "--q", "0.05")
    assert code == 2 and "range" in err
    # recurrence values beyond double range
    code, _, err = run(capsys, "eval", "--family", "qlag", "--n", "60",
                       "--x", "1e200", "--alpha", "0.5", "--q", "0.5")
    assert code == 2 and "range" in err
    code, _, err = run(capsys, "eval", "--family", "aw", "--n", "300", "--x", "0.3",
                       "--a", "1e100", "--b", "0.3", "--c", "0.1", "--d", "0.4",
                       "--q", "0.5")
    assert code == 2 and "range" in err
    # a non-finite x
    for family, x, flags in (("cqu", "nan", ("--beta", "0.5")),
                             ("aw", "nan", ("--a", "0.3", "--b", "0.2", "--c", "0.1",
                                            "--d", "0.05")),
                             ("qlag", "inf", ("--alpha", "0.5")),
                             ("lql", "nan", ("--a", "0.5"))):
        code, out, err = run(capsys, "eval", "--family", family, "--n", "3",
                             "--x", x, *flags, "--q", "0.5")
        assert code == 2 and "value" not in out and x in err, (family, err)


def test_connect_identity_collapse(capsys):
    code, out, _ = run(capsys, "connect", "--family", "cqu", "--n", "3",
                       "--beta", "0.4", "--gamma", "0.4", "--q", "0.5")
    assert code == 0
    # single surviving entry (degree 3, coefficient 1)
    lead = [ln for ln in out.splitlines() if ln.strip().startswith("3")]
    assert any("1" in ln for ln in lead)
    assert "cumulative residual" in out
    final = out.strip().splitlines()[-1]
    assert float(final.split()[-1]) < 1e-10


def test_connect_parity_structure(capsys):
    code, out, _ = run(capsys, "connect", "--family", "cqu", "--n", "4",
                       "--beta", "0.3", "--gamma", "0.6", "--q", "0.5")
    assert code == 0
    degrees = [int(ln.split()[0]) for ln in out.splitlines()
               if ln.strip() and ln.strip()[0].isdigit()]
    assert degrees == [4, 2, 0]


@pytest.mark.parametrize("family,values,build", [
    ("aw", dict(a=0.3, b=0.2, c=0.1, d=0.05, alpha=0.25), aw_connection),
    ("cqu", dict(beta=0.3, gamma=0.6), ultra_connection),
    ("lql", dict(a=0.5, b=0.25), lql_connection),
    ("qlag", dict(alpha=0.5, beta=1.25), qlag_connection),
])
def test_connect_last_residual_is_expansion_residual(capsys, family, values, build):
    """The last cumulative residual printed is expansion_residual of the
    whole expansion, in the same format."""
    flags = [f for k, v in values.items() for f in (f"--{k}", str(v))]
    code, out, _ = run(capsys, "connect", "--family", family, "--n", "4", *flags,
                       "--q", "0.5")
    assert code == 0
    exp = build(4, *values.values(), 0.5)
    assert out.strip().splitlines()[-1].split()[-1] == f"{expansion_residual(exp):.3e}"


def test_connect_invalid_exit_2(capsys):
    code, _, err = run(capsys, "connect", "--family", "qlag", "--n", "2",
                       "--alpha", "0.5", "--q", "0.5")
    assert code == 2 and "beta" in err
    # a bad target value is refused under the target's name, before any row
    for family, flags, named, source in (
            ("cqu", ("--beta", "0.3", "--gamma", "1.5"), "gamma must lie", "beta"),
            ("qlag", ("--alpha", "0.5", "--beta", "nan"), "beta must exceed", "alpha"),
            ("lql", ("--a", "0.5", "--b", "nan"), "got b=nan", "a="),
            ("aw", ("--a", "0.3", "--b", "0.2", "--c", "0.1", "--d", "0.05",
                    "--alpha", "nan"), "parameter alpha must be finite", "parameter a ")):
        code, out, err = run(capsys, "connect", "--family", family, "--n", "3", *flags,
                             "--q", "0.5")
        assert code == 2 and out == "" and named in err and source not in err, (family, err)
    # alpha bcd = 1, so (alpha bcd; q)_2 = (1; q)_2 = 0 in the k = 0 denominator
    code, out, err = run(capsys, "connect", "--family", "aw", "--n", "2", "--a", "0.3",
                         "--b", "0.5", "--c", "0.5", "--d", "0.5", "--alpha", "8",
                         "--q", "0.5")
    assert (code, out, err) == (2, "", "error: vanishing denominator Pochhammer at k=0\n")


def test_list_identities(capsys):
    code, out, _ = run(capsys, "list-identities")
    assert code == 0
    for want in ("T2", "SRC_AW_14113", "C_AW", "C29", "unresolved-in-paper"):
        assert want in out


class _ClosedPipe:
    """A stdout whose reader has gone: ``fails`` names the call that
    raises, as a write past the pipe buffer or the final flush would."""

    def __init__(self, fails):
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.fails == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fails", ["write", "flush"])
def test_closed_stdout_exits_quietly(capsys, monkeypatch, fails):
    """qsk list-identities | head -3: a reader that closes the pipe early
    ends the command with the SIGPIPE status 141 and no traceback."""
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", _ClosedPipe(fails))
        code = main(["list-identities"])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_unwritable_out_exits_2(tmp_path, capsys):
    """A report path in a missing directory is a bad parameter: one error
    line and exit 2, not a traceback and the status of failed checks."""
    out_path = tmp_path / "missing" / "r.json"
    code, _, err = run(capsys, "verify", "--tags", "T3", "--points", "1",
                       "--out", str(out_path))
    assert code == 2
    assert err.startswith("error: ") and str(out_path) in err
    assert "Traceback" not in err and not out_path.parent.exists()


def test_verify_empty_tags(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, _, err = run(capsys, "verify", "--tags", "", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["records"] == []
    assert report["summary"]["total"] == 0


def test_verify_empty_q_grid_exit_2(tmp_path, capsys):
    """A grid with no q would write a report with no records and exit 0,
    certifying nothing; it is refused as --points 0 is, and no report is
    written.  An empty tag list stays allowed (above)."""
    out_path = tmp_path / "r.json"
    for grid in ("", " , "):
        code, _, err = run(capsys, "verify", "--tags", "T3", "--q-grid", grid,
                           "--out", str(out_path))
        assert code == 2 and "q-grid must name at least one q" in err
    assert not out_path.exists()
    with pytest.raises(ValueError, match="q-grid"):
        SuiteConfig(tags=(), q_grid=())
    assert SuiteConfig(tags=()).q_grid == (0.5,)


def test_verify_default_t3_passes_at_1e7(tmp_path, capsys):
    out_path = tmp_path / "t3.json"
    code, _, _ = run(capsys, "verify", "--tags", "T3", "--q-grid", "0.4,0.65",
                     "--points", "4", "--seed", "7", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["schema_version"] == "qsk-report/1"
    assert report["summary"]["failed"] == 0
    for rec in report["records"]:
        assert rec["status"] == "pass"
        assert float(rec["rel_residual"]) < 1e-7


def test_verify_echoes_max_terms(tmp_path, capsys):
    """The record tolerance and both caps are constants, echoed as they
    were when they were settings."""
    out_path = tmp_path / "terms.json"
    code, _, _ = run(capsys, "verify", "--tags", "T3", "--points", "1",
                     "--out", str(out_path))
    assert code == 0
    config = json.loads(out_path.read_text())["config"]
    assert (config["tolerance"], config["outer_cap"], config["max_terms"]) == (
        "1.000000e-07", 2048, 10000)


def test_verify_c29_flagged_never_fails(tmp_path, capsys):
    out_path = tmp_path / "c29.json"
    code, _, _ = run(capsys, "verify", "--tags", "C29", "--points", "2",
                     "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["summary"]["failed"] == 0
    assert all(r["status"] == "unresolved-in-paper" for r in report["records"])


def test_verify_determinism(tmp_path, capsys):
    args = ["verify", "--tags", "T3,T13,C33", "--q-grid", "0.5", "--points",
            "3", "--seed", "123"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(p1))[0] == 0
    assert run(capsys, *args, "--out", str(p2))[0] == 0
    r1 = json.loads(p1.read_text())
    r2 = json.loads(p2.read_text())
    r1.pop("generated_at")
    r2.pop("generated_at")
    assert r1 == r2


def test_verify_unknown_tag_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--tags", "T99")
    assert code == 2 and "unknown tag" in err


def test_verify_caps_below_one_exit_2(capsys):
    """The removed settings are refused as unknown flags."""
    for flag, value in (("--max-terms", "500"), ("--outer-cap", "4"),
                        ("--tolerance", "1e-7")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tags", "T3", flag, value])
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_record_schema(tmp_path, capsys):
    out_path = tmp_path / "one.json"
    run(capsys, "verify", "--tags", "T13", "--points", "1", "--out", str(out_path))
    rec = json.loads(out_path.read_text())["records"][0]
    assert set(rec) == {
        "id", "kind", "q", "point", "point_hash", "lhs", "rhs",
        "abs_residual", "rel_residual", "n_terms_outer", "n_terms_inner",
        "in_domain", "status",
    }
    assert isinstance(rec["lhs"], list) and len(rec["lhs"]) == 2
    assert "e" in rec["rel_residual"]  # scientific notation
    for name, pair in rec["point"].items():
        assert name == name.lower()
        assert len(pair) == 2


def test_suite_config_validation():
    from qsk.errors import PreconditionViolation

    with pytest.raises(PreconditionViolation):
        SuiteConfig(tags=("T3",), q_grid=(1.5,))
    with pytest.raises(ValueError):
        SuiteConfig(tags=("NOPE",))
    with pytest.raises(ValueError):
        SuiteConfig(tags=("T3",), points_per_identity=0)


# sha256 of the sorted (id, point_hash, status, n_terms_outer, n_terms_inner)
# tuples of the default report: 205 records at q = 0.5.  A change that is
# meant to move a status or a truncation order updates this digest and
# says why in CHANGES.md; any other change must leave it as it is.
DEFAULT_REPORT_SHAPE = "b30369c9837670db0b7485480fb5f2f0ad4d64b3ada4c11984c4d34c8661856b"
# The same digest of the default tags and points at the ends of the clean
# q range; each report is 200 pass + 5 unresolved-in-paper.
REPORT_SHAPE_AT_Q = {
    0.05: "0e30f4f2fd654a8b36c64229755e1ee034cbbc8a7bcf15bfd852453d8dd16bb7",
    0.8: "ee23dfb426395812fc7ff3279fd4ff1cac5e9735788170f5b71c619f05980a4c",
}
# sha256 of the sorted (id, point_hash, float.hex of lhs [re, im], float.hex
# of rhs [re, im]) tuples of the default report: every bit of every value.
DEFAULT_REPORT_VALUES = "f0af94d9f3ad8c899c494ff3cdbcaf50f7262398f815b80be57cc2f89471e76c"


def _digest(rows) -> str:
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


def _records(q_grid=(0.5,)) -> list[dict]:
    records = run_suite(SuiteConfig(tags=tuple(ALL_TAGS), q_grid=q_grid))["records"]
    assert len(records) == 205
    return records


def _report_shape(records) -> str:
    return _digest((r["id"], r["point_hash"], r["status"], r["n_terms_outer"],
                    r["n_terms_inner"]) for r in records)


def test_default_report_shape_is_pinned():
    records = _records()
    assert _report_shape(records) == DEFAULT_REPORT_SHAPE
    bits = lambda pair: tuple(float.hex(v) for v in pair)
    assert _digest((r["id"], r["point_hash"], bits(r["lhs"]), bits(r["rhs"]))
                   for r in records) == DEFAULT_REPORT_VALUES


@pytest.mark.parametrize("q", list(REPORT_SHAPE_AT_Q))
def test_report_shape_is_pinned_off_the_default_q(q):
    assert _report_shape(_records((q,))) == REPORT_SHAPE_AT_Q[q]


# The same digest where the default sweep does not pass everywhere, with a
# QskError captured per record as ("error", class name) in place of the
# record run_suite would abort on, and the status counts and error
# records it holds.  No point is re-seeded or dropped.
SWEEP_SHAPE_AT_Q = {
    0.9: "4b19d4a3620cc32cb125c4213c613a13cdfb92e459baa2b644e6872e66137fd9",
    0.95: "029b221b4b7f6e26aa24741d98b0809bcc296049ad2ced29026d903f309553d0",
}
SWEEP_COUNTS_AT_Q = {
    0.9: {"pass": 195, "fail": 3, "error": 2, "unresolved-in-paper": 5},
    0.95: {"pass": 183, "fail": 12, "error": 5, "unresolved-in-paper": 5},
}
SWEEP_ERRORS_AT_Q = {
    0.9: [("C_CQU_6", "846ac31ca4ef"), ("C_CQU_6", "9a1eb505721b")],
    0.95: [("C_AW", "853a169d81f2"), ("C_AW", "ec7483f12b2b"), ("C_CQU_2", "d13590085943"),
           ("C_CQU_6", "2e25acd4c2ef"), ("C_CQU_6", "c9d22345ea87")],
}


def _sweep(q: float) -> list[tuple]:
    """The sorted (id, point_hash, status, n_terms_outer, n_terms_inner)
    of run_suite's records at one q, an error record carrying
    ("error", class name) as its status and no truncation orders."""
    config = SuiteConfig(tags=tuple(ALL_TAGS), q_grid=(q,))
    ctx = config.context(q)
    shape = []
    for tag in config.tags:
        rng = Random(f"{config.seed}:{tag}:0")
        for _ in range(config.points_per_identity):
            if tag in COROLLARY_TAGS:
                kind, point = "corollary", sample_corollary_point(tag, rng, q)
                check = verify_corollary
            else:
                kind = "source" if IdentityId(tag) in SOURCES else "identity"
                point = sample_point(tag, rng, q)
                check = verify_source if kind == "source" else verify_identity
            try:
                r = _record(kind, check(tag, point, ctx))
            except QskError as exc:
                shape.append((tag, _point_hash(tag, q, point),
                              ("error", type(exc).__name__), None, None))
            else:
                shape.append((r["id"], r["point_hash"], r["status"],
                              r["n_terms_outer"], r["n_terms_inner"]))
    return sorted(shape)


@pytest.mark.parametrize("q", list(SWEEP_SHAPE_AT_Q))
def test_sweep_shape_and_statuses_are_pinned_near_q_one(q):
    shape = _sweep(q)
    assert len(shape) == 205
    assert hashlib.sha256(repr(shape).encode()).hexdigest() == SWEEP_SHAPE_AT_Q[q]
    counts = Counter(s if isinstance(s, str) else s[0] for _, _, s, _, _ in shape)
    assert counts == SWEEP_COUNTS_AT_Q[q]
    errors = [(t, h, s) for t, h, s, _, _ in shape if not isinstance(s, str)]
    assert errors == [(t, h, ("error", "QuadratureNonConvergence"))
                      for t, h in SWEEP_ERRORS_AT_Q[q]]


def test_run_suite_python_api():
    cfg = SuiteConfig(tags=("SRC_LQL_142011",), q_grid=(0.5,), seed=2,
                      points_per_identity=2)
    report = run_suite(cfg)
    assert report["summary"]["total"] == 2
    assert report["summary"]["failed"] == 0
    text = report_to_json(report)
    assert text.endswith("\n")
    json.loads(text)


def test_package_exports_are_consistent():
    """Every name in qsk.__all__ resolves, and every public attribute of
    the package other than its submodules is listed there."""
    for name in qsk.__all__:
        assert hasattr(qsk, name), name
    public = {name for name, value in vars(qsk).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(qsk.__all__)


def test_import_does_not_load_numpy():
    """The runtime depends on the standard library alone: neither numpy nor
    mpmath (the tests' oracle) is loaded by the command-line module."""
    src = str(Path(qsk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsk.cli; print([m for m in ('numpy', 'mpmath') if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
