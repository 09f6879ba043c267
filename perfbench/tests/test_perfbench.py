"""Checks on the benchmark itself: the per-op runner against ``qsk verify``,
the tracer's loud failures, the correctness anchor and BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import anchor
import run
import tracer
import workloads
from qsk import EvalContext, cli, genfun
from qsk.errors import QskError

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_COMPARED = ("status", "abs_residual", "rel_residual", "n_terms_outer", "n_terms_inner")


def _run_pass(name: str, seed: int = 1) -> list[dict]:
    return [op() for op in workloads.build_pass(workloads.WORKLOADS[name], seed, 0)]


def test_verify_q05_reproduces_run_suite():
    tags = workloads.IDENTITY_TAGS + workloads.COROLLARY_TAGS
    want = cli.run_suite(cli.SuiteConfig(tags=tags))["records"]
    got = sorted(_run_pass("verify_q05"), key=lambda r: (r["id"], r["point_hash"]))
    assert len(got) == len(want) == 205
    for g, w in zip(got, want):
        assert (g["id"], g["point_hash"]) == (w["id"], w["point_hash"])
        assert {k: g[k] for k in _COMPARED} == {k: w[k] for k in _COMPARED}


def test_q09_error_is_a_record_not_an_abort():
    config = cli.SuiteConfig(tags=("C_CQU_6",), q_grid=(0.9,))
    with pytest.raises(QskError):
        cli.run_suite(config)
    records = [op() for op in workloads.verify_ops(("C_CQU_6",), (0.9,), 5, "1")]
    assert len(records) == 5
    errors = [r for r in records if r["status"] == "error"]
    assert [r["error"] for r in errors] == ["QuadratureNonConvergence"] * 2


def test_listed_workloads_have_no_failing_ops_at_seed_1():
    for name in ("genfun_mid_q", "connect_expand"):
        statuses = {r["status"] for r in _run_pass(name)}
        assert statuses == {"pass"}, name


def test_trace_changes_no_record_and_reports_every_metric():
    records, same, metrics = run.traced(workloads.WORKLOADS["connect_expand"], 1)
    assert same
    assert len(records) == 201
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: tracer.unit_of(name) for name in metrics}
    assert metrics["connect.coeffs.calls"] == 201
    assert metrics["orthofunc.cont_interval.nodes"] == 0
    assert metrics["polyfam.askey_wilson.degree_sum"] > 0


def test_trace_restores_original_bindings():
    original = genfun.eval_phi
    point = genfun.sample_point("T3", Random(0), 0.5)
    t = tracer.Tracer()
    with t:
        assert genfun.eval_phi is not original
        genfun.verify_identity("T3", point, EvalContext(q=0.5))
    assert genfun.eval_phi is original
    assert t.stats["genfun.verify"]["calls"] == 1
    assert t.stats["bhs.eval_phi"]["calls"] > 0


def test_trace_fails_on_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (
        ("bhs.gone", "qsk.bhs", "no_such_function", None),))
    with pytest.raises(tracer.TraceError, match="no_such_function"):
        tracer.Tracer()


def test_trace_fails_when_a_required_layer_is_silent():
    with pytest.raises(tracer.TraceError, match="connect.coeffs"):
        tracer.Tracer().require(("connect.coeffs",))


def test_anchor_agrees_with_mpmath():
    pytest.importorskip("mpmath")
    assert anchor.check() == []


def test_anchor_catches_a_wrong_value(monkeypatch):
    pytest.importorskip("mpmath")
    monkeypatch.setattr(anchor, "poch_infinite", lambda a, q: 1.0)
    assert len(anchor.check()) == 4


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_q05",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
