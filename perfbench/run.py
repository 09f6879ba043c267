"""qsk benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify_q05 [--seed 1] [--seconds 35] [--trace 0]
    python3 perfbench/run.py --workload all

Run from anywhere; qsk is imported from the ``src/`` directory next to
``perfbench/``.  With ``--trace 0`` the workload is repeated, pass after
pass with fresh points, for ``--seconds`` (and at least one whole pass),
and the last line of output is a JSON object with the end-to-end
metrics, times rescaled to a reference speed (see CALIBRATION_REF_S).
With ``--trace 1`` each op of one pass runs both untraced and traced, and
the JSON object holds the per-layer metrics.  ``--workload all`` runs
every workload in a fresh process and prints a table.  perfbench/README.md
lists the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# numpy's leggauss solves an eigenproblem through BLAS.  Parent and change
# must run with the same thread count, and one thread is both faster and
# steadier than two on a small shared machine, so the benchmark fixes it.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9

# The host's speed was seen to swing by up to 1.7x within a minute (other
# tenants share the cores), which no run length averages away.  So a fixed
# pure-Python calibration loop is timed before every timed step, and each
# reported time is rescaled to the speed at which that loop takes
# CALIBRATION_REF_S, its typical time on a 2-core x86-64 virtual machine:
#     reported = measured * CALIBRATION_REF_S / local loop time,
# the local loop time being the median of the CALIBRATION_WINDOW samples
# nearest the step.  The raw wall figures are printed in the summary line.
CALIBRATION_REF_S = 70e-6
CALIBRATION_REPEATS = 3
CALIBRATION_WINDOW = 9
_SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import numpy, qsk; print('ready', flush=True)")

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms",
                    "resid_margin_dec": "dec", "setup_s": "s", "peak_rss_mb": "MB"}


def _calibration_loop() -> complex:
    # a Pochhammer-style complex product: the kind of interpreter work qsk does
    z, out, t = complex(0.3, 0.1), complex(1.0), 1.0
    for _ in range(400):
        out *= 1.0 - z * t
        t *= 0.97
    return out


def calibration_sample() -> float:
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        _calibration_loop()
    return (time.perf_counter() - t0) / CALIBRATION_REPEATS


def rescale(times: list[float], samples: list[float]) -> list[float]:
    """Each time at the reference speed, judged by the calibration samples
    taken nearest it (``samples[i]`` was taken just before ``times[i]``)."""
    h = CALIBRATION_WINDOW // 2
    return [t * CALIBRATION_REF_S / statistics.median(samples[max(0, i - h):i + h + 1])
            for i, t in enumerate(times)]


def measure_setup() -> tuple[float, float]:
    """Median time from starting a fresh interpreter until it has imported
    numpy and qsk, the price every ``qsk`` command pays.  Returns (rescaled,
    raw wall) seconds."""
    times, samples = [], []
    env = {**os.environ, **THREAD_ENV}
    for _ in range(SETUP_SAMPLES):
        samples.append(calibration_sample())
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed to import qsk")
    return statistics.median(rescale(times, samples)), statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def margin_dec(records, tolerance: float) -> float:
    """log10(tolerance / worst passing residual): the accuracy headroom."""
    worst = max(float(r["rel_residual"]) for r in records if r["status"] == "pass")
    return math.log10(tolerance / max(worst, 1e-300))


def run_op(op) -> tuple[dict, float]:
    t0 = time.perf_counter()
    record = op()
    return record, time.perf_counter() - t0


def timed(workload, seed: int, seconds: float):
    """Repeat the workload for ``seconds``, completing pass 0 at least.
    Returns (records, per-op latencies, the calibration sample taken before
    each op, wall seconds, accuracy margin)."""
    from workloads import build_pass

    records, latencies, samples, margins = [], [], [], []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        ops = build_pass(workload, seed, k)
        # keep the records gathered so far out of the collector's way, so
        # its pauses do not grow with the run
        gc.collect()
        gc.freeze()
        done = []
        for op in ops:
            samples.append(calibration_sample())
            record, dt = run_op(op)
            done.append(record)
            latencies.append(dt)
            if k > 0 and time.perf_counter() - start >= seconds:
                break
        if len(done) == len(ops):
            margins.append(margin_dec(done, workload.tolerance))
        records += done
        k += 1
    wall = time.perf_counter() - start
    return records, latencies, samples, wall, statistics.median(margins)


def traced(workload, seed: int):
    """Run each op of pass 0 untraced and traced, alternating which goes
    first so neither side gains from running second.  Returns (traced
    records, records equal?, per-layer metrics)."""
    from tracer import Tracer
    from workloads import build_pass

    tracer = Tracer()
    plain, under_trace = [], []
    for i, op in enumerate(build_pass(workload, seed, 0)):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                with tracer:
                    under_trace.append(run_op(op))
            else:
                plain.append(run_op(op))
    tracer.require(workload.must_hit)
    plain_s = sum(dt for _, dt in plain)
    traced_s = sum(dt for _, dt in under_trace)
    records = [r for r, _ in under_trace]
    same = repr([r for r, _ in plain]) == repr(records)
    metrics = tracer.metrics()
    metrics["driver.unattributed_s"] = traced_s - tracer.top_level_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return records, same, metrics


def metadata(args) -> dict:
    import numpy
    import qsk

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "qsk_file": qsk.__file__, "git_commit": commit,
    }


def run_one(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print("meta " + json.dumps(metadata(args), sort_keys=True), flush=True)
    if args.trace:
        from tracer import unit_of

        records, same, metrics = traced(workload, args.seed)
        units = {name: unit_of(name) for name in metrics}
        if not same:
            print("error: the traced pass produced different records", file=sys.stderr)
    else:
        setup_s, setup_wall = measure_setup()
        records, latencies, samples, wall, margin = timed(
            workload, args.seed, args.seconds)
        rss = peak_rss_mb()
        scaled = rescale(latencies, samples)
        metrics = {"ops_per_s": len(scaled) / sum(scaled),
                   "op_p50_ms": statistics.median(scaled) * 1e3,
                   "op_p95_ms": statistics.quantiles(scaled, n=20)[18] * 1e3,
                   "resid_margin_dec": margin, "setup_s": setup_s,
                   "peak_rss_mb": rss}
        units = END_TO_END_UNITS
        same = True
        raw = {"ops_per_s": len(latencies) / sum(latencies),
               "op_p50_ms": statistics.median(latencies) * 1e3,
               "op_p95_ms": statistics.quantiles(latencies, n=20)[18] * 1e3,
               "setup_s": setup_wall, "loop_wall_s": wall,
               "speed_factor": CALIBRATION_REF_S / statistics.median(samples)}
    # the anchor imports mpmath, so it runs after peak RSS is read
    import anchor

    anchor_failures = anchor.check()
    for line in anchor_failures:
        print(f"anchor mismatch: {line}", file=sys.stderr)
    failed = sum(r["status"] in workloads.FAILING for r in records)
    summary = {"ops": len(records), "fail_frac": failed / len(records),
               "statuses": {s: sum(r["status"] == s for r in records)
                            for s in workloads.STATUSES}}
    if not args.trace:
        summary["unscaled"] = raw
    print("summary " + json.dumps(summary, sort_keys=True), flush=True)
    result = {
        "correct": same and not anchor_failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter; prints one row each."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        summary = next(line for line in lines if line.startswith("summary "))
        fail_frac = json.loads(summary[len("summary "):])["fail_frac"]
        shown = " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                         for k, v in result["metrics"].items())
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"fail_frac={fail_frac:.4f} {shown}", flush=True)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qsk" / "__init__.py").is_file():
        print(f"error: no qsk sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import qsk
    import workloads

    if Path(qsk.__file__).resolve().parent != SRC / "qsk":
        print(f"error: qsk resolved to {qsk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
