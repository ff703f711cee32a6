#!/usr/bin/env python3
"""viscowave benchmark: closed-loop timing of verified control workloads.

Run from the root of a source checkout (the package is imported from
./src, nothing needs installing):

    python3 perfbench/run.py --workload synth-interval-exp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run is a single-process closed loop: one caller, each op starting after
the previous one has finished and been collected, until the next op would end
past --seconds (at least two ops, so cross-op gates always apply).  Every op is
checked; the run's last stdout line is a JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced ops and reports per-layer metrics from spans recorded by wrappers
installed around the package's entry points (see tracing.py), plus the
tracing overhead.  --smoke runs all workloads at small sizes with both trace
settings and checks the result schema and the correctness gates; it has no
timing gate.

BLAS is pinned to one thread so that a run uses at most the threads its
workload asks for (two, for the Gram thread pool of roundtrip-square-file).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import ROOT_SPAN, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

# (name, unit, better) — the benchmark's metric tables; BENCHMARK.json lists the same.
END_TO_END = [
    ("op_p50_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]
PER_LAYER = [
    ("volterra.march.calls", "count", "lower"),
    ("volterra.march.rows", "count", "lower"),
    ("volterra.march.self_s", "s", "lower"),
    ("volterra.march.mac", "count", "lower"),
    ("volterra.march.gmac_per_s", "GMAC/s", "higher"),
    ("volterra.march.bytes_computed", "B", "lower"),
    ("volterra.march.concurrency", "ratio", "higher"),
    ("control_synthesis.gram.self_s", "s", "lower"),
    ("control_synthesis.eigvalsh.self_s", "s", "lower"),
    ("control_synthesis.solve.self_s", "s", "lower"),
    ("control_synthesis.probe.self_s", "s", "lower"),
    ("control_synthesis.probe.march_rows", "count", "lower"),
    ("control_synthesis.gram_min_eig", "1", "higher"),
    ("control_synthesis.gram_cond", "1", "lower"),
    ("modal_dynamics.kernels.self_s", "s", "lower"),
    ("modal_dynamics.forward.calls", "count", "lower"),
    ("modal_dynamics.forward.self_s", "s", "lower"),
    ("quadrature.convolve.calls", "count", "lower"),
    ("quadrature.convolve.self_s", "s", "lower"),
    ("cli.io.write_s", "s", "lower"),
    ("cli.io.write_bytes", "B", "lower"),
    ("cli.io.read_s", "s", "lower"),
    ("cli.io.read_bytes", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("spectral_basis.build.self_s", "s", "lower"),
    ("memory_kernel.sample.self_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.traced_op_p50_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("bench.accuracy_err", "1", "lower"),
]


def _import_package():
    """Import viscowave from this checkout's src/, or exit 2."""
    if not (SRC / "viscowave" / "__init__.py").is_file():
        print(f"error: no viscowave sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import viscowave

    if not Path(viscowave.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: viscowave imported from {viscowave.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _blas_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return f"{blas.get('name')} {blas.get('version')}", threads


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas, blas_threads = _blas_info()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "threads": threads,
        "git_commit": _git_commit(),
    }


def _setup_seconds(name: str, seed: int, small: bool) -> list[float]:
    """Wall time of fresh interpreters that import and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name]
    cmd += ["--seed", str(seed)] + (["--small"] if small else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed ({proc.returncode}): {proc.stderr.strip()}")
    return samples


def _setup_only(name: str, seed: int, small: bool) -> None:
    from workloads import WORKLOADS

    workdir = OUT / f"setup-{os.getpid()}"
    try:
        WORKLOADS[name](seed, small, workdir).setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_op(workload, tracer):
    """One op: untimed prepare, timed op, untimed collect; returns (seconds, record, spans)."""
    workload.prepare()
    spans = None
    if tracer is not None:
        tracer.install()
        root = tracer.open(ROOT_SPAN)
    try:
        t0 = time.perf_counter()
        raw = workload.op()
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
            spans = tracer.take()
    return elapsed, workload.collect(raw), spans


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Run one workload; returns (result line, detail dict)."""
    from workloads import WORKLOADS

    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[name](seed, small, workdir)
    tracer = Tracer() if trace else None
    try:
        workload.setup()
        setup_samples = _setup_seconds(name, seed, small)

        times, records, traced = [], [], []
        loop_start = time.perf_counter()
        while True:
            traced_op = trace and len(times) % 2 == 1
            try:
                elapsed, record, spans = _run_op(workload, tracer if traced_op else None)
            except Exception:
                # A raising op counts as attempted and failed; keep measuring.
                elapsed, record, spans = math.nan, {"exception": traceback.format_exc()}, None
            times.append(elapsed)
            records.append(record)
            if spans is not None:
                traced.append((elapsed, spans))
            wall = time.perf_counter() - loop_start
            finite = [t for t in times if math.isfinite(t)]
            estimate = statistics.median(finite) if finite else 0.0
            if len(times) >= 2 and wall + estimate > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        verdicts = _judge(workload, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for reasons, _ in verdicts if reasons)
    accuracy = max(err for _, err in verdicts)
    untraced = [t for i, t in enumerate(times) if not (trace and i % 2 == 1) and math.isfinite(t)]
    if trace:
        per_op = [layer_metrics(spans) for _, spans in traced]
        traced_p50 = statistics.median(t for t, _ in traced)
        metrics = {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
        metrics["trace.traced_op_p50_s"] = traced_p50
        metrics["trace.overhead_s"] = traced_p50 - statistics.median(untraced)
        metrics["bench.accuracy_err"] = accuracy
        table = PER_LAYER
    else:
        metrics = {
            "op_p50_s": statistics.median(untraced) if untraced else math.nan,
            "ops_per_s": len(untraced) / sum(untraced) if untraced else math.nan,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_samples),
        }
        table = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit, _ in table},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "small": small,
        "environment": environment(workload.threads),
        "setup_samples_s": setup_samples,
        "op_seconds": times,
        "failed_ratio": failed / len(times),
        "accuracy_err": accuracy,
        "ops": [
            {"traced": bool(trace and i % 2 == 1), "record": rec, "failures": reasons, "error": err}
            for i, (rec, (reasons, err)) in enumerate(zip(records, verdicts))
        ],
        "result": result,
    }
    if trace:
        detail["spans"] = [[s.as_dict() for s in spans] for _, spans in traced]
    return result, detail


def _judge(workload, records):
    """Gate every op; ops that raised, or a judge that raised, count as failed."""
    ok = [rec for rec in records if "exception" not in rec]
    try:
        verdicts = iter(workload.judge(ok) if ok else [])
        return [
            ([rec["exception"].strip().splitlines()[-1]], math.inf)
            if "exception" in rec
            else next(verdicts)
            for rec in records
        ]
    except Exception:
        reason = traceback.format_exc().strip().splitlines()[-1]
        return [([f"judge failed: {reason}"], math.inf) for _ in records]


def _report(detail: dict) -> None:
    """Human-readable lines; the JSON result line is printed separately, last."""
    res = detail["result"]
    print(
        f"# viscowave benchmark workload={detail['workload']} seed={detail['seed']} "
        f"seconds={detail['seconds']} trace={detail['trace']} small={detail['small']}"
    )
    print("# env " + json.dumps(detail["environment"], sort_keys=True))
    print(
        f"# ops attempted={res['attempted']} failed={res['failed']} "
        f"failed_ratio={detail['failed_ratio']:.6g} accuracy_err={detail['accuracy_err']:.3e} "
        f"op_seconds={[round(t, 4) for t in detail['op_seconds']]}"
    )
    for op in detail["ops"]:
        for reason in op["failures"]:
            print(f"# FAILED: {reason}")
    for key, metric in res["metrics"].items():
        print(f"{key:40s} {metric['value']:>16.6g} {metric['unit']}")
    if detail["trace"]:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        op = m["trace.traced_op_p50_s"]
        layers = [k for k in m if k.endswith(".self_s") or k in ("cli.io.write_s", "cli.io.read_s")]
        layers.append("trace.unattributed_s")
        print(
            f"# traced op time attribution (median traced op {op:.4g} s; self times add up "
            f"over threads, march concurrency {m['volterra.march.concurrency']:.3g}):"
        )
        for key in sorted(layers, key=lambda k: -m[k]):
            print(f"#   {key:38s} {m[key]:10.4g} s {100.0 * m[key] / op:6.1f}%")


def _write_detail(detail: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}.json"
    path.write_text(json.dumps(detail, indent=1, default=float) + "\n")


def _check_result(result: dict, trace: bool) -> list[str]:
    """Schema and gate problems of one result line (empty when it is valid)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"gates failed: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    table = PER_LAYER if trace else END_TO_END
    expected = {key: unit for key, unit, _ in table}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for key, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{key} value {value!r}")
        if metric.get("unit") != expected.get(key):
            problems.append(f"{key} unit {metric.get('unit')!r}")
    return problems


def _check_manifest() -> list[str]:
    """BENCHMARK.json must list this file's workloads and metric tables."""
    from workloads import WORKLOADS

    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return ["BENCHMARK.json missing"]
    spec = json.loads(path.read_text())
    problems = []
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if workloads != {name: cls.why for name, cls in WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def smoke(seed: int, seconds: float) -> int:
    from workloads import WORKLOADS

    problems = _check_manifest()
    for name in WORKLOADS:
        for trace in (False, True):
            result, detail = run(name, seed, seconds, trace, small=True)
            _report(detail)
            print(json.dumps(result))
            problems += [f"{name} trace={int(trace)}: {p}" for p in _check_result(result, trace)]
    for p in problems:
        print(f"SMOKE PROBLEM: {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (see workloads.py)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads, small sizes, schema check")
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    if args.smoke:
        return smoke(args.seed, min(args.seconds, 1.0))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.setup_only:
        _setup_only(args.workload, args.seed, args.small)
        return 0
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    _write_detail(detail)
    _report(detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
