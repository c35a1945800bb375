"""One workload in one process: set up, run the timed (or traced) loop,
check every output, and print the result as one JSON line.

Started by run.py with the thread counts already pinned.  It prints a line
``ready`` when set-up is done (run.py times process start to that line),
and with --setup-only exits right there.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "CHRONOSLYAP_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import chronoslyap as cl
import chronoslyap.cli as cli_module

import calib
import reference as ref
import tracer as tracing
import workloads as wl

#: Percentile of the per-job calibrated times reported as job_tail_ms.
TAIL_PCT = 80

#: Passes of the job list a timed run makes at least.
MIN_PASSES = 2

#: Per-layer metric names (trace mode), in BENCHMARK.json order.
SPAN_LAYERS = ("transition.sweep", "transition.regressivity",
               "lyapunov.stationary", "lyapunov.expm", "lyapunov.pointwise",
               "tscalc.stack_delta", "verify.simulate", "verify.trace",
               "stability.report", "cli", "timescale.build_grid")
ERROR_CLASSES = {"lyapunov.stationary": ("SpotCheckFailed",),
                 "verify.simulate": (),
                 "verify.trace": ("SpotCheckFailed",),
                 "cli": ()}


def _api(tracer=None):
    calls = {"build_grid": cl.build_grid,
             "solve_tsdle_stationary": cl.solve_tsdle_stationary,
             "simulate": cl.simulate,
             "lyapunov_trace": cl.lyapunov_trace,
             "cli_main": cli_module.main}
    if tracer is not None:
        calls = {name: tracer.wrap(tracing.TOP_LEVEL[name][0], fn,
                                   tracing.TOP_LEVEL[name][1])
                 for name, fn in calls.items()}
    return SimpleNamespace(**calls)


class Runner:
    """Runs jobs of one workload and keeps the failure and error records."""

    def __init__(self, workload: str):
        self.is_cli = workload == "cli_algebraic"
        self.attempted = 0
        self.failed = 0
        self.missed = 0
        self.max_err: dict[str, float] = {}
        self.bytes_written = 0
        self.warning_count = 0
        self.error_classes: dict[str, int] = {}

    def run(self, api, job, tracer=None):
        """Time one job; returns (seconds, calibration scale, outputs or
        None if it raised).  Warnings are recorded (into the tracer's log
        when tracing), never printed."""
        gc.collect()
        before = calib.kernel_seconds()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.warning_log = caught
            start = time.perf_counter()
            try:
                out = (wl.run_cli if self.is_cli else wl.run_certify)(api, job)
            except Exception as exc:  # a failed job is a result, not a crash
                out = None
                name = type(exc).__name__
                self.error_classes[name] = self.error_classes.get(name, 0) + 1
            seconds = time.perf_counter() - start
        self.warning_count += len(caught)
        return seconds, calib.scale(before, calib.kernel_seconds()), out

    def check(self, job, out) -> bool:
        """Gate one job's outputs; False when it raised or missed."""
        self.attempted += 1
        if out is None:
            self.failed += 1
            return False
        try:
            errs = (wl.check_cli if self.is_cli else wl.check_certify)(job, out)
        except (AssertionError, ValueError, OSError) as exc:
            errs = {"check": float("inf")}
            print(f"check failed: {exc}", file=sys.stderr)
        if self.is_cli:
            self.bytes_written += sum(p.stat().st_size for p in out.iterdir())
        for layer, err in errs.items():
            self.max_err[layer] = max(self.max_err.get(layer, 0.0), err)
        if max(errs.values()) > ref.REL_TOL:
            self.failed += 1
            self.missed += 1
            return False
        return True


def _setup(args):
    workload = wl.WORKLOADS[args.workload]
    blocks = 1 if args.smoke else None
    jobs = wl.make_jobs(cl, workload, args.seed, Path(args.workdir), blocks)
    warm, api = Runner(args.workload), _api()
    for cls in dict.fromkeys(workload.block):
        warm.run(api, next(job for job in jobs if job.cls == cls))
    return jobs


def timed_loop(args, jobs) -> dict:
    """Whole passes of the job list until --seconds of job time and
    MIN_PASSES passes are done.  A job's time is the median over the passes
    of its calibrated time (see calib.py)."""
    runner = Runner(args.workload)
    api = _api()
    scaled = [[] for _ in jobs]
    raw = [[] for _ in jobs]
    ok = [True] * len(jobs)
    measured, passes = 0.0, 0
    min_passes = 1 if args.smoke else MIN_PASSES
    while passes < min_passes or measured < args.seconds:
        for i, job in enumerate(jobs):
            seconds, factor, out = runner.run(api, job)
            measured += seconds
            raw[i].append(seconds)
            scaled[i].append(seconds * factor)
            ok[i] = runner.check(job, out) and ok[i]
        passes += 1
    per_job = [statistics.median(times) for times in scaled]
    raw_per_job = [statistics.median(times) for times in raw]
    metrics = {
        "setup_s": (None, "s"),   # filled in by run.py
        "jobs_per_s": (sum(ok) / sum(per_job), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(per_job), "ms"),
        "job_tail_ms": (1e3 * _percentile(per_job, TAIL_PCT), "ms"),
        "success_frac": (1.0 - runner.failed / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    return _result(runner, metrics, extra={
        "jobs": len(jobs), "passes": passes, "measured_s": measured,
        "job_ms": [[job.cls, job.n, round(1e3 * t, 1)]
                   for job, t in zip(jobs, per_job)],
        "raw_jobs_per_s": sum(ok) / sum(raw_per_job),
        "raw_job_p50_ms": 1e3 * statistics.median(raw_per_job),
        "raw_job_tail_ms": 1e3 * _percentile(raw_per_job, TAIL_PCT),
        "failed_frac": runner.failed / runner.attempted,
        "errors": runner.error_classes, "warnings": runner.warning_count,
    })


def _percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(pct / 100.0 * len(ordered))))
    return ordered[rank - 1]


def traced_loop(args, jobs) -> dict:
    """Whole passes of the job list, each job untraced and traced in
    alternating order; counts and self times are per pass, and the
    overhead compares calibrated traced and untraced job times."""
    runner, plain = Runner(args.workload), Runner(args.workload)
    tracer = tracing.Tracer()
    plain_api, traced_api = _api(), _api(tracer)
    plain_s = traced_s = wall_s = 0.0
    passes = 0
    while passes == 0 or (traced_s + plain_s < args.seconds and not args.smoke):
        for i, job in enumerate(jobs):
            traced_first = (i + passes) % 2 == 1
            if not traced_first:
                plain_s += _scaled(plain.run(plain_api, job))
            tracer.begin_job()
            tracer.install(tracing.TARGETS)
            try:
                seconds, factor, out = runner.run(traced_api, job, tracer)
            finally:
                tracer.uninstall()
            wall_s += seconds
            traced_s += seconds * factor
            if passes == 0:
                runner.check(job, out)
            if traced_first:
                plain_s += _scaled(plain.run(plain_api, job))
        passes += 1
    return _result(runner, _layer_metrics(tracer, runner, passes, wall_s,
                                          traced_s / plain_s - 1.0),
                   extra={"passes": passes, "jobs": len(jobs),
                          "layer_errors": {f"{l}.errors.{c}": v / passes
                                           for (l, c), v in tracer.errors.items()}})


def _scaled(run_result) -> float:
    seconds, factor, _ = run_result
    return seconds * factor


def _layer_metrics(tr, runner, passes, wall_s, overhead) -> dict:
    def per_pass(value):
        return value / passes

    m = {}
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = (per_pass(tr.self_s[layer]), "s")
        m[f"{layer}.calls"] = (per_pass(tr.calls[layer]), "count")
    m["transition.sweep.points"] = (per_pass(tr.counters["transition.sweep.points"]), "count")
    m["transition.sweep.repeat_share"] = (tr.repeat_share("transition.sweep"), "ratio")
    m["lyapunov.pointwise.series_terms"] = (
        per_pass(tr.counters["lyapunov.pointwise.series_terms"]), "count")
    m["lyapunov.pointwise.kronecker_calls"] = (
        per_pass(tr.counters["lyapunov.pointwise.kronecker_calls"]), "count")
    m["lyapunov.pointwise.key_repeat_share"] = (tr.repeat_share("lyapunov.pointwise"), "ratio")
    m["timescale.grid_points"] = (per_pass(tr.counters["timescale.grid_points"]), "count")
    for layer, classes in ERROR_CLASSES.items():
        named = 0
        for cls in classes:
            count = tr.errors.get((layer, cls), 0)
            named += count
            m[f"{layer}.errors.{cls}"] = (per_pass(count), "count")
        total = sum(v for (l, _), v in tr.errors.items() if l == layer)
        m[f"{layer}.errors.other"] = (per_pass(total - named), "count")
        m[f"{layer}.warnings"] = (per_pass(tr.warnings[layer]), "count")
    m["lyapunov.stationary.spot_check_max"] = (tr.maxima["lyapunov.stationary.spot_check_max"], "ratio")
    m["verify.trace.agreement_max"] = (tr.maxima["verify.trace.agreement_max"], "ratio")
    for layer in ("lyapunov.stationary", "verify.simulate", "lyapunov.pointwise"):
        m[f"{layer}.max_rel_err"] = (runner.max_err.get(layer, 0.0), "ratio")
    m["cli.bytes_written"] = (runner.bytes_written, "bytes")
    m["failed_frac"] = (runner.failed / runner.attempted, "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["trace.wall_s"] = (per_pass(wall_s), "s")
    m["trace.hooks_s"] = (per_pass(tr.hooks_s), "s")
    m["trace.harness_s"] = (per_pass(wall_s - tr.top_s), "s")
    return m


def _result(runner, metrics, extra) -> dict:
    return {
        "correct": runner.missed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {**extra, "max_rel_err": runner.max_err, "env": _env()},
    }


def _env() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # layout of show_config differs between numpy versions
        blas = None
    import scipy

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "CHRONOSLYAP_THREADS")}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(cl.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"chronoslyap imported from {src}, not from this checkout",
              file=sys.stderr)
        return 2
    jobs = _setup(args)
    print("ready", flush=True)
    print(f"calib {calib.kernel_seconds()!r}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_loop(args, jobs)
    else:
        result = timed_loop(args, jobs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
