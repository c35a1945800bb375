"""chronoslyap benchmark.

    python3 bench/run.py --workload certify_dense --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn

Run from the repository root.  Each workload runs in its own worker
process (bench/worker.py) that imports chronoslyap from ./src with BLAS and
the CLI thread pool pinned to one thread.  Set-up (interpreter start,
imports, input generation, one warm-up job per class) is timed from process
start to the worker's ``ready`` line, in SETUP_SAMPLES processes, and
reported as the median.  The timed loop runs whole passes over the fixed
job list, one job at a time, until --seconds of job time and at least
two passes are done; each job's time is its best over the passes, and
every job's outputs are checked against scipy-only references outside the
timed region.  With --trace 1 the worker instead runs whole passes with
spans around the calls between chronoslyap modules (each job also once
untraced, for the overhead) and reports per-layer metrics per pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are
``#``-prefixed: each metric by name and unit, and the environment.
``python3 -m pytest bench`` runs the benchmark's self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "CHRONOSLYAP_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads, here and in every worker

import calib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("certify_dense", "certify_scattered", "cli_algebraic")

#: Set-up is measured this many times per run (one of them is the worker
#: that goes on to run the timed loop).
SETUP_SAMPLES = 3

#: A run must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _spawn(argv, deadline: float) -> tuple[float, list[str]]:
    """Run one worker; returns (calibrated seconds from start to its
    ``ready`` line, its stdout lines).  The worker is killed at the
    deadline."""
    before = calib.kernel_seconds()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready_s = None
    lines = []
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == "ready":
                ready_s = time.perf_counter() - start
            lines.append(line.rstrip("\n"))
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready_s is None:
        raise BenchError(f"worker {argv[:2]} exited with code {code}")
    # the worker runs the calibration kernel right after ``ready``
    after = float(lines[lines.index("ready") + 1].split()[1])
    return ready_s * calib.scale(before, after), lines


def run_workload(args, name: str, deadline: float) -> tuple[dict, dict]:
    workdir = ROOT / ".benchwork" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    base = ["--workload", name, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir)] + (["--smoke"] if args.smoke else [])
    try:
        setups = []
        if not (args.trace or args.smoke):
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(base + ["--setup-only"], deadline)[0])
        ready_s, lines = _spawn(base, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = json.loads(lines[-1])
    info = result.pop("info")
    if "setup_s" in result["metrics"]:
        setups.append(ready_s)
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        info["setup_samples_s"] = setups
    return result, info


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_loc = sum(len(p.read_text(encoding="utf-8").splitlines())
                  for p in (ROOT / "src" / "chronoslyap").glob("*.py"))
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
            "src_loc": src_loc}


def _terminate(signum, frame):
    # unwinds through _spawn's finally, which kills and reaps the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one block of jobs, no set-up samples (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chronoslyap" / "__init__.py").is_file():
        print(f"no chronoslyap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    env = environment()
    results = {}
    try:
        for name in names:
            result, info = run_workload(args, name, deadline)
            results[name] = result
            env.update(info.pop("env"))
            print(f"# {name}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"#   {metric} = {m['value']:.6g} {m['unit']}")
            print(f"# {name} info: {json.dumps(info, sort_keys=True)}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
