"""Self-tests of the benchmark, on one block of jobs per workload.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import worker  # noqa: E402  (pins the thread counts, puts ./src on the path)
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMED = (".self_s", "trace.")


@functools.cache
def smoke(workload: str, trace: int, seed: int = 3, repeat: int = 0) -> dict:
    """One smoke run, cached; ``repeat`` only tells otherwise equal runs
    apart."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_names_the_runnable_workloads():
    assert WORKLOADS == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(workload, trace, section):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_bypass_counts():
    cli = smoke("cli_algebraic", 1)["metrics"]
    assert cli["transition.sweep.calls"]["value"] == 0
    assert cli["lyapunov.pointwise.calls"]["value"] > 0
    for workload in ("certify_dense", "certify_scattered"):
        m = smoke(workload, 1)["metrics"]
        assert m["lyapunov.pointwise.calls"]["value"] == 0
        assert m["transition.sweep.calls"]["value"] > 0


def test_stiff_class_fails_in_the_stationary_solve():
    m = smoke("certify_dense", 1)["metrics"]
    # one block holds one stiff job out of five
    assert m["failed_frac"]["value"] == pytest.approx(0.2)
    assert m["lyapunov.stationary.errors.SpotCheckFailed"]["value"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counters(workload):
    first = smoke(workload, 1)["metrics"]
    second = smoke(workload, 1, repeat=1)["metrics"]
    counts = [name for name in first if not any(t in name for t in TIMED)]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_gate_rejects_perturbed_stationary_P(tmp_path):
    jobs = wl.make_jobs(worker.cl, wl.WORKLOADS["certify_dense"], 5, tmp_path,
                        blocks=1)
    job = next(j for j in jobs if j.cls == "pulse")
    sol, states = wl.run_certify(worker._api(), job)
    errs = wl.check_certify(job, (sol, states))
    assert max(errs.values()) <= ref.REL_TOL
    sol.values[:] *= 1.0 + 1e-4
    assert wl.check_certify(job, (sol, states))["lyapunov.stationary"] > ref.REL_TOL


def test_gate_rejects_perturbed_tsale_rows(tmp_path):
    jobs = wl.make_jobs(worker.cl, wl.WORKLOADS["cli_algebraic"], 5, tmp_path,
                        blocks=1)
    job = next(j for j in jobs if j.cls == "explicit")
    out = wl.run_cli(worker._api(), job)
    assert max(wl.check_cli(job, out).values()) <= ref.REL_TOL
    path = out / "tsale.csv"
    lines = path.read_text().splitlines()
    n2 = job.n * job.n
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[1:1 + n2] = [repr(float(c) * (1.0 + 1e-4)) for c in cells[1:1 + n2]]
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n")
    assert wl.check_cli(job, out)["lyapunov.pointwise"] > ref.REL_TOL


def test_references_agree_with_closed_forms():
    # integers: the truncated Stein sum against scipy's Stein solver
    rng = np.random.default_rng(0)
    A = np.diag([-0.5, -1.5])
    M = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
    M = M @ M.T
    segments = ref.canonical_segments("integers", (0.0, 60.0))
    P = ref.stationary_reference(A, M, segments, [0.0])[0]
    np.testing.assert_allclose(P, ref.algebraic_reference(A, M, 1.0), rtol=1e-12)
    # reals: the Van Loan Gramian against the continuous Lyapunov solve
    P = ref.stationary_reference(A, M, [(0.0, 80.0)], [0.0])[0]
    np.testing.assert_allclose(P, ref.algebraic_reference(A, M, 0.0), rtol=1e-10)


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
