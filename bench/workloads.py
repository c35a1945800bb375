"""The benchmark's three closed-loop workloads: inputs made from the seed,
one job at a time through the public chronoslyap API, and a check of each
job's outputs against the scipy-only references.

Job lists interleave the classes in fixed blocks, so any run of whole
blocks has the stated class mix.  Each class cycles through its state
dimensions and spreads its eigenvalues over fixed strata; the seed draws
eigenvectors, cost matrices, jitter and initial states.  That keeps the
cost of a pass of the list nearly the same from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

#: Reported grid points (or CSV rows) compared per output.
SAMPLES = 8

#: Trajectories simulated and traced per certification job.
TRAJECTORIES = 5


@dataclass
class Job:
    cls: str
    n: int
    A: np.ndarray                    # constant A, or the first schedule piece
    M: np.ndarray
    window: object                   # TimeScaleWindow (certify jobs only)
    segments: list
    step: float = 0.01
    tail_tol: float = 1e-8
    x0s: list = field(default_factory=list)
    sample_seed: int = 0
    schedule: tuple | None = None    # (times, mats) for a hold-last A
    files: dict = field(default_factory=dict)


# -- random systems --------------------------------------------------------------


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _spd(rng, n):
    q = _orthogonal(rng, n)
    return q @ np.diag(rng.uniform(0.4, 2.0, size=n)) @ q.T


def _strata(rng, n, lo, hi):
    """n values spread over (lo, hi): one per stratum, jittered."""
    pos = (np.arange(n) + 0.5 + rng.uniform(-0.05, 0.05, size=n)) / n
    return lo + (hi - lo) * pos


def _symmetric(rng, eigs):
    q = _orthogonal(rng, len(eigs))
    return q @ np.diag(eigs) @ q.T


def _alternate(vals):
    return vals * np.where(np.arange(len(vals)) % 2 == 0, 1.0, -1.0)


# -- workload table --------------------------------------------------------------

# name: canonical kind, window, kwargs, dense step, tail_tol, eigenvalue law
DENSE = {
    "reals": ("reals", (0.0, 5.0), {}, 0.0015, 0.02,
              lambda rng, n: -_strata(rng, n, 0.6, 1.2)),
    "pulse": ("pulse", (0.0, 6.0), {"a": 1.0, "b": 1.0}, 0.001, 0.1,
              lambda rng, n: -_strata(rng, n, 0.35, 0.8)),
    "stiff": ("reals", (0.0, 3.0), {}, 0.01, 0.02,
              lambda rng, n: -_strata(rng, n, 5.0, 30.0)),
}

# Per-step factors 1 + mu*lambda decay the state by e^-10 to e^-60 over each
# window: slow enough that the whole window carries signal, fast enough that
# the truncation tail stays below tail_tol = 1e-6.
SCATTERED = {
    "integers": ("integers", (0.0, 2000.0), {},
                 lambda rng, n: _alternate(np.exp(-_strata(rng, n, 0.008, 0.03))) - 1.0),
    "h_uniform": ("h_uniform", (0.0, 100.0), {"h": 0.05},
                  lambda rng, n: (_alternate(np.exp(-_strata(rng, n, 0.008, 0.03))) - 1.0) / 0.05),
    "quantum": ("quantum", (1.0, 50.0), {"q": 1.002},
                lambda rng, n: -_strata(rng, n, 0.25, 0.8)),
    "explicit": ("explicit", None, {},
                 lambda rng, n: -_strata(rng, n, 0.1, 0.3)),
}

#: The CLI's default --dense-step, which the CLI jobs leave in place.
CLI_STEP = 0.01

CLI_SCALES = {
    "pulse": {"kind": "pulse", "a": 1.0, "b": 0.5, "window": [0.0, 40.0]},
    "quantum": {"kind": "quantum", "q": 1.01, "window": [1.0, 40.0]},
    "explicit": None,  # about 600 points with gaps U(0.02, 0.1)
}


@dataclass(frozen=True)
class Workload:
    name: str
    block: tuple          # class order inside one block
    blocks: int           # blocks in one pass of the job list
    dims: tuple           # state dimensions each class cycles through


WORKLOADS = {
    "certify_dense": Workload("certify_dense",
                              ("reals", "pulse", "stiff", "reals", "pulse"),
                              6, (1, 2, 3)),
    "certify_scattered": Workload("certify_scattered",
                                  ("integers", "h_uniform", "quantum", "explicit"),
                                  6, (1, 2, 3)),
    "cli_algebraic": Workload("cli_algebraic", ("pulse", "quantum", "explicit"),
                              8, (2, 4, 6, 8)),
}


def _random_points(rng, count, lo, hi):
    pts = np.cumsum(rng.uniform(lo, hi, size=count))
    return [(float(p), float(p)) for p in pts]


def make_jobs(cl, workload: Workload, seed: int, workdir: Path,
              blocks: int | None = None) -> list[Job]:
    """The fixed job list of one pass, generated from ``seed``."""
    rng = np.random.default_rng(seed)
    seen: dict[str, int] = {}
    jobs = []
    for _ in range(workload.blocks if blocks is None else blocks):
        for cls in workload.block:
            k = seen.get(cls, 0)
            seen[cls] = k + 1
            n = workload.dims[k % len(workload.dims)]
            if workload.name == "cli_algebraic":
                job = _cli_job(rng, cls, n, k, workdir / f"job{len(jobs)}")
            else:
                job = _certify_job(cl, rng, workload.name, cls, n)
            jobs.append(job)
    return jobs


def _certify_job(cl, rng, workload: str, cls: str, n: int) -> Job:
    if workload == "certify_dense":
        kind, window, kwargs, step, tail_tol, eigs = DENSE[cls]
    else:
        kind, window, kwargs, eigs = SCATTERED[cls]
        step, tail_tol = 1.0, 1e-6
    A = _symmetric(rng, eigs(rng, n))
    M = _spd(rng, n)
    if kind == "explicit":
        segments = _random_points(rng, 2000, 0.02, 0.1)
        w = cl.TimeScaleWindow(tuple(segments))
    else:
        segments = ref.canonical_segments(kind, window, **kwargs)
        w = cl.make_canonical(kind, window, **kwargs)
    x0s = [x / np.linalg.norm(x) for x in rng.normal(size=(TRAJECTORIES, n))]
    return Job(cls=cls, n=n, A=A, M=M, window=w, segments=segments, step=step,
               tail_tol=tail_tol, x0s=x0s,
               sample_seed=int(rng.integers(2**31)))


def _cli_job(rng, cls: str, n: int, k: int, jobdir: Path) -> Job:
    spec = CLI_SCALES[cls]
    if spec is None:
        segments = _random_points(rng, 600, 0.02, 0.1)
        spec = {"kind": "explicit", "segments": [[a, b] for a, b in segments]}
    else:
        kwargs = {key: spec[key] for key in ("h", "q", "a", "b") if key in spec}
        segments = ref.canonical_segments(spec["kind"], spec["window"], **kwargs)
    mu_max = max(segments[j + 1][0] - segments[j][1]
                 for j in range(len(segments) - 1))
    t0, t1 = segments[0][0], segments[-1][1]
    # constant and scheduled A alternate, so that over two cycles of the
    # dimensions every n gets both
    pieces = 4 if (k + k // 4) % 2 else 1

    def hilger_stable():
        # eigenvalues of I + mu_max A at radii in (0.1, 0.8): inside the
        # Hilger disk of every graininess of the scale
        radii = _alternate(_strata(rng, n, 0.1, 0.8))
        return _symmetric(rng, (radii - 1.0) / mu_max)

    mats = [hilger_stable() for _ in range(pieces)]
    times = [t0 + (t1 - t0) * i / pieces for i in range(pieces)]
    M = _spd(rng, n)
    jobdir.mkdir(parents=True, exist_ok=True)
    if pieces == 1:
        system = {"n": n, "A": {"constant": mats[0].tolist()}}
    else:
        system = {"n": n, "A": {"schedule": [[t, m.tolist()]
                                             for t, m in zip(times, mats)]}}
    files = {"ts": jobdir / "ts.json", "system": jobdir / "system.json",
             "stability_system": jobdir / "stability_system.json",
             "cost": jobdir / "cost.json", "out": jobdir / "out"}
    files["ts"].write_text(json.dumps(spec))
    files["system"].write_text(json.dumps(system))
    # `stability` needs a constant A: a schedule job reports its first piece
    files["stability_system"].write_text(
        json.dumps({"n": n, "A": {"constant": mats[0].tolist()}}))
    files["cost"].write_text(json.dumps({"n": n, "M": {"constant": M.tolist()}}))
    return Job(cls=cls, n=n, A=mats[0], M=M, window=None, segments=segments,
               sample_seed=int(rng.integers(2**31)),
               schedule=(np.array(times), np.stack(mats)) if pieces > 1 else None,
               files=files)


# -- running a job ---------------------------------------------------------------


class CliExit(Exception):
    """A CLI command returned a nonzero exit code."""


def run_certify(api, job: Job):
    grid = api.build_grid(job.window, job.step)
    sol = api.solve_tsdle_stationary(job.A, job.M, job.window, job.window.t0,
                                     tail_tol=job.tail_tol, grid=grid)
    states = []
    for x0 in job.x0s:
        traj = api.simulate(job.A, job.window, x0, grid=grid)
        api.lyapunov_trace(sol, traj)
        states.append(traj.states)
    return sol, states


def run_cli(api, job: Job):
    f = {key: str(path) for key, path in job.files.items()}
    for argv in (
        ["solve-tsale", "--ts", f["ts"], "--system", f["system"],
         "--cost", f["cost"], "--out", f["out"]],
        ["stability", "--ts", f["ts"], "--system", f["stability_system"],
         "--plot-data", "--out", f["out"]],
    ):
        code = api.cli_main(argv)
        if code != 0:
            raise CliExit(f"{argv[0]} exited with {code}")
    return job.files["out"]


# -- checks (outside the timed region) ----------------------------------------------


def _sample(rng, count: int) -> np.ndarray:
    picks = {0, count - 1, *rng.integers(0, count, size=SAMPLES - 2).tolist()}
    return np.array(sorted(picks))


def check_certify(job: Job, outputs) -> dict:
    """Worst relative errors of P and of the states against the references."""
    sol, states = outputs
    rng = np.random.default_rng(job.sample_seed)
    idx = _sample(rng, len(sol.times))
    times = sol.times[idx]
    P_ref = ref.stationary_reference(job.A, job.M, job.segments, times)
    phis = ref.transition_reference(job.A, job.segments, times)
    return {
        "lyapunov.stationary": max(ref.rel_err(sol.values[i], P)
                                   for i, P in zip(idx, P_ref)),
        "verify.simulate": max(ref.states_error(phis, x0, s[idx])
                               for x0, s in zip(job.x0s, states)),
    }


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_cli(job: Job, out: Path) -> dict:
    """Worst relative errors of sampled solve-tsale rows and of the reported
    spectrum; also the bytes the two commands left in the output directory."""
    header, rows = _read_csv(out / "tsale.csv")
    n = job.n
    # one row per grid point of step CLI_STEP, the window end excluded
    expected = sum(math.ceil((hi - lo) / CLI_STEP - 1e-9) + 1 if hi > lo else 1
                   for lo, hi in job.segments) - 1
    if len(rows) != expected:
        raise AssertionError(f"tsale.csv has {len(rows)} rows, not {expected}")
    rng = np.random.default_rng(job.sample_seed)
    worst_p = 0.0
    for i in _sample(rng, len(rows)):
        t = float(rows[i][0])
        P = np.array([float(v) for v in rows[i][1:1 + n * n]]).reshape(n, n)
        A = job.A
        if job.schedule is not None:
            times, mats = job.schedule
            A = mats[max(int(np.searchsorted(times, t, side="right")) - 1, 0)]
        mu = ref.graininess(job.segments, t)
        worst_p = max(worst_p, ref.rel_err(P, ref.algebraic_reference(A, job.M, mu)))

    _, eig_rows = _read_csv(out / "eigenvalues.csv")
    got = np.sort_complex(np.array([complex(float(r[0]), float(r[1]))
                                    for r in eig_rows]))
    want = np.sort_complex(np.linalg.eigvals(job.A).astype(complex))
    worst_eig = float(np.max(np.abs(got - want)) / max(1.0, np.abs(want).max()))
    _, disk_rows = _read_csv(out / "disks.csv")
    if sum(r[2] == "eigenvalue" for r in disk_rows) != n:
        raise AssertionError("disks.csv does not list the spectrum")
    return {"lyapunov.pointwise": worst_p, "stability.report": worst_eig}
