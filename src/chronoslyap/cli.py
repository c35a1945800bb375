"""Command-line front end.

Reads one config file per concern (time scale / system / cost), dispatches
the solvers and analyses, and writes machine-readable CSV/JSON artifacts.
Exit codes: 0 success, 1 failed reduction check, 2 validation error (bad
input), 3 numerical failure, 4 internal error (any other exception, a bug);
codes 2-4 also leave an ``error.json`` with the error name in the output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from . import errors as err
from .lyapunov import (
    CostMatrix,
    GramianSolution,
    cdle_direct_solution,
    ddle_recursion_solution,
    solve_tsale_pointwise,
    solve_tsale_series,
    solve_tsdle,
    solve_tsdle_stationary,
    stationary_initial_condition,
    tsale_residual,
)
from .stability import hilger_boundary, stability_report
from .timescale import TimeScaleWindow, build_grid, window_from_spec, window_to_spec
from .transition import SystemMatrix
from .verify import lyapunov_trace, simulate

_VALIDATION_ERRORS = (
    err.InvalidParameter,
    err.EmptyWindow,
    err.NotInTimeScale,
    err.ReversedBounds,
    err.GridMismatch,
    err.NonSymmetricM,
    err.NonSymmetricInput,
    err.NonSymmetric,
    json.JSONDecodeError,
    FileNotFoundError,
)


#: Every number written to a CSV: 17 significant digits, which round-trip.
_CELL = "%.17g"


def _fmt(x) -> str:
    return _CELL % float(x)


def _row_format(row) -> str:
    """The %-format string of one CSV row: strings as they are, numbers as
    :data:`_CELL`."""
    return ",".join("%s" if isinstance(cell, str) else _CELL for cell in row)


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write ``rows`` under ``header``, one %-format call per row.  Every
    row has the column types of the first (a non-finite number is written
    as a number, not as a string)."""
    lines = [",".join(header)]
    if rows:
        fmt = _row_format(rows[0])
        lines += [fmt % tuple(row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_window(path: str) -> TimeScaleWindow:
    return window_from_spec(_load_json(path))


def load_system(path: str) -> SystemMatrix:
    spec = _load_json(path)
    with err.malformed("system spec"):
        n = int(spec["n"])
        block = spec["A"]
        if "constant" in block:
            A = SystemMatrix.from_constant(np.asarray(block["constant"], float))
        elif "schedule" in block:
            times = [float(t) for t, _ in block["schedule"]]
            mats = [np.asarray(m, float) for _, m in block["schedule"]]
            A = SystemMatrix.from_schedule(times, np.stack(mats))
        else:
            raise err.InvalidParameter(
                "system spec needs A.constant or A.schedule")
    if A.n != n:
        raise err.InvalidParameter(f"system spec says n = {n} but A is {A.n}x{A.n}")
    return A


def load_cost(path: str) -> CostMatrix:
    spec = _load_json(path)
    with err.malformed("cost spec"):
        n = int(spec["n"])
        block = spec["M"]
        if "constant" not in block:
            raise err.InvalidParameter("cost spec needs M.constant")
        M = CostMatrix.from_constant(np.asarray(block["constant"], float))
    if M.n != n:
        raise err.InvalidParameter(f"cost spec says n = {n} but M is {M.n}x{M.n}")
    return M


def _load_initial(mode: str, n: int) -> np.ndarray | None:
    """P0 for the dynamic solves; None signals the stationary composition."""
    if mode == "zero":
        return np.zeros((n, n))
    if mode == "stationary":
        return None
    if not mode.startswith("file:"):
        raise err.InvalidParameter(f"unknown --ic mode {mode!r}")
    payload = _load_json(mode[5:])
    with err.malformed("initial-matrix file"):
        P0 = np.asarray(payload["P0"], dtype=float)
    if P0.shape != (n, n):
        raise err.InvalidParameter(f"P0 must be {n}x{n}")
    return P0


def _check_dims(A: SystemMatrix, M: CostMatrix) -> None:
    if A.n != M.n:
        raise err.InvalidParameter(
            f"system is {A.n}x{A.n} but cost is {M.n}x{M.n}"
        )


def _solution_header(n: int) -> list[str]:
    """Columns of a per-point solution CSV: t, row-major P, diagnostics."""
    return (["t"] + [f"P_{i}_{j}" for i in range(n) for j in range(n)]
            + ["residual_norm", "min_eigenvalue"])


def _gramian_rows(sol: GramianSolution) -> tuple[list[str], list[list]]:
    header = _solution_header(sol.values.shape[1])
    rows = [[t, *P.reshape(-1), res if np.isfinite(res) else np.nan, mineig]
            for t, P, res, mineig in zip(sol.times, sol.values, sol.residuals,
                                         sol.min_eigenvalues())]
    return header, rows


# -- subcommands --------------------------------------------------------------


def _cmd_solve_tsale(args) -> int:
    w = load_window(args.ts)
    A = load_system(args.system)
    M = load_cost(args.cost)
    _check_dims(A, M)
    grid = build_grid(w, args.dense_step)
    out = Path(args.out)
    if len(grid) < 2:
        raise err.InvalidParameter("solve-tsale needs at least two grid points")

    # pointwise family: one algebraic solve per grid point, with A and mu
    # frozen at that point; the window end has no forward graininess and is
    # skipped.  M is constant, so points sharing the schedule piece and mu
    # share one solve and its formatted cells.  Keys are numbered in order
    # of first occurrence, so that the first failing key is the one a
    # point-by-point solve would meet first.
    times, mus = grid.times[:-1], grid.mus[:-1]
    mu_values, mu_index = np.unique(mus, return_inverse=True)
    _, first, key_of_row = np.unique(
        A.pieces_at(times) * len(mu_values) + mu_index,
        return_index=True, return_inverse=True)
    order = np.argsort(first)  # keys by first occurrence
    key_of_row = np.argsort(order)[key_of_row]
    first = first[order]
    A_k, mu_k, M_c = A.stack_at(times[first]), mus[first], M.constant

    P = np.empty((len(mu_k), A.n, A.n))
    terms, tails = np.zeros(len(mu_k), dtype=int), np.zeros(len(mu_k))
    stop, failure = len(mu_k), None
    for i in np.flatnonzero(mu_k == 0.0):  # one per schedule piece
        try:
            P[i] = solve_tsale_pointwise(A_k[i], M_c, 0.0)
        except err.ChronosLyapError as exc:
            # raised below, unless a series key before it fails first
            stop, failure = i, exc
            break
    series = np.flatnonzero(mu_k[:stop] > 0.0)
    P[series], terms[series], tails[series] = solve_tsale_series(
        A_k[series], M_c, mu_k[series])
    if failure is not None:
        raise failure

    res = tsale_residual(A_k, P, M_c, mu_k)
    values = np.column_stack([P.reshape(len(P), -1), res,
                              np.linalg.eigvalsh(P)[:, 0]])
    fmt = _row_format(values[0])
    cells = [fmt % tuple(v) for v in values.tolist()]
    rows = [[t, cells[k]] for t, k in zip(times.tolist(), key_of_row.tolist())]

    _write_csv(out / "tsale.csv", _solution_header(A.n), rows)
    _write_json(out / "summary.json", {
        "equation": "TSALE",
        "horizon": int(terms.max()),
        "tail_bound": float(tails.max()),
        "max_residual": float(res.max()),
        "max_relative_residual": float(res.max())
        / max(float(np.linalg.norm(M_c, "fro")), 1e-300),
        "points": len(rows),
        "time_scale": window_to_spec(w),
    })
    return 0


def _cmd_solve_tsdle(args) -> int:
    w = load_window(args.ts)
    A = load_system(args.system)
    M = load_cost(args.cost)
    _check_dims(A, M)
    out = Path(args.out)
    P0 = _load_initial(args.ic, A.n)
    if P0 is None:
        sol = solve_tsdle_stationary(A, M, w, w.t0, tail_tol=args.tail_tol,
                                     dense_step=args.dense_step)
    else:
        sol = solve_tsdle(A, M, P0, w, w.t0, dense_step=args.dense_step)
    header, rows = _gramian_rows(sol)
    _write_csv(out / "tsdle.csv", header, rows)
    _write_json(out / "summary.json", {
        **{k: v for k, v in sol.meta.items() if not isinstance(v, np.ndarray)},
        "time_scale": window_to_spec(w),
    })
    return 0


def _cmd_stationary(args) -> int:
    w = load_window(args.ts)
    A = load_system(args.system)
    M = load_cost(args.cost)
    _check_dims(A, M)
    P0 = stationary_initial_condition(A, M, w, w.t0, tail_tol=args.tail_tol,
                                      dense_step=args.dense_step)
    _write_json(Path(args.out) / "stationary.json", {
        "P0": [[float(x) for x in row] for row in P0],
        "min_eigenvalue": float(np.linalg.eigvalsh(P0)[0]),
        "time_scale": window_to_spec(w),
    })
    return 0


def _cmd_stability(args) -> int:
    w = load_window(args.ts)
    A = load_system(args.system)
    out = Path(args.out)
    grid = build_grid(w, args.dense_step)
    report = stability_report(A, w, grid=grid)

    header = ["Re", "Im", "in_hmin", "gamma_hat", "converged"]
    rows = []
    for e in report.entries:
        rows.append([
            e.lam.real, e.lam.imag, str(e.in_hmin).lower(),
            "-inf" if e.gamma is None else _fmt(e.gamma),
            str(bool(e.diagnostic and e.diagnostic.converged)).lower(),
        ])
    _write_csv(out / "eigenvalues.csv", header, rows)
    _write_json(out / "report.json", {
        "verdict": report.verdict,
        "mu_max": report.hmin.mu_max,
        "hmin_verdict": report.hmin.verdict,
        "eigenvalues": [
            {
                "re": e.lam.real,
                "im": e.lam.imag,
                "in_hmin": e.in_hmin,
                "gamma_hat": e.gamma,
                "converged": bool(e.diagnostic and e.diagnostic.converged),
                "mechanism": e.mechanism,
                "s_r_hit_count": len(e.s_r_hits),
                "uniform_regressivity": {"min": e.reg_min, "max": e.reg_max},
            }
            for e in report.entries
        ],
        "notes": list(report.notes),
        "time_scale": window_to_spec(w),
    })
    if args.plot_data:
        mu_max = report.hmin.mu_max
        rows = []
        if mu_max > 0:
            for z in hilger_boundary(mu_max):
                rows.append([z.real, z.imag, "hmin_boundary"])
        for lam in report.spectrum:
            rows.append([lam.real, lam.imag, "eigenvalue"])
        _write_csv(out / "disks.csv", ["Re", "Im", "kind"], rows)
    return 0


def _parse_x0(raw: str, n: int) -> np.ndarray:
    with err.malformed("--x0"):
        x0 = np.asarray([float(v) for v in raw.split(",")], dtype=float)
    if x0.shape != (n,):
        raise err.InvalidParameter(f"--x0 must have {n} components")
    if not np.isfinite(x0).all():
        raise err.InvalidParameter("--x0 has non-finite entries")
    return x0


def _cmd_simulate(args) -> int:
    w = load_window(args.ts)
    A = load_system(args.system)
    x0 = _parse_x0(args.x0, A.n)
    traj = simulate(A, w, x0, dense_step=args.dense_step)
    header = ["t"] + [f"x_{i}" for i in range(A.n)]
    rows = [
        [t] + list(state) for t, state in zip(traj.times, traj.states)
    ]
    _write_csv(Path(args.out) / "trajectory.csv", header, rows)
    return 0


def _cmd_verify(args) -> int:
    w = load_window(args.ts)
    A = load_system(args.system)
    M = load_cost(args.cost)
    _check_dims(A, M)
    x0 = _parse_x0(args.x0, A.n) if args.x0 else np.ones(A.n)
    out = Path(args.out)
    grid = build_grid(w, args.dense_step)
    sol = solve_tsdle_stationary(A, M, w, w.t0, tail_tol=args.tail_tol,
                                 grid=grid)
    traj = simulate(A, w, x0, grid=grid)
    trace = lyapunov_trace(sol, traj)
    m = len(trace.times)
    header = ["t"] + [f"x_{i}" for i in range(A.n)] + ["V", "V_delta"]
    rows = []
    for k in range(m):
        rows.append(
            [trace.times[k]] + list(traj.states[k])
            + [trace.V[k], trace.V_delta[k] if trace.valid[k] else np.nan]
        )
    _write_csv(out / "trajectory.csv", header, rows)
    _write_json(out / "verify.json", {
        "V_positive": trace.verdicts.V_positive,
        "V_delta_nonpositive": trace.verdicts.V_delta_nonpositive,
        "V_delta_negative": trace.verdicts.V_delta_negative,
        "v_delta_agreement_max": trace.agreement_max,
        "max_residual": sol.meta["max_residual"],
    })
    return 0


def reduce_discrepancies(w_r: TimeScaleWindow, w_z: TimeScaleWindow,
                         A: SystemMatrix, M: CostMatrix,
                         ic_mode: str = "zero", dense_step: float = 0.002,
                         tail_tol: float = 1e-8) -> dict:
    """Max relative gap between the unified dynamic solve and the
    specialized continuous/discrete evaluations on a pair of windows.

    With the stationary initial matrix the comparison covers the leading
    half window only: the seed's truncation tail is amplified along the
    transport at the rate the integrand decays, so the trailing half would
    measure seed noise rather than path agreement.
    """
    if not A.is_constant:
        raise err.InvalidParameter("reduction check requires constant A, M")
    out = {}
    frac = 0.5 if ic_mode == "stationary" else 1.0

    def initial(w):
        P0 = _load_initial(ic_mode, A.n)
        if P0 is None:
            return stationary_initial_condition(
                A, M, w, w.t0, tail_tol=tail_tol, dense_step=dense_step
            )
        return P0

    P0r = initial(w_r)
    sol_r = solve_tsdle(A, M, P0r, w_r, w_r.t0, dense_step=dense_step)
    t_max = w_r.t0 + frac * (w_r.t_end - w_r.t0)
    compare = np.nonzero(sol_r.times <= t_max + w_r.tol)[0]
    worst = 0.0
    for k in compare[:: max(1, len(compare) // 64)]:
        direct = cdle_direct_solution(A.constant, M.constant, P0r,
                                      float(sol_r.times[k]), w_r.t0)
        gap = float(np.linalg.norm(sol_r.values[k] - direct, "fro"))
        worst = max(worst, gap / max(1.0, float(np.linalg.norm(direct, "fro"))))
    out["continuous_discrepancy"] = worst

    P0z = initial(w_z)
    sol_z = solve_tsdle(A, M, P0z, w_z, w_z.t0, dense_step=1.0)
    rec = ddle_recursion_solution(A, M, P0z, sol_z.times)
    t_max = w_z.t0 + frac * (w_z.t_end - w_z.t0)
    keep = sol_z.times <= t_max + w_z.tol
    scale = np.maximum(1.0, np.linalg.norm(rec[keep], axis=(1, 2)))
    out["discrete_discrepancy"] = float(
        np.max(np.linalg.norm(sol_z.values[keep] - rec[keep],
                              axis=(1, 2)) / scale)
    )
    out["max_discrepancy"] = max(out.values())
    return out


def _cmd_reduce_check(args) -> int:
    w_r = load_window(args.ts_r)
    w_z = load_window(args.ts_z)
    A = load_system(args.system)
    M = load_cost(args.cost)
    _check_dims(A, M)
    result = reduce_discrepancies(w_r, w_z, A, M, ic_mode=args.ic,
                                  dense_step=args.dense_step,
                                  tail_tol=args.tail_tol)
    result["tolerance"] = 1e-8
    result["passed"] = bool(result["max_discrepancy"] <= 1e-8)
    _write_json(Path(args.out) / "reduce_check.json", result)
    return 0 if result["passed"] else 1


# -- parser / entry -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, cost: bool = True,
                ic: bool = False, x0: bool = False) -> None:
    p.add_argument("--ts", required=True, help="time-scale spec JSON")
    p.add_argument("--system", required=True, help="system spec JSON")
    if cost:
        p.add_argument("--cost", required=True, help="cost spec JSON")
    if ic:
        p.add_argument("--ic", default="zero",
                       help="initial matrix: zero | stationary | file:PATH")
    if x0:
        p.add_argument("--x0", default=None, help="comma-separated state")
    p.add_argument("--dense-step", type=float, default=0.01,
                   dest="dense_step")
    p.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronoslyap",
        description="Lyapunov equations and stability analysis for linear "
                    "systems on time scales",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-tsale", help="pointwise algebraic solves")
    _add_common(p)
    p.set_defaults(func=_cmd_solve_tsale)

    p = sub.add_parser("solve-tsdle", help="dynamic solve from --ic")
    _add_common(p, ic=True)
    p.add_argument("--tail-tol", type=float, default=1e-8, dest="tail_tol")
    p.set_defaults(func=_cmd_solve_tsdle)

    p = sub.add_parser("stationary", help="stationary initial matrix")
    _add_common(p)
    p.add_argument("--tail-tol", type=float, default=1e-8, dest="tail_tol")
    p.set_defaults(func=_cmd_stationary)

    p = sub.add_parser("stability", help="spectral stability report")
    p.add_argument("--ts", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--dense-step", type=float, default=0.01,
                   dest="dense_step")
    p.add_argument("--plot-data", action="store_true", dest="plot_data",
                   help="also dump disk-boundary/spectrum samples as CSV")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("simulate", help="trajectory of x^delta = A x")
    p.add_argument("--ts", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--dense-step", type=float, default=0.01,
                   dest="dense_step")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="Lyapunov trace along a trajectory")
    _add_common(p, x0=True)
    p.add_argument("--tail-tol", type=float, default=1e-8, dest="tail_tol")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce-check",
                       help="unified vs specialized solutions on R/Z windows")
    p.add_argument("--ts-r", required=True, dest="ts_r")
    p.add_argument("--ts-z", required=True, dest="ts_z")
    p.add_argument("--system", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--ic", default="zero")
    p.add_argument("--dense-step", type=float, default=0.002,
                   dest="dense_step")
    p.add_argument("--tail-tol", type=float, default=1e-8, dest="tail_tol")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_reduce_check)

    return parser


def _fail(out_dir: Path, exc: Exception, kind: str, code: int) -> int:
    print(f"{kind}: {exc}", file=sys.stderr)
    try:
        _write_json(out_dir / "error.json",
                    {"error": type(exc).__name__, "message": str(exc)})
    except OSError:
        pass
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(getattr(args, "out", "."))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        return _fail(out_dir, exc, "validation error", 2)
    except err.ChronosLyapError as exc:
        return _fail(out_dir, exc, "numerical failure", 3)
    except Exception as exc:  # a bug, not bad input: keep the traceback
        traceback.print_exc()
        return _fail(out_dir, exc, "internal error", 4)


if __name__ == "__main__":
    sys.exit(main())
