"""Algebraic and dynamic Lyapunov equation solvers on time-scale windows.

The algebraic family, for constant graininess mu:

    A^T P + P A + mu A^T P A = -M

solved pointwise by Bartels-Stewart (mu = 0) or, for mu > 0, as the Stein
equation B^T P B - P = -mu M with B = I + mu A by Smith doubling, which
stops on a true bound of the truncated tail.  The doubling runs on a
stack of (A, mu) keys at once (:func:`solve_tsale_series`), each key with
its own stopping test; a single solve is the stack of one.  Independent
dense Kronecker/Stein oracles exist for verification only.

The dynamic family, on an arbitrary window:

    A^T P + P A + mu A^T P A + (I + mu A^T) P^delta (I + mu A) = -M

solved in closed form by transporting the initial matrix with the cached
transition sweep, plus a stationary variant whose initial matrix is the
truncated improper integral of Phi^T M Phi.  The stationary solve is
evaluated by a backward sweep that never inverts a transition matrix, so
it tolerates non-regressive systems (whose forward flow may be singular).

The weight M is one constant symmetric matrix (:class:`CostMatrix`) and
A(t) is piecewise constant, so every grid interval has an exact step map
and Gramian.  All sweeps of one solve read a single step table
(:func:`~chronoslyap.transition.step_table`): the forward transition, the
cumulative Gramian and the backward Gramian sweep.  The forward transition
and the backward Gramian are prefix scans over the table, the cumulative
Gramian a cumulative sum, and the transport one batched solve.  The
stationary spot checks recompute sub-window values sequentially and
without that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from .errors import (
    InvalidParameter,
    NoDecayDetected,
    NonSymmetricInput,
    NonSymmetricM,
    NotRegressive,
    PositiveDefinitenessLost,
    SeriesNotConverged,
    SingularKroneckerSystem,
    SpectralRadiusNotLessThanOne,
    SpotCheckFailed,
    SymmetryDriftExceeded,
    UnstableSpectrum,
    WindowTooShort,
)
from .timescale import Grid, TimeScaleWindow, build_grid, make_canonical
from .tscalc import stack_delta
from .transition import (
    StepTable,
    SystemMatrix,
    TransitionMatrix,
    check_matrix_regressive,
    dense_stiffness,
    gramian_step_pair,
    scan_maps,
    step_table,
    sweep_transition,
)

#: Relative tail bound at which the algebraic series stops.
SERIES_TOL = 1e-10

#: Relative tail tolerance of windowed improper delta-integrals.
TAIL_TOL = 1e-8

#: Asymmetry above this fraction of the solution norm aborts a solve.
SYM_DRIFT = 1e-9

#: Kronecker oracles are dense O(n^6); refuse beyond this dimension.
MAX_DENSE_DIM = 12


@dataclass(frozen=True)
class CostMatrix:
    """The symmetric weight matrix M, constant in time."""

    n: int
    constant: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.constant, dtype=float)
        if mat.shape != (self.n, self.n):
            raise InvalidParameter(f"M must be {self.n}x{self.n}")
        _require_symmetric(mat, NonSymmetricM, what="M")
        object.__setattr__(self, "constant", mat)

    @classmethod
    def from_constant(cls, M) -> "CostMatrix":
        M = np.atleast_2d(np.asarray(M, dtype=float))
        return cls(n=M.shape[0], constant=M)


@dataclass
class GramianSolution:
    """Per-grid-point solution P(t) of a dynamic Lyapunov equation.

    ``values[i]`` is P(times[i]); ``residuals[i]`` is the Frobenius norm of
    the dynamic equation evaluated with the numerically differentiated
    P^delta (NaN where no difference estimate exists).  ``meta`` records
    the equation name, horizons and the residual/tail diagnostics that were
    actually measured.
    """

    times: np.ndarray
    values: np.ndarray          # (G, n, n)
    initial: np.ndarray
    residuals: np.ndarray       # (G,)
    meta: dict
    grid: Grid

    def value_at(self, t: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > self.grid.window.tol:
            raise InvalidParameter(f"t = {t} is not a reported grid point")
        return self.values[i]

    def min_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.values)[:, 0]


# -- small shared helpers -----------------------------------------------------


def _require_symmetric(M: np.ndarray, err, tol: float = 1e-12, what: str = "matrix"):
    if not np.isfinite(M).all():
        raise InvalidParameter(f"{what} has non-finite entries")
    scale = max(1.0, float(np.abs(M).max()))
    if float(np.abs(M - M.T).max()) > tol * scale:
        raise err(f"{what} is not symmetric within {tol:g}")


def _symmetrize_checked(P: np.ndarray, what: str = "solution") -> np.ndarray:
    scale = max(float(np.linalg.norm(P, "fro")), 1e-300)
    drift = float(np.linalg.norm(P - P.T, "fro"))
    if drift > SYM_DRIFT * scale:
        raise SymmetryDriftExceeded(
            f"{what} asymmetry {drift:.3e} exceeds {SYM_DRIFT:g} * norm"
        )
    return 0.5 * (P + P.T)


def _symmetrize_stack_checked(P: np.ndarray, where: np.ndarray,
                              name: str = "t") -> np.ndarray:
    """:func:`_symmetrize_checked` over a (k, n, n) stack in one batch (kept
    apart so that the single-matrix check of the Bartels-Stewart solves
    stays cheap); the error names ``name`` = ``where[i]`` of the first
    offending matrix."""
    PT = np.swapaxes(P, 1, 2)
    drift = np.linalg.norm(P - PT, axis=(1, 2))
    bad = drift > SYM_DRIFT * np.maximum(np.linalg.norm(P, axis=(1, 2)),
                                         1e-300)
    if bad.any():
        i = int(np.argmax(bad))
        raise SymmetryDriftExceeded(
            f"solution asymmetry {drift[i]:.3e} at {name} = {where[i]:g} "
            f"exceeds {SYM_DRIFT:g} * norm"
        )
    return 0.5 * (P + PT)


def _as_system(A) -> SystemMatrix:
    if isinstance(A, SystemMatrix):
        return A
    return SystemMatrix.from_constant(A)


def _as_cost(M) -> CostMatrix:
    if isinstance(M, CostMatrix):
        return M
    return CostMatrix.from_constant(M)


def tsale_residual(A, P, M, mu):
    """Frobenius norm of A^T P + P A + mu A^T P A + M: a float for one
    (n, n) solve, a (k,) array for (k, n, n) stacks of A and P (mu a scalar
    or one value per key); both run the same code."""
    A = np.asarray(A, dtype=float)
    At = np.swapaxes(A, -1, -2)
    mu = np.asarray(mu, dtype=float)[..., None, None]
    R = At @ P + P @ A + mu * (At @ P @ A) + M
    norms = np.sqrt(np.einsum("...ij,...ij->...", R, R))
    return float(norms) if norms.ndim == 0 else norms


# -- algebraic solvers --------------------------------------------------------


def solve_tsale_series(A, M, mus, horizon_tol: float = SERIES_TOL,
                       max_terms: int = 200_000,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve A_i^T P_i + P_i A_i + mu_i A_i^T P_i A_i = -M for a stack of
    keys (A_i, mu_i), mu_i > 0, in one batch.

    Key i is the Stein equation B_i^T P_i B_i - P_i = -mu_i M,
    B_i = I + mu_i A_i, whose solution is the series
    P_i = mu_i sum_j (B_i^T)^j M B_i^j.  Smith doubling sums its first 2^k
    terms as S <- S + X^T S X, X <- X X (X = B^(2^k)), one batched product
    per step over the keys still summing.  Since P - S = X^T P X,
    q = ||X||_F^2 < 1 bounds the tail by q ||S|| / (1 - q) (Frobenius); a
    key leaves the stack once its bound is at most ``horizon_tol * ||S||``.

    ``A`` has shape (k, n, n), ``M`` (n, n) and ``mus`` (k,).  Returns the
    symmetrized solutions (k, n, n), the terms summed per key (2^k) and
    the tail bound per key.  The eigenvalues are computed once per run of
    equal consecutive A_i.  Raises NonSymmetricM for an asymmetric M, and
    for key i: UnstableSpectrum when an eigenvalue of A_i lies outside the
    open Hilger disk for mu_i, SeriesNotConverged when ``max_terms`` terms
    are summed first, SymmetryDriftExceeded.  A key's checks run in that
    order, and the error names the first failing key in stack order.
    """
    A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    mus = np.asarray(mus, dtype=float)
    k, n = len(A), M.shape[0]
    if A.shape != (k, n, n) or M.shape != (n, n) or mus.shape != (k,):
        raise InvalidParameter(
            "A must be a (k, n, n) stack, M (n, n) and mus (k,)")
    if not np.all(mus > 0.0):
        raise InvalidParameter("every mu of the series solve must be > 0")
    _require_symmetric(M, NonSymmetricM, what="M")
    new = np.ones(k, dtype=bool)  # a run of equal A_i starts here
    new[1:] = np.any(A[1:] != A[:-1], axis=(1, 2))
    lam = np.linalg.eigvals(A[new])[np.cumsum(new) - 1]
    hilger = np.all(np.abs(1.0 + mus[:, None] * lam) < 1.0, axis=1)
    # keys after the first failing one cannot change the error raised
    stop = k if hilger.all() else int(np.argmin(hilger))

    out = np.empty((stop, n, n))
    terms = np.empty(stop, dtype=int)
    tails = np.empty(stop)
    active = np.arange(stop)
    X = np.eye(n) + mus[:stop, None, None] * A[:stop]
    P = mus[:stop, None, None] * M
    count = 1
    while len(active):
        q = np.einsum("kij,kij->k", X, X)
        norm_p = np.sqrt(np.einsum("kij,kij->k", P, P))
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(q < 1.0, q * norm_p / (1.0 - q), math.inf)
        done = tail <= horizon_tol * norm_p
        if done.any():
            idx = active[done]
            out[idx], terms[idx], tails[idx] = P[done], count, tail[done]
            keep = ~done
            active, P, X, tail = active[keep], P[keep], X[keep], tail[keep]
        if 2 * count > max_terms:
            break
        P = P + np.swapaxes(X, 1, 2) @ P @ X
        X = X @ X
        count *= 2

    # keys still active did not converge; all keys before them did
    failed = int(active[0]) if len(active) else stop
    P = _symmetrize_stack_checked(out[:failed], mus, "mu")
    if failed < stop:
        raise SeriesNotConverged(
            f"series tail bound {tail[0]:.3e} is above {horizon_tol:g} * "
            f"||P|| after {count} terms at mu = {float(mus[failed])} "
            f"(max_terms = {max_terms})"
        )
    if stop < k:
        raise UnstableSpectrum(
            "spectrum of A is not inside the Hilger region for mu = "
            f"{float(mus[stop])}"
        )
    return P, terms, tails


def solve_tsale_pointwise(A, M, mu: float, horizon_tol: float = SERIES_TOL,
                          max_terms: int = 200_000,
                          meta: dict | None = None) -> np.ndarray:
    """Solve A^T P + P A + mu A^T P A = -M for one graininess value.

    mu = 0: the continuous Lyapunov equation, by Bartels-Stewart.
    mu > 0: the k = 1 call of :func:`solve_tsale_series` (Smith doubling
    on the Stein form, stopping on a true tail bound), which records the
    bound as ``meta["tail"]`` and the terms summed, a power of two, as
    ``meta["terms"]``.  SeriesNotConverged when ``max_terms`` terms are
    summed first.

    Raises UnstableSpectrum when an eigenvalue of A lies outside the open
    Hilger disk for mu (the open left half-plane when mu = 0),
    NonSymmetricM for an asymmetric M.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if mu > 0:
        P, terms, tails = solve_tsale_series(A[None], M, [mu], horizon_tol,
                                             max_terms)
        if meta is not None:
            meta.update({"method": "series", "terms": int(terms[0]),
                         "tail": float(tails[0])})
        return P[0]

    n = A.shape[0]
    if A.shape != (n, n) or M.shape != (n, n):
        raise InvalidParameter("A and M must be square of equal size")
    if mu != 0:
        raise InvalidParameter("mu must be >= 0")
    _require_symmetric(M, NonSymmetricM, what="M")
    if not np.all(np.linalg.eigvals(A).real < 0.0):
        raise UnstableSpectrum(
            f"spectrum of A is not inside the Hilger region for mu = {mu}"
        )
    P = solve_continuous_lyapunov(A.T, -M)
    if meta is not None:
        meta.update({"method": "bartels-stewart", "terms": None,
                     "tail": 0.0})
    return _symmetrize_checked(P)


def _oracle_inputs(A, M) -> tuple[np.ndarray, np.ndarray, int]:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    _require_symmetric(M, NonSymmetricM, what="M")
    n = A.shape[0]
    if n > MAX_DENSE_DIM:
        raise InvalidParameter(
            f"dense Kronecker solve capped at n <= {MAX_DENSE_DIM}"
        )
    return A, M, n


def _kronecker_solve(L: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """The n x n matrix X with L vec(X) = vec(rhs), column-major vec."""
    n = rhs.shape[0]
    try:
        vec = np.linalg.solve(L, rhs.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularKroneckerSystem(f"{what} system is singular") from exc
    return _symmetrize_checked(vec.reshape((n, n), order="F"))


def solve_cale_oracle(A, M) -> np.ndarray:
    """Dense Kronecker oracle for A^T P + P A = -M.

    Exists for verification of the production solvers, not production;
    O(n^6) and capped at n <= 12.
    """
    A, M, n = _oracle_inputs(A, M)
    lam = np.linalg.eigvals(A)
    if np.any(np.abs(lam[:, None] + lam[None, :].conj()) < 1e-12):
        raise SingularKroneckerSystem(
            "spectra of A and -A^T intersect; the Kronecker system is "
            "singular"
        )
    eye = np.eye(n)
    return _kronecker_solve(np.kron(eye, A.T) + np.kron(A.T, eye), -M,
                            "Kronecker")


def solve_dale_oracle(A, M) -> np.ndarray:
    """Dense Kronecker/Stein oracle for A_R^T P A_R - P = -M, A_R = A + I.

    Requires the spectral radius of A_R to be strictly below one; equals
    the series sum_j (A_R^T)^j M A_R^j.  O(n^6) and capped at n <= 12.
    """
    A, M, n = _oracle_inputs(A, M)
    Ar = A + np.eye(n)
    rho = float(np.max(np.abs(np.linalg.eigvals(Ar))))
    if rho >= 1.0 - 1e-12:
        raise SpectralRadiusNotLessThanOne(
            f"spectral radius of A + I is {rho:.6f} >= 1"
        )
    return _kronecker_solve(np.eye(n * n) - np.kron(Ar.T, Ar.T), M, "Stein")


# -- shared dynamic machinery -------------------------------------------------


def _cumulative_gramian(M: CostMatrix, grid: Grid, tm: TransitionMatrix,
                        table: StepTable) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative K(t_i) = integral over [t0, t_i) of Phi^T M Phi, plus the
    integrand-norm envelope at every grid point.

    Interval i contributes Phi_i^T K_i Phi_i with K_i from the step table
    (mu M at a jump, the Van Loan Gramian across a dense interval).
    """
    Phi = tm.stack
    PhiT = np.swapaxes(Phi, 1, 2)
    env = np.linalg.norm(PhiT @ M.constant @ Phi, axis=(1, 2))
    K = np.zeros_like(Phi)
    np.cumsum(PhiT[:-1] @ table.K @ Phi[:-1], axis=0, out=K[1:])
    return K, env


def dynamic_operator(grid: Grid, A: SystemMatrix, P: np.ndarray,
                     Pd: np.ndarray) -> np.ndarray:
    """A^T P + P A + mu A^T P A + (I + mu A)^T P^delta (I + mu A) at every
    point of ``grid``: the left side of the dynamic equation without M."""
    A_stack = A.stack_at(grid.times)
    mus = grid.mus[:, None, None]
    At = np.swapaxes(A_stack, 1, 2)
    L = np.eye(A.n) + mus * A_stack
    return (At @ P + P @ A_stack + mus * (At @ P @ A_stack)
            + np.swapaxes(L, 1, 2) @ Pd @ L)


def _residual_stack(grid: Grid, A: SystemMatrix, M: CostMatrix,
                    P_stack: np.ndarray) -> np.ndarray:
    """Per-point Frobenius residual of the dynamic equation with numeric
    P^delta; NaN where the difference estimate does not exist."""
    Pd, valid = stack_delta(grid, P_stack)
    R = dynamic_operator(grid, A, P_stack, Pd) + M.constant
    norms = np.linalg.norm(R, axis=(1, 2))
    norms[~valid] = np.nan
    return norms


def _finite_max(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    return float(finite.max()) if len(finite) else float("nan")


# -- dynamic solvers ----------------------------------------------------------


def solve_tsdle(A, M, P0, w: TimeScaleWindow, t0: float,
                dense_step: float = 0.01,
                grid: Grid | None = None) -> GramianSolution:
    """Dynamic Lyapunov solve with initial matrix P0 at the window start.

    P(t) transports P0 with the cached transition sweep:

        P(t) = (Phi^T)^{-1} [P0 - K(t)] Phi^{-1},
        K(t) = integral over [t0, t) of Phi^T(s, t0) M Phi(s, t0).

    The transport inverts Phi, so the system must be regressive on the
    window.  Residual norms of the dynamic equation (with numeric P^delta)
    are recorded per grid point.
    """
    A = _as_system(A)
    M = _as_cost(M)
    P0 = np.atleast_2d(np.asarray(P0, dtype=float))
    _require_symmetric(P0, NonSymmetricInput, what="P0")
    if abs(t0 - w.t0) > w.tol:
        raise InvalidParameter("t0 must be the window start")
    if grid is None:
        grid = build_grid(w, dense_step)

    reg = check_matrix_regressive(A, w, grid=grid)
    if not reg.is_regressive:
        raise NotRegressive(
            "I + mu A is singular at "
            f"t = {[t for t, _ in reg.witnesses]}; the transported solution "
            "needs a regressive system"
        )

    table = step_table(A, grid, M)
    tm = sweep_transition(A, grid, table=table)
    K, _ = _cumulative_gramian(M, grid, tm, table)
    inv = tm.inverses()
    P_stack = _symmetrize_stack_checked(
        np.swapaxes(inv, 1, 2) @ (P0 - K) @ inv, grid.times)
    residuals = _residual_stack(grid, A, M, P_stack)
    meta = {
        "equation": "TSDLE",
        "horizon": w.t_end,
        "tail_bound": None,
        "max_residual": _finite_max(residuals),
        "dense_step": grid.dense_step,
    }
    return GramianSolution(
        times=grid.times.copy(), values=P_stack, initial=P_stack[0].copy(),
        residuals=residuals, meta=meta, grid=grid,
    )


def _stationary_ic_with_info(A: SystemMatrix, M: CostMatrix, grid: Grid,
                             tail_tol: float, table: StepTable,
                             ) -> tuple[np.ndarray, dict, np.ndarray]:
    tm = sweep_transition(A, grid, table=table)
    K, env = _cumulative_gramian(M, grid, tm, table)
    K_end = K[-1]
    norm_k = float(np.linalg.norm(K_end, "fro"))
    info: dict = {"tail_estimate": 0.0, "decay_slope": None}

    if float(env.max()) == 0.0:  # identically zero integrand (M = 0)
        return _symmetrize_checked(K_end), info, K

    ts = grid.times
    span = float(ts[-1] - ts[0])
    # decay certificate: slope of log-envelope over the trailing half window
    tail_mask = ts >= ts[0] + 0.5 * span
    if tail_mask.sum() < 4:
        tail_mask = np.ones_like(tail_mask)
    pos = tail_mask & (env > 0.0)
    if pos.sum() < 2:
        # envelope died inside the window: nothing left to integrate
        info["tail_estimate"] = 0.0
        return _symmetrize_checked(K_end), info, K
    slope = float(np.polyfit(ts[pos], np.log(env[pos]), 1)[0])
    info["decay_slope"] = slope
    if slope >= -1e-12:
        raise NoDecayDetected(
            f"integrand envelope does not decay on the window: fitted rate "
            f"{slope:.3e} over a window of length {span:g}; either the "
            "spectrum is not stable for this time scale or the window is "
            "too short to show decay"
        )
    late = ts >= ts[-1] - 0.1 * span
    env_late = float(env[late].max())
    tail = 2.0 * env_late / abs(slope)
    info["tail_estimate"] = tail
    if tail > tail_tol * max(norm_k, 1e-300):
        raise WindowTooShort(
            f"estimated truncation tail {tail:.3e} exceeds "
            f"{tail_tol:g} * ||P0|| = {tail_tol * norm_k:.3e}; extend the "
            "window"
        )
    return _symmetrize_checked(K_end), info, K


def stationary_initial_condition(A, M, w: TimeScaleWindow, t0: float,
                                 tail_tol: float = TAIL_TOL,
                                 dense_step: float = 0.01,
                                 grid: Grid | None = None) -> np.ndarray:
    """Truncated improper integral P0 = integral over [t0, t_end) of
    Phi^T(s, t0) M Phi(s, t0).

    The integrand-norm envelope must decay on the window (fitted log-slope
    < 0, else NoDecayDetected) and the extrapolated tail must stay below
    ``tail_tol`` times the accumulated value (else WindowTooShort).
    """
    A = _as_system(A)
    M = _as_cost(M)
    if abs(t0 - w.t0) > w.tol:
        raise InvalidParameter("t0 must be the window start")
    if grid is None:
        grid = build_grid(w, dense_step)
    P0, _, _ = _stationary_ic_with_info(A, M, grid, tail_tol,
                                        step_table(A, grid, M))
    return P0


def _backward_gramian_sweep(table: StepTable) -> np.ndarray:
    """P(t_i) = integral over [t_i, t_end) of Phi^T(s, t_i) M Phi(s, t_i),
    by the backward recursion P_i = F_i^T P_{i+1} F_i + K_i over the step
    table, which never inverts a transition matrix.

    The recursion composes the maps X -> F_i^T X F_i + K_i from the end of
    the window, so it is one prefix scan over the reversed table with
    B = F^T (:func:`~chronoslyap.transition.scan_maps`).
    """
    F, K = table.F, table.K
    P = np.zeros((len(F) + 1, *F.shape[1:]))
    P[-2::-1] = scan_maps(np.swapaxes(F[::-1], 1, 2), K[::-1])[1]
    return 0.5 * (P + np.swapaxes(P, 1, 2))


def _tail_gramians(A: SystemMatrix, M: np.ndarray, w: TimeScaleWindow,
                   times) -> list[np.ndarray]:
    """P(t) = integral over [t, t_end) of Phi^T(s, t) M Phi(s, t) at each of
    the grid times ``times``, without the step table.

    One backward pass over the window: I + mu A per jump and one Van Loan
    exponential per maximal dense piece (a segment split only at schedule
    breakpoints and at ``times``), so it shares no step map with the
    production sweeps.
    """
    wanted = {float(t) for t in times}
    found: dict[float, np.ndarray] = {}
    seg = np.array(w.segments)
    gaps = np.append(seg[1:, 0], seg[-1, 1]) - seg[:, 1]  # 0 after the end
    B = np.eye(A.n) + gaps[:, None, None] * A.stack_at(seg[:, 1])
    P = np.zeros((A.n, A.n))
    for j in range(len(seg) - 1, -1, -1):
        a, b = w.segments[j]
        P = B[j].T @ P @ B[j] + gaps[j] * M
        inner = {c for c in (*wanted, *A.breakpoints_in(a, b)) if a < c < b}
        cuts = sorted({a, b, *inner}, reverse=True)
        for hi, lo in zip(cuts, cuts[1:] + [None]):
            if hi in wanted:
                found[hi] = P
            if lo is not None:
                F, K = gramian_step_pair(A.at(lo), M, hi - lo)
                P = F.T @ P @ F + K
        if len(found) == len(wanted):
            break
    return [found[float(t)] for t in times]


def solve_tsdle_stationary(A, M, w: TimeScaleWindow, t0: float,
                           tail_tol: float = TAIL_TOL,
                           dense_step: float = 0.01,
                           spot_tol: float = 1e-6,
                           grid: Grid | None = None) -> GramianSolution:
    """Dynamic Lyapunov solve seeded with the stationary initial matrix.

    Composes :func:`stationary_initial_condition` (which certifies decay
    and the truncation tail) with the dynamic solve; the combined solution
    equals the truncated improper integral based at each grid point and is
    evaluated by the inversion-free backward sweep, so non-regressive
    systems are handled.

    The value at the window start must match the forward integral, and
    the values at three interior grid points must match their integral
    form, recomputed exactly without the step table (see
    :func:`_tail_gramians`), all within ``spot_tol`` relative.  When M is
    positive definite, every reported P(t) is checked positive definite
    (PositiveDefinitenessLost otherwise).  The terminal grid point is not
    reported: the windowed tail based there is empty and carries no
    information.
    """
    A = _as_system(A)
    M = _as_cost(M)
    if abs(t0 - w.t0) > w.tol:
        raise InvalidParameter("t0 must be the window start")
    if grid is None:
        grid = build_grid(w, dense_step)
    if len(grid) < 2:
        raise InvalidParameter("window too small for a stationary solve")

    table = step_table(A, grid, M)
    P0_forward, info, K_cum = _stationary_ic_with_info(A, M, grid, tail_tol,
                                                       table)
    P_stack = _backward_gramian_sweep(table)

    # backward sweep vs forward integral (both from the table), then
    # sub-window values recomputed from their integral form
    G = len(grid)
    ks = sorted({min(int(frac * (G - 1)), G - 2)
                 for frac in (0.25, 0.5, 0.75)} - {0})
    checks = [(0, P0_forward),
              *zip(ks, _tail_gramians(A, M.constant, w, grid.times[ks]))]
    diffs = [float(np.linalg.norm(P_stack[k] - want, "fro"))
             / max(float(np.linalg.norm(want, "fro")), 1e-300)
             for k, want in checks]
    worst = int(np.argmax(diffs))
    spot_max = diffs[worst]
    if spot_max > spot_tol:
        t_worst = grid.times[checks[worst][0]]
        raise SpotCheckFailed(
            f"stationary solution disagrees with its direct integral form "
            f"by {spot_max:.3e} relative at t = {t_worst:g} "
            f"(tolerance {spot_tol:g}); largest dense step h*max|eig(A)| = "
            f"{dense_stiffness(A, grid):.3g}, try a smaller dense_step"
        )

    residuals = _residual_stack(grid, A, M, P_stack)

    m_eigs = np.linalg.eigvalsh(M.constant)
    if m_eigs[0] > 0.0:
        mins = np.linalg.eigvalsh(P_stack[: G - 1])[:, 0]
        if float(mins.min()) <= 0.0:
            raise PositiveDefinitenessLost(
                "stationary solution lost positive definiteness "
                f"(min eigenvalue {float(mins.min()):.3e}); truncation too "
                "coarse"
            )

    # the absolute truncation tail contaminates every point; relative to
    # the remaining mass it grows toward the horizon (certified_through is
    # the last grid time where the estimated relative error stays below
    # spot_tol)
    remaining = np.linalg.norm(K_cum[-1] - K_cum[: G - 1], axis=(1, 2))
    ok = info["tail_estimate"] <= spot_tol * remaining
    if info["tail_estimate"] == 0.0:
        certified_through = float(grid.times[G - 2])
    elif not ok[0]:
        certified_through = float(grid.times[0])
    else:
        first_bad = int(np.argmin(ok)) if not ok.all() else G - 1
        certified_through = float(grid.times[first_bad - 1])

    meta = {
        "equation": "TSDLE-stationary",
        "horizon": w.t_end,
        "reported_through": float(grid.times[G - 2]),
        "certified_through": certified_through,
        "tail_bound": info["tail_estimate"],
        "decay_slope": info["decay_slope"],
        "spot_check_max": spot_max,
        "max_residual": _finite_max(residuals[: G - 1]),
        "dense_step": grid.dense_step,
    }
    return GramianSolution(
        times=grid.times[: G - 1].copy(),
        values=P_stack[: G - 1],
        initial=P_stack[0].copy(),
        residuals=residuals[: G - 1],
        meta=meta,
        grid=grid,
    )


# -- continuous / discrete adapters ------------------------------------------


def solve_cdle(A, M, P0, interval: tuple[float, float],
               dense_step: float = 0.005) -> GramianSolution:
    """Continuous specialization: the dynamic solve on a real interval."""
    w = make_canonical("reals", interval)
    sol = solve_tsdle(A, M, P0, w, w.t0, dense_step=dense_step)
    sol.meta["equation"] = "CDLE"
    return sol


def solve_ddle(A, M, P0, trange: tuple[int, int]) -> GramianSolution:
    """Discrete specialization on consecutive integers, cross-checked
    against the exact recursion P(t+1) = A_R^{-T} (P(t) - M) A_R^{-1}."""
    w = make_canonical("integers", (float(trange[0]), float(trange[1])))
    sol = solve_tsdle(A, M, P0, w, w.t0, dense_step=1.0)
    sol.meta["equation"] = "DDLE"
    rec = ddle_recursion_solution(_as_system(A), _as_cost(M), sol.initial,
                                  sol.times)
    scale = max(float(np.abs(rec).max()), 1.0)
    diff = float(np.max(np.abs(sol.values - rec))) / scale
    sol.meta["recursion_check"] = diff
    if diff > 1e-8:
        raise SpotCheckFailed(
            f"transported solution differs from the exact recursion by "
            f"{diff:.3e} relative"
        )
    return sol


def ddle_recursion_solution(A: SystemMatrix, M: CostMatrix, P0: np.ndarray,
                            times: Sequence[float]) -> np.ndarray:
    """Exact step-by-step recursion for the discrete dynamic equation."""
    n = A.n
    out = np.empty((len(times), n, n))
    out[0] = P0
    for k in range(len(times) - 1):
        t = float(times[k])
        Ar = A.recursive_at(t)
        Q = out[k] - M.constant
        Y = np.linalg.solve(Ar.T, Q)
        out[k + 1] = np.linalg.solve(Ar.T, Y.T).T
    return out


def cdle_direct_solution(A: np.ndarray, M: np.ndarray, P0: np.ndarray,
                         t: float, t0: float = 0.0) -> np.ndarray:
    """Direct evaluation of the continuous closed form for constant A, M.

    Uses one block matrix exponential for the weighted Gramian integral
    (Van Loan's construction), independent of the step-table sweeps:

        expm([[-A^T, M], [0, A]] s)[0:n, n:2n]  ->  F,
        K(s) = expm(A^T s) F = integral_0^s expm(A^T u) M expm(A u) du.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    P0 = np.atleast_2d(np.asarray(P0, dtype=float))
    n = A.shape[0]
    s = t - t0
    H = np.block([[-A.T, M], [np.zeros((n, n)), A]])
    E = expm(H * s)
    K = expm(A.T * s) @ E[:n, n:]
    phi = E[n:, n:]  # expm(A s)
    Y = np.linalg.solve(phi.T, P0 - K)
    return np.linalg.solve(phi.T, Y.T).T
