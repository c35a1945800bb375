"""Trajectory simulation and empirical verification of Lyapunov conditions.

Simulation reuses the cached transition sweep, which applies exact step
maps (I + mu A across scattered points, expm(h A) across dense
intervals).  Candidate certificates V(x) = x^T P(t) x are checked along
trajectories two independent ways: the delta quotient of the sampled V
values and the closed-form quadratic expansion with a numerically
differentiated P; the two must agree, which exercises the whole
derivative chain of the dynamic equation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatch, NonSymmetric, NotRegressive, SpotCheckFailed
from .lyapunov import GramianSolution, dynamic_operator
from .timescale import Grid, TimeScaleWindow, build_grid
from .tscalc import stack_delta
from .transition import (
    SystemMatrix,
    check_matrix_regressive,
    dense_stiffness,
    sweep_transition,
)

#: Sign-test tolerance for the trace verdicts.
TOL_SIGN = 1e-9

#: Required relative agreement of the two V^delta computations.
AGREEMENT_TOL = 1e-5


@dataclass(frozen=True)
class Trajectory:
    """States of x^delta = A(t) x along a grid, from a cached sweep."""

    grid: Grid
    system: SystemMatrix
    x0: np.ndarray
    states: np.ndarray  # (G, n)
    method: str = "exact step maps (I + mu A jumps, expm dense)"

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def simulate(A, w: TimeScaleWindow, x0, t0: float | None = None,
             dense_step: float = 0.01,
             grid: Grid | None = None) -> Trajectory:
    """Simulate forward from t0 (default: the window start).

    Forward stepping never inverts anything, so a non-regressive system is
    allowed (its trajectories may legitimately hit zero at a degenerate
    point); it is reported with a warning.
    """
    A = A if isinstance(A, SystemMatrix) else SystemMatrix.from_constant(A)
    if grid is None:
        grid = build_grid(w, dense_step)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (A.n,):
        raise GridMismatch(f"x0 must have length {A.n}")
    base = 0 if t0 is None else grid.index_of(t0)

    reg = check_matrix_regressive(A, w, grid=grid)
    if not reg.is_regressive:
        warnings.warn(
            "system is not regressive on this window; the forward "
            "trajectory may collapse to zero at a degenerate point",
            RuntimeWarning,
            stacklevel=2,
        )
    tm = sweep_transition(A, grid, base_index=base)
    states = np.full((len(grid), A.n), np.nan)
    states[base:] = np.einsum("gij,j->gi", tm.stack[base:], x0)
    return Trajectory(grid=grid, system=A, x0=x0, states=states)


def is_positive_definite(P, tol: float = 1e-10) -> bool:
    """Whether the symmetric matrix P is positive definite.

    True iff the smallest eigenvalue exceeds ``tol`` times the spectral
    norm; semidefinite matrices (and the zero matrix) are excluded.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    scale = max(1.0, float(np.abs(P).max()))
    if float(np.abs(P - P.T).max()) > 1e-10 * scale:
        raise NonSymmetric("positive-definiteness query needs a symmetric "
                           "matrix")
    eigs = np.linalg.eigvalsh(0.5 * (P + P.T))
    norm = float(np.abs(eigs).max())
    return bool(eigs[0] > tol * norm)


@dataclass(frozen=True)
class TraceVerdicts:
    V_positive: bool
    V_delta_nonpositive: bool
    V_delta_negative: bool


@dataclass(frozen=True)
class LyapunovTrace:
    """V and V^delta along a trajectory, with sign verdicts.

    ``V_delta`` is the delta quotient / finite difference of the sampled V;
    ``V_delta_form`` is the closed-form quadratic with numeric P^delta.
    ``valid`` masks the points where a difference estimate exists.
    """

    times: np.ndarray
    V: np.ndarray
    V_delta: np.ndarray
    V_delta_form: np.ndarray
    valid: np.ndarray
    verdicts: TraceVerdicts
    agreement_max: float


def lyapunov_trace(P: GramianSolution, traj: Trajectory,
                   agreement_tol: float = AGREEMENT_TOL) -> LyapunovTrace:
    """Evaluate V(t) = x(t)^T P(t) x(t) and its delta derivative.

    P and the trajectory must share their grid (P may cover a leading
    portion of it, as the stationary solver reports).  The quotient route
    and the closed-form route must agree within ``agreement_tol`` relative
    wherever |V^delta| is meaningfully nonzero.
    """
    m = len(P.times)
    tgrid = traj.grid
    if m > len(tgrid.times) or not np.allclose(
        P.times, tgrid.times[:m], rtol=0.0, atol=tgrid.window.tol
    ):
        raise GridMismatch("P and trajectory do not share a grid")

    X = traj.states[:m]
    Pv = P.values
    V = np.einsum("gi,gij,gj->g", X, Pv, X)

    # view of the leading grid portion, for the difference machinery
    sub = replace(
        tgrid,
        times=tgrid.times[:m], mus=tgrid.mus[:m],
        seg_index=tgrid.seg_index[:m], seg_lo=tgrid.seg_lo[:m],
        seg_hi=tgrid.seg_hi[:m],
    )
    v_delta, valid_v = stack_delta(sub, V)
    p_delta, valid_p = stack_delta(sub, Pv)
    valid = valid_v & valid_p

    Q = dynamic_operator(sub, traj.system, Pv, p_delta)
    v_form = np.einsum("gi,gij,gj->g", X, Q, X)

    both = valid & (np.abs(v_delta) > 1e-12)
    if np.any(both):
        rel = np.abs(v_delta[both] - v_form[both]) / np.abs(v_delta[both])
        agreement = float(rel.max())
    else:
        agreement = 0.0
    if agreement > agreement_tol:
        stiffness = dense_stiffness(traj.system, sub)
        raise SpotCheckFailed(
            f"quotient and closed-form V^delta disagree by {agreement:.3e} "
            f"relative (tolerance {agreement_tol:g}); the finite-difference "
            f"stencils see a largest dense step h*max|eig(A)| = "
            f"{stiffness:.3g}, try a smaller dense_step"
        )

    thresh = TOL_SIGN * np.maximum(1.0, V)
    verdicts = TraceVerdicts(
        V_positive=bool(np.all(V > 0.0)),
        V_delta_nonpositive=bool(np.all(v_delta[valid] <= thresh[valid])),
        V_delta_negative=bool(np.all(v_delta[valid] < -thresh[valid])),
    )
    return LyapunovTrace(
        times=P.times.copy(), V=V, V_delta=v_delta, V_delta_form=v_form,
        valid=valid, verdicts=verdicts, agreement_max=agreement,
    )


def _decay_envelope(grid: Grid, lambda_test: float) -> np.ndarray:
    """e_{-lambda}(t_i, t_0) at every grid point, in closed form: the
    product of 1 - mu lambda over the jumps and exp(-lambda h) over the
    dense intervals before t_i.  Requires -lambda_test to be positively
    regressive on the window."""
    if np.any(1.0 - grid.mus * lambda_test <= 0.0):
        raise NotRegressive(
            "-lambda_test is not positively regressive on this window"
        )
    mus = grid.mus[:-1]
    steps = np.where(mus > 0.0, 1.0 - mus * lambda_test,
                     np.exp(-lambda_test * np.diff(grid.times)))
    return np.concatenate([[1.0], np.cumprod(steps)])


def empirical_decay(traj: Trajectory, lambda_test: float,
                    fit_fraction: float = 0.1) -> bool:
    """Check ||x(t)|| <= gamma_fit * e_{-lambda}(t, t0) * ||x0|| on the grid.

    ``gamma_fit`` is the largest ratio over the leading ``fit_fraction`` of
    grid points; the generalized exponential is :func:`_decay_envelope`.
    Requires -lambda_test to be positively regressive on the window.
    """
    envelope = _decay_envelope(traj.grid, lambda_test)
    norms = traj.norms()
    scale = float(np.linalg.norm(traj.x0))
    if scale == 0.0:
        return True
    k = max(1, int(np.ceil(fit_fraction * len(envelope))))
    gamma_fit = float(np.max(norms[:k] / (envelope[:k] * scale)))
    bound = gamma_fit * envelope * scale
    return bool(np.all(norms <= bound * (1.0 + 1e-9)))
