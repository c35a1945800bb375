"""Transition matrices for x^delta = A(t) x on a time-scale window.

The transition matrix solves the matrix initial value problem
X^delta = A(t) X, X(t0) = I.  A(t) is constant or hold-last piecewise
constant, so every grid interval has an exact step map: X <- (I + mu A) X
across a scattered point and X <- expm(h A) X across a dense interval
(composed over the schedule pieces it straddles).  :func:`step_table`
builds these maps once per distinct interval class and gathers them by
index; given the constant cost M it also holds each interval's exact
weighted Gramian: mu M at a jump, Van Loan's block exponential across a
dense interval.  The forward sweep here and the Gramian sweeps of the
Lyapunov solvers all consume one table.  The transition is the prefix
product of the step maps and the backward Gramian a prefix composition of
affine maps; :func:`scan_maps` computes both by one odd-even scan.
Inverses are computed by LU solve with a condition-number estimate, lazily
per point or for the whole sweep in one batch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .errors import (
    InvalidParameter,
    NotInTimeScale,
    NotRegressive,
    SingularTransition,
)
from .timescale import Grid, TimeScaleWindow, build_grid
from .tscalc import TOL_REG, RegressivityClass

#: Condition number above which inverse transitions trigger a warning.
COND_WARN = 1e12


@dataclass(frozen=True)
class SystemMatrix:
    """A(t) for the linear system, constant or piecewise constant.

    ``schedule`` entries (t_i, A_i) mean A(t) = A_i for t in [t_i, t_{i+1});
    tabulated samples use the same hold-last convention.  The recursive view
    A_R(t) = A(t) + I is available through :meth:`recursive_at`.
    """

    n: int
    constant: np.ndarray | None = None
    schedule_times: np.ndarray | None = None
    schedule_mats: np.ndarray | None = None  # (k, n, n)

    def __post_init__(self):
        if (self.constant is None) == (self.schedule_mats is None):
            raise InvalidParameter(
                "SystemMatrix needs exactly one of constant or schedule"
            )
        if self.constant is not None:
            mat = np.asarray(self.constant, dtype=float)
            if mat.shape != (self.n, self.n):
                raise InvalidParameter(f"A must be {self.n}x{self.n}")
            if not np.all(np.isfinite(mat)):
                raise InvalidParameter("A has non-finite entries")
            object.__setattr__(self, "constant", mat)
        else:
            ts = np.asarray(self.schedule_times, dtype=float)
            mats = np.asarray(self.schedule_mats, dtype=float)
            if ts.ndim != 1 or mats.shape != (len(ts), self.n, self.n):
                raise InvalidParameter("schedule shapes inconsistent")
            if len(ts) == 0:
                raise InvalidParameter("schedule must be nonempty")
            if np.any(np.diff(ts) <= 0):
                raise InvalidParameter("schedule times must increase")
            if not np.all(np.isfinite(mats)):
                raise InvalidParameter("schedule has non-finite entries")
            object.__setattr__(self, "schedule_times", ts)
            object.__setattr__(self, "schedule_mats", mats)

    @classmethod
    def from_constant(cls, A) -> "SystemMatrix":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        return cls(n=A.shape[0], constant=A)

    @classmethod
    def from_schedule(cls, times: Sequence[float], mats) -> "SystemMatrix":
        mats = np.asarray(mats, dtype=float)
        return cls(n=mats.shape[1], schedule_times=np.asarray(times, float),
                   schedule_mats=mats)

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    def pieces_at(self, times) -> np.ndarray:
        """Index of the hold-last piece ruling each of ``times`` (0 for a
        constant A)."""
        if self.constant is not None:
            return np.zeros(np.shape(times), dtype=int)
        i = np.searchsorted(self.schedule_times, times, side="right") - 1
        return np.maximum(i, 0)

    def at(self, t: float) -> np.ndarray:
        if self.constant is not None:
            return self.constant
        i = int(np.searchsorted(self.schedule_times, t, side="right")) - 1
        return self.schedule_mats[max(i, 0)]

    def stack_at(self, times) -> np.ndarray:
        """A(t) for each of ``times``, shape (len(times), n, n)."""
        if self.constant is not None:
            return np.broadcast_to(self.constant, (len(times), self.n, self.n))
        return self.schedule_mats[self.pieces_at(times)]

    def recursive_at(self, t: float) -> np.ndarray:
        return self.at(t) + np.eye(self.n)

    def breakpoints_in(self, lo: float, hi: float) -> list[float]:
        if self.constant is not None:
            return []
        ts = self.schedule_times
        return [float(t) for t in ts if lo < t < hi]


@dataclass
class TransitionMatrix:
    """Cached transition sweep Phi(t, t0) on a grid.

    ``stack[i]`` holds Phi(times[i], t0) for i >= base_index.  The object
    is immutable after the sweep apart from the lazily filled inverse
    cache.
    """

    grid: Grid
    base_index: int
    stack: np.ndarray               # (G, n, n); NaN before base_index
    _inv_cache: dict[int, np.ndarray] = field(default_factory=dict)

    def at_index(self, i: int) -> np.ndarray:
        if i < self.base_index:
            raise InvalidParameter(
                "transition cache covers t >= t0 only; use transition() for "
                "backward evaluation"
            )
        return self.stack[i]

    def at(self, t: float) -> np.ndarray:
        return self.at_index(self.grid.index_of(t))

    def inverse_at_index(self, i: int) -> np.ndarray:
        if i not in self._inv_cache:
            phi = self.at_index(i)
            n = phi.shape[0]
            try:
                inv = np.linalg.solve(phi, np.eye(n))
            except np.linalg.LinAlgError as exc:
                raise SingularTransition(
                    f"transition matrix at t = {self.grid.times[i]} is "
                    "singular (regressivity violated)"
                ) from exc
            if not np.all(np.isfinite(inv)):
                raise SingularTransition(
                    f"transition matrix at t = {self.grid.times[i]} is "
                    "numerically singular"
                )
            cond = float(np.linalg.cond(phi))
            if cond > COND_WARN:
                warnings.warn(
                    f"transition matrix at t = {self.grid.times[i]} has "
                    f"condition number {cond:.3e}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self._inv_cache[i] = inv
        return self._inv_cache[i]

    def inverses(self) -> np.ndarray:
        """Phi^{-1} at every grid point from the base on, by one batched LU
        solve.  SingularTransition names the first singular time; one
        RuntimeWarning reports the largest condition number above
        COND_WARN."""
        phi = self.stack[self.base_index:]
        try:
            inv = np.linalg.solve(phi, np.eye(phi.shape[-1]))
            bad = ~np.isfinite(inv).all(axis=(1, 2))
        except np.linalg.LinAlgError:
            bad = np.linalg.slogdet(phi)[0] == 0.0  # a zero LU pivot
        if bad.any():
            t = self.grid.times[self.base_index + int(np.argmax(bad))]
            raise SingularTransition(
                f"transition matrix at t = {t} is singular (regressivity "
                "violated)"
            )
        cond = np.linalg.cond(phi)
        worst = int(np.argmax(cond))
        if cond[worst] > COND_WARN:
            warnings.warn(
                f"transition matrix at t = "
                f"{self.grid.times[self.base_index + worst]} has condition "
                f"number {cond[worst]:.3e}, the largest on the grid",
                RuntimeWarning,
                stacklevel=2,
            )
        return inv


@dataclass(frozen=True, eq=False)
class StepTable:
    """Exact one-interval maps of a grid.

    ``F[i]`` carries the state from times[i] to times[i+1].  With a cost,
    ``K[i]`` is the integral over [times[i], times[i+1]) of
    Phi^T(s, times[i]) M Phi(s, times[i]): mu M at a jump.
    """

    F: np.ndarray                   # (G-1, n, n)
    K: np.ndarray | None = None     # (G-1, n, n), with a cost only


def gramian_step_pair(A_mat: np.ndarray, M_mat: np.ndarray,
                      h: float) -> tuple[np.ndarray, np.ndarray]:
    """(expm(h A), integral_0^h expm(s A^T) M expm(s A) ds) for constant A
    and M, from Van Loan's block matrix exponential.

    The block exponential carries expm(-h A^T), so its rounding error
    grows like expm(||A|| h) relative to the Gramian.  Long steps are
    therefore taken as 2^k sub-steps with ||A|| h / 2^k <= 1/2, squared
    back up by (F, K) <- (F F, K + F^T K F).
    """
    n = A_mat.shape[0]
    k = max(0, math.ceil(math.log2(max(2.0 * h * np.linalg.norm(A_mat, 2),
                                       1.0))))
    H = np.block([[-A_mat.T, M_mat], [np.zeros((n, n)), A_mat]])
    E = expm(H * (h / 2 ** k))
    phi = E[n:, n:]
    K = phi.T @ E[:n, n:]
    for _ in range(k):
        K = K + phi.T @ K @ phi
        phi = phi @ phi
    return phi, 0.5 * (K + K.T)


def dense_maps(A: SystemMatrix, lo: float, hi: float,
               cost=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact (F, K) across the dense stretch [lo, hi): one map per schedule
    piece, expm(h A) or, with a cost, Van Loan's (F, K) from
    :func:`gramian_step_pair`, composed in time order (K is None without a
    cost)."""
    cuts = [lo, *A.breakpoints_in(lo, hi), hi]
    F = np.eye(A.n)
    K = None if cost is None else np.zeros((A.n, A.n))
    for a, b in zip(cuts, cuts[1:]):
        if cost is None:
            f = expm((b - a) * A.at(a))
        else:
            f, k = gramian_step_pair(A.at(a), cost.constant, b - a)
            K = K + F.T @ k @ F
        F = f @ F
    return F, K


def step_table(A: SystemMatrix, grid: Grid, cost=None) -> StepTable:
    """The exact step map of every grid interval, plus its weighted
    Gramian when ``cost`` (a CostMatrix) is given.

    Jumps are built vectorized over all scattered points.  Dense intervals
    fall into classes (step rounded to 1e-13, schedule piece) whose maps
    are built once by :func:`dense_maps` and gathered by index; an interval
    that straddles a breakpoint is a class of its own.
    """
    lo, hi, mus = grid.times[:-1], grid.times[1:], grid.mus[:-1]
    jump = mus > 0.0
    F = np.empty((len(lo), A.n, A.n))
    F[jump] = np.eye(A.n) + mus[jump, None, None] * A.stack_at(lo[jump])
    K = None if cost is None else np.empty_like(F)
    if K is not None:
        K[jump] = mus[jump, None, None] * cost.constant
    dense = np.flatnonzero(~jump)
    if len(dense):
        piece = A.pieces_at(lo[dense])
        own = piece != A.pieces_at(np.nextafter(hi[dense], -np.inf))
        keys = np.column_stack([np.round(hi[dense] - lo[dense], 13),
                                np.where(own, -1 - dense, piece)])
        _, first, inv = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
        maps = [dense_maps(A, lo[j], hi[j], cost) for j in dense[first]]
        F[dense] = np.stack([f for f, _ in maps])[inv.ravel()]
        if K is not None:
            K[dense] = np.stack([k for _, k in maps])[inv.ravel()]
    return StepTable(F=F, K=K)


def dense_stiffness(A: SystemMatrix, grid: Grid) -> float:
    """Largest h * max|eig(A)| over the dense intervals of the grid (0 when
    there are none): how coarsely the finite-difference stencils resolve
    the flow."""
    dense = np.flatnonzero(grid.mus[:-1] == 0.0)
    h = grid.times[dense + 1] - grid.times[dense]
    eigs = np.linalg.eigvals(A.stack_at(grid.times[dense]))
    return float(np.max(h * np.abs(eigs).max(axis=1), initial=0.0))


def scan_maps(*maps: np.ndarray) -> tuple[np.ndarray, ...]:
    """Prefix compositions of the maps X -> B_i X B_i^T + K_i, applied in
    index order, for ``maps = (B, K)``: C_i = B_i ... B_0 and
    S_i = B_i S_{i-1} B_i^T + K_i (S_{-1} = 0).  ``maps = (B,)`` forms the
    products C alone.  Returns (C,) or (C, S), stacks shaped like the input.

    Composition is associative, so this is a work-efficient odd-even scan
    (Blelloch 1990): compose each adjacent pair, scan the half-length
    sequence, then fill in the even entries; every step is one batched
    matmul over an (m/2, n, n) stack.  The association order differs from
    sequential application, so values move at the rounding level.
    """
    m = len(maps[0])
    if m < 2:
        return tuple(x.copy() for x in maps)
    pairs = m - m % 2
    half = scan_maps(*_compose([x[1:pairs:2] for x in maps],
                               [x[0:pairs:2] for x in maps]))
    evens = [x[2::2] for x in maps]
    evens = _compose(evens, [x[: len(evens[0])] for x in half])
    out = tuple(np.empty_like(x) for x in maps)
    for o, x, x_half, x_even in zip(out, maps, half, evens):
        o[0], o[1::2], o[2::2] = x[0], x_half, x_even
    return out


def _compose(late, early) -> tuple[np.ndarray, ...]:
    """The maps ``late`` applied after ``early``, elementwise:
    (B_l B_e, B_l K_e B_l^T + K_l), or the product alone."""
    B = late[0]
    if len(late) == 1:
        return (B @ early[0],)
    return B @ early[0], B @ early[1] @ np.swapaxes(B, 1, 2) + late[1]


def sweep_transition(A: SystemMatrix, grid: Grid, base_index: int = 0,
                     table: StepTable | None = None) -> TransitionMatrix:
    """Forward sweep caching Phi(t, t_base) at every grid point >= base.

    stack[i+1] = F[i] ... F[base] over the step maps of ``table`` (built
    from A when not given), as one prefix scan (:func:`scan_maps`); the
    values agree with sequential application to rounding.  Forward
    sweeping never inverts anything, so non-regressive systems are handled
    (the sweep simply passes through a singular factor).
    """
    if table is None:
        table = step_table(A, grid)
    n = A.n
    stack = np.full((len(grid), n, n), np.nan)
    stack[base_index] = np.eye(n)
    stack[base_index + 1:] = scan_maps(table.F[base_index:])[0]
    return TransitionMatrix(grid=grid, base_index=base_index, stack=stack)


def check_matrix_regressive(A: SystemMatrix, w: TimeScaleWindow,
                            grid: Grid | None = None,
                            tol_reg: float = TOL_REG) -> RegressivityClass:
    """Scan invertibility of I + mu(t) A(t) at the scattered grid points.

    The verdict for a matrix system is either ``regressive`` or
    ``not_regressive`` (positive regressivity is a scalar notion);
    witnesses record (t, det(I + mu A)) at near-singular points.
    A window without scattered points is vacuously regressive.
    """
    if grid is None:
        grid = build_grid(w, dense_step=max((w.t_end - w.t0) / 64.0, 1e-6))
    jump = grid.mus > 0.0
    ts, ms = grid.times[jump], grid.mus[jump]
    B = np.eye(A.n) + ms[:, None, None] * A.stack_at(ts)
    det = np.linalg.det(B)
    scale = np.linalg.norm(B, "fro", axis=(1, 2)) ** A.n
    bad = np.abs(det) <= tol_reg * np.maximum(scale, 1e-300)
    if bad.any():
        return RegressivityClass(
            "not_regressive", tuple(zip(ts[bad].tolist(), det[bad].tolist()))
        )
    return RegressivityClass("regressive")


def transition(A: SystemMatrix, w: TimeScaleWindow, t0: float, t: float,
               dense_step: float = 0.01,
               grid: Grid | None = None) -> np.ndarray:
    """Phi_A(t, t0) for t and t0 in the window.

    Forward values (t >= t0) come from a cached sweep; t is allowed to lie
    between grid points inside a dense segment, in which case the sweep is
    extended by the exact map of the partial interval.  Backward values
    (t < t0) are the matrix inverse of the forward transition from t to t0,
    which requires regressivity on [t, t0].
    """
    if grid is None:
        grid = build_grid(w, dense_step)
    if not (w.contains(t0) and w.contains(t)):
        raise NotInTimeScale("transition endpoints must lie in the window")

    if t >= t0:
        tm = sweep_transition(A, grid, base_index=grid.index_of(t0))
        return _value_at(tm, A, t)
    tm = sweep_transition(A, grid, base_index=grid.index_of(t))
    phi_fwd = _value_at(tm, A, t0)
    try:
        inv = np.linalg.solve(phi_fwd, np.eye(A.n))
    except np.linalg.LinAlgError:
        inv = np.full((A.n, A.n), np.nan)
    if not np.all(np.isfinite(inv)):
        raise NotRegressive(
            f"system is not regressive on [{t}, {t0}]; backward transition "
            "undefined"
        )
    return inv


def _value_at(tm: TransitionMatrix, A: SystemMatrix, t: float) -> np.ndarray:
    grid = tm.grid
    try:
        return tm.at_index(grid.index_of(t))
    except NotInTimeScale:
        pass
    # t lies strictly inside a dense segment between grid points
    i = int(np.searchsorted(grid.times, t)) - 1
    if i < tm.base_index or grid.mus[i] > 0:
        raise NotInTimeScale(f"t = {t} not reachable on this grid")
    F, _ = dense_maps(A, float(grid.times[i]), t)
    return F @ tm.stack[i]


def transition_inverse(tm: TransitionMatrix, t: float) -> np.ndarray:
    """Phi_A(t, t0)^{-1} by LU solve, with a cached condition estimate."""
    return tm.inverse_at_index(tm.grid.index_of(t))
