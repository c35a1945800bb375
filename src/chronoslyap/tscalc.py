"""Scalar calculus on time-scale windows.

Delta derivative and delta integral, regressivity classification, and the
generalized exponential e_p(t, t0).  The derivative is the exact forward
quotient at scattered points and a finite-difference estimate at dense
points; the integral sums mu(t) f(t) over scattered points (half-open in
the upper bound) and applies composite Simpson quadrature on the dense
parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import simpson

from .errors import (
    InvalidParameter,
    NotInTimeScale,
    NotRegressive,
    ReversedBounds,
    WindowExhausted,
)
from .timescale import Grid, TimeScaleWindow

#: Regressivity tolerance: |1 + mu p| below this counts as a zero crossing.
TOL_REG = 1e-10

#: Absolute per-segment tolerance of the dense-part quadrature.
QUAD_TOL = 1e-10


@dataclass(frozen=True)
class ScalarSignal:
    """A real signal on a grid: a pure rule t -> f(t), tabulated values,
    or both (tabulated values take the rule's samples at grid points)."""

    grid: Grid
    rule: Callable[[float], float] | None = None
    table: np.ndarray | None = None  # aligned with grid.times

    def __post_init__(self):
        if self.rule is None and self.table is None:
            raise InvalidParameter("signal needs a rule or tabulated values")
        if self.table is not None:
            tab = np.asarray(self.table, dtype=float)
            if tab.shape != self.grid.times.shape:
                raise InvalidParameter(
                    "tabulated values must align with the grid"
                )
            object.__setattr__(self, "table", tab)

    @classmethod
    def from_rule(cls, grid: Grid, fn: Callable[[float], float]) -> "ScalarSignal":
        return cls(grid=grid, rule=fn)

    @classmethod
    def from_table(cls, grid: Grid, values: Sequence[float]) -> "ScalarSignal":
        return cls(grid=grid, table=np.asarray(values, dtype=float))

    def at_index(self, i: int) -> float:
        if self.table is not None:
            return float(self.table[i])
        return float(self.rule(float(self.grid.times[i])))

    def __call__(self, t: float) -> float:
        if self.rule is not None:
            return float(self.rule(t))
        return self.at_index(self.grid.index_of(t))

    def values(self) -> np.ndarray:
        if self.table is not None:
            return self.table
        return np.asarray([self.rule(t) for t in self.grid.times], dtype=float)


@dataclass(frozen=True)
class RegressivityClass:
    """Verdict of a regressivity scan with the offending grid points.

    ``witnesses`` holds (t, 1 + mu(t) p(t)) pairs that vanish (for the
    not_regressive verdict) or are negative (regressive but not positively
    so).
    """

    verdict: str  # not_regressive | regressive | positively_regressive
    witnesses: tuple[tuple[float, float], ...] = ()

    @property
    def is_regressive(self) -> bool:
        return self.verdict != "not_regressive"


# -- helpers ----------------------------------------------------------------


def _lagrange3_derivative(x, f0, f1, f2, x0, x1, x2):
    """Derivative at x of the quadratic through (x0,f0),(x1,f1),(x2,f2).

    Works for scalars and for numpy stacks whose leading axis matches x.
    """
    c0 = (2 * x - x1 - x2) / ((x0 - x1) * (x0 - x2))
    c1 = (2 * x - x0 - x2) / ((x1 - x0) * (x1 - x2))
    c2 = (2 * x - x0 - x1) / ((x2 - x0) * (x2 - x1))
    return c0 * f0 + c1 * f1 + c2 * f2


def _lagrange_derivative_weights(x: float, nodes: np.ndarray) -> list[float]:
    """Weights w_j with f'(x) ~ sum_j w_j f(nodes[j]) from the Lagrange
    interpolant through the nodes."""
    weights = []
    for j, xj in enumerate(nodes):
        denom = 1.0
        for k, xk in enumerate(nodes):
            if k != j:
                denom *= xj - xk
        total = 0.0
        for m in range(len(nodes)):
            if m == j:
                continue
            prod = 1.0
            for k, xk in enumerate(nodes):
                if k != j and k != m:
                    prod *= x - xk
            total += prod
        weights.append(total / denom)
    return weights


def _simpson_panels(fn, a: float, b: float, n: int) -> float:
    x = np.linspace(a, b, 2 * n + 1)
    y = np.asarray([fn(t) for t in x], dtype=float)
    h = (b - a) / (2 * n)
    return h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-2:2].sum())


def _simpson_adaptive(fn, a: float, b: float, abs_tol: float) -> float:
    """Composite Simpson with panel doubling until the update is small."""
    if b <= a:
        return 0.0
    n = 4
    prev = _simpson_panels(fn, a, b, n)
    for _ in range(16):
        n *= 2
        cur = _simpson_panels(fn, a, b, n)
        if abs(cur - prev) <= abs_tol:
            return cur
        prev = cur
    return prev


# -- operations --------------------------------------------------------------


def delta_derivative(f: ScalarSignal, t: float) -> float:
    """Delta derivative of f at a grid point t.

    Scattered points use the exact quotient (f(sigma(t)) - f(t)) / mu(t).
    Dense points use a second-order finite difference with the step clamped
    inside the containing segment; rule signals are sampled off-grid, while
    tabulated signals fall back to the neighboring grid points.
    """
    grid = f.grid
    w = grid.window
    i = grid.index_of(t)
    t = float(grid.times[i])
    m = float(grid.mus[i])

    if m > 0.0:
        return (f.at_index(i + 1) - f.at_index(i)) / m

    lo, hi = float(grid.seg_lo[i]), float(grid.seg_hi[i])
    if hi - lo <= w.tol:
        # isolated window end: no successor to difference against
        raise WindowExhausted(f"no successor of t = {t} inside the window")

    if f.rule is not None:
        d_lo, d_hi = t - lo, hi - t
        if d_lo > w.tol and d_hi > w.tol:
            h = min(grid.dense_step / 4, d_lo, d_hi)
            return (f.rule(t + h) - f.rule(t - h)) / (2 * h)
        h = min(grid.dense_step / 4, (hi - lo) / 2)
        if d_lo <= w.tol:  # left segment edge: one-sided forward
            return _lagrange3_derivative(
                t, f.rule(t), f.rule(t + h), f.rule(t + 2 * h),
                t, t + h, t + 2 * h,
            )
        # right segment edge (window end): one-sided backward
        return _lagrange3_derivative(
            t, f.rule(t - 2 * h), f.rule(t - h), f.rule(t),
            t - 2 * h, t - h, t,
        )

    # tabulated: quadratic through the nearest in-segment grid neighbors
    same_seg = lambda j: 0 <= j < len(grid) and grid.seg_index[j] == grid.seg_index[i]
    if same_seg(i - 1) and same_seg(i + 1):
        js = (i - 1, i, i + 1)
    elif same_seg(i + 1) and same_seg(i + 2):
        js = (i, i + 1, i + 2)
    elif same_seg(i - 1) and same_seg(i - 2):
        js = (i - 2, i - 1, i)
    elif same_seg(i + 1):
        return (f.at_index(i + 1) - f.at_index(i)) / (
            grid.times[i + 1] - grid.times[i]
        )
    elif same_seg(i - 1):
        return (f.at_index(i) - f.at_index(i - 1)) / (
            grid.times[i] - grid.times[i - 1]
        )
    else:
        raise WindowExhausted(f"no in-segment neighbors of t = {t}")
    x0, x1, x2 = (float(grid.times[j]) for j in js)
    f0, f1, f2 = (f.at_index(j) for j in js)
    return _lagrange3_derivative(t, f0, f1, f2, x0, x1, x2)


def _walk_range(grid: Grid, a: float, b: float):
    """Yield the scattered points and dense spans of [a, b).

    Yields ("scattered", i) for grid points with mu > 0 in [a, b) and
    ("dense", lo, hi, i_lo, i_hi) for maximal dense spans, where the grid
    indices bracket the span (rule signals integrate over [lo, hi] exactly,
    tabulated ones over the bracketed grid slice).
    """
    w = grid.window
    seg_a = w._locate(a)
    seg_b = w._locate(b)
    for s in range(seg_a, seg_b + 1):
        s_lo, s_hi = w.segments[s]
        lo = max(s_lo, a)
        hi = min(s_hi, b)
        if hi - lo > w.tol:
            i_lo = int(np.searchsorted(grid.times, lo - w.tol))
            i_hi = int(np.searchsorted(grid.times, hi + w.tol)) - 1
            yield ("dense", lo, hi, i_lo, i_hi)
        # right endpoint of the segment: scattered contribution when the
        # jump across the following gap starts inside [a, b)
        if s < seg_b and a - w.tol <= s_hi < b - w.tol:
            i = grid.index_of(s_hi)
            if grid.mus[i] > 0:
                yield ("scattered", i)


def _quadratic_extrapolate(x: float, xs: np.ndarray, ys: np.ndarray) -> float:
    """Value at x of the quadratic through the last three (xs, ys) pairs."""
    (x0, x1, x2), (y0, y1, y2) = xs[-3:], ys[-3:]
    l0 = (x - x1) * (x - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (x - x0) * (x - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (x - x0) * (x - x1) / ((x2 - x0) * (x2 - x1))
    return float(l0 * y0 + l1 * y1 + l2 * y2)


def delta_integral(f: ScalarSignal, a: float, b: float) -> float:
    """Delta integral of f over [a, b).

    Scattered points t in [a, b) contribute mu(t) f(t); dense sub-segments
    are integrated with composite Simpson (absolute tolerance ``QUAD_TOL``
    per segment for rule signals, grid-limited for tabulated ones).

    At a right-scattered segment end the sample value belongs to the
    scattered atom; the dense side sees only the limit from within the
    segment (the endpoint is a null set for the continuous part).  Delta
    derivatives tabulated on the grid carry the jump quotient at exactly
    those points, so the dense quadrature extrapolates its endpoint value
    from the segment interior instead of trusting the sample.
    """
    grid = f.grid
    w = grid.window
    if not w.contains(a) or not w.contains(b):
        raise NotInTimeScale("integration bounds must lie in the window")
    if b < a:
        raise ReversedBounds(f"reversed bounds a = {a} > b = {b}")
    if b - a <= w.tol:
        return 0.0

    total = 0.0
    for item in _walk_range(grid, a, b):
        if item[0] == "scattered":
            i = item[1]
            total += float(grid.mus[i]) * f.at_index(i)
        else:
            _, lo, hi, i_lo, i_hi = item
            ends_scattered = (
                abs(grid.times[i_hi] - hi) <= w.tol and grid.mus[i_hi] > 0.0
            )
            if f.rule is not None:
                fn = f.rule
                if ends_scattered:
                    cut = hi - 1e-12 * max(1.0, hi - lo)
                    fn = lambda t, _f=f.rule, _c=cut: _f(min(t, _c))
                total += _simpson_adaptive(fn, lo, hi, QUAD_TOL)
            else:
                if i_hi - i_lo < 1:
                    raise InvalidParameter(
                        "tabulated integrand needs at least two grid points "
                        "per dense span"
                    )
                if abs(grid.times[i_lo] - lo) > w.tol or abs(
                    grid.times[i_hi] - hi
                ) > w.tol:
                    raise InvalidParameter(
                        "tabulated integrand requires grid-aligned bounds"
                    )
                xs = grid.times[i_lo : i_hi + 1]
                ys = f.table[i_lo : i_hi + 1]
                if ends_scattered and len(xs) >= 4:
                    ys = ys.copy()
                    ys[-1] = _quadratic_extrapolate(float(xs[-1]),
                                                    xs[:-1], ys[:-1])
                total += float(simpson(ys, x=xs))
    return total


def regressivity(p: ScalarSignal, w: TimeScaleWindow | None = None,
                 tol_reg: float = TOL_REG) -> RegressivityClass:
    """Classify 1 + mu(t) p(t) over the grid of p.

    A zero crossing (within ``tol_reg``) makes p not regressive; all values
    above ``tol_reg`` make it positively regressive; otherwise it is
    regressive.
    """
    grid = p.grid
    vals = 1.0 + grid.mus * p.values()
    zeros = [
        (float(t), float(v))
        for t, v, m in zip(grid.times, vals, grid.mus)
        if abs(v) <= tol_reg
    ]
    if zeros:
        return RegressivityClass("not_regressive", tuple(zeros))
    negatives = [
        (float(t), float(v)) for t, v in zip(grid.times, vals) if v <= tol_reg
    ]
    if negatives:
        return RegressivityClass("regressive", tuple(negatives))
    return RegressivityClass("positively_regressive")


def exp_ts(p: ScalarSignal, t: float, t0: float,
           w: TimeScaleWindow | None = None) -> float:
    """Generalized exponential e_p(t, t0): the solution of x^delta = p x,
    x(t0) = 1.

    Forward evaluation multiplies (1 + mu(s) p(s)) over scattered s in
    [t0, t) and exp of the dense-part integral of p; a vanishing factor is
    allowed and simply yields 0 (the forward flow never inverts anything).
    Backward evaluation (t < t0) is the reciprocal of the forward product
    and therefore requires p to be regressive on [t, t0].
    """
    grid = p.grid
    win = grid.window
    backward = t < t0
    lo, hi = (t, t0) if backward else (t0, t)
    if not (win.contains(lo) and win.contains(hi)):
        raise NotInTimeScale("exp_ts endpoints must lie in the window")

    log_dense = 0.0
    product = 1.0
    for item in _walk_range(grid, lo, hi):
        if item[0] == "scattered":
            i = item[1]
            factor = 1.0 + float(grid.mus[i]) * p.at_index(i)
            if backward and abs(factor) <= TOL_REG:
                raise NotRegressive(
                    f"1 + mu p vanishes at t = {grid.times[i]}; "
                    "backward evaluation impossible"
                )
            product *= factor
        else:
            _, d_lo, d_hi, i_lo, i_hi = item
            if p.rule is not None:
                log_dense += _simpson_adaptive(p.rule, d_lo, d_hi, QUAD_TOL)
            else:
                xs = grid.times[i_lo : i_hi + 1]
                ys = p.table[i_lo : i_hi + 1]
                log_dense += float(simpson(ys, x=xs))
    value = product * math.exp(log_dense)
    return 1.0 / value if backward else value


def stack_delta(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise delta derivative of grid-aligned data, vectorized.

    ``values`` has shape (G, ...) with one leading entry per grid point.
    Scattered points use the exact forward quotient; dense points use the
    second-order finite difference through the nearest in-segment grid
    neighbors (one-sided at segment edges, plain slope on two-point
    segments).  Returns (delta, valid); ``valid[i]`` is False where no
    estimate exists (an isolated window end).
    """
    V = np.asarray(values, dtype=float)
    G = len(grid.times)
    if V.shape[0] != G:
        raise InvalidParameter("values must align with the grid")
    t = grid.times
    mus = grid.mus
    seg = grid.seg_index
    delta = np.zeros_like(V)
    valid = np.zeros(G, dtype=bool)

    def _w(x):  # reshape 1-d coefficient arrays for broadcasting over V
        return x.reshape((-1,) + (1,) * (V.ndim - 1))

    scat = mus > 0.0
    # a trailing slice may end on a scattered point whose successor value
    # is unavailable: no estimate exists there
    blocked = np.zeros(G, dtype=bool)
    blocked[-1] = scat[-1]
    scat &= ~blocked
    i = np.nonzero(scat)[0]
    if len(i):
        delta[i] = (V[i + 1] - V[i]) / _w(mus[i])
        valid[i] = True

    dense = ~scat & ~blocked
    center = np.zeros(G, dtype=bool)
    center[1:-1] = (
        dense[1:-1] & (seg[1:-1] == seg[:-2]) & (seg[1:-1] == seg[2:])
    )
    i = np.nonzero(center)[0]
    if len(i):
        x0, x1, x2 = t[i - 1], t[i], t[i + 1]
        c0 = (x1 - x2) / ((x0 - x1) * (x0 - x2))
        c1 = (2 * x1 - x0 - x2) / ((x1 - x0) * (x1 - x2))
        c2 = (x1 - x0) / ((x2 - x0) * (x2 - x1))
        delta[i] = _w(c0) * V[i - 1] + _w(c1) * V[i] + _w(c2) * V[i + 1]
        valid[i] = True

    # segment edges: one-sided stencils through up to four in-segment
    # neighbors (third order where available); rare, so a plain loop
    edges = np.nonzero(dense & ~scat & ~center)[0]
    for i in edges:
        s = seg[i]
        if i + 1 < G and seg[i + 1] == s:  # forward (segment start)
            js = [i, i + 1]
            for j in (i + 2, i + 3):
                if j < G and seg[j] == s:
                    js.append(j)
        elif i - 1 >= 0 and seg[i - 1] == s:  # backward (window end)
            js = [i - 1, i]
            for j in (i - 2, i - 3):
                if j >= 0 and seg[j] == s:
                    js.insert(0, j)
        else:
            continue  # isolated window end: no estimate
        if len(js) == 2:
            delta[i] = (V[js[1]] - V[js[0]]) / (t[js[1]] - t[js[0]])
        else:
            ws = _lagrange_derivative_weights(float(t[i]), t[np.array(js)])
            delta[i] = sum(wj * V[j] for wj, j in zip(ws, js))
        valid[i] = True

    return delta, valid
