"""Scipy-only references for the benchmark's correctness gate.

Nothing here imports chronoslyap.  A window is a sorted list of closed
segments (a, b); a degenerate segment is a scattered point.  The references
follow the piecewise-exact flow of a constant system: Van Loan block matrix
exponentials across dense pieces and I + mu A per jump.  Algebraic rows are
checked against scipy's continuous and discrete Lyapunov solvers.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov, solve_discrete_lyapunov

#: Relative Frobenius error above which an output misses its reference.
REL_TOL = 1e-7

#: Membership tolerance when a sampled time is located in a segment.
LOCATE_TOL = 1e-9

#: States smaller than this are not compared (subnormal rounding).
STATE_FLOOR = 1e-200


def rel_err(value, ref) -> float:
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.linalg.norm(value - ref) / max(np.linalg.norm(ref), 1e-300))


def canonical_segments(kind: str, window, h=None, q=None, a=None, b=None):
    """Segments of a canonical scale in ``window`` (explicit point sets are
    passed through as given)."""
    t0, t1 = float(window[0]), float(window[1])
    if kind == "reals":
        return [(t0, t1)]
    if kind in ("integers", "h_uniform"):
        step = 1.0 if kind == "integers" else float(h)
        k0 = math.ceil(t0 / step - 1e-9)
        k1 = math.floor(t1 / step + 1e-9)
        return [(k * step, k * step) for k in range(k0, k1 + 1)]
    if kind == "quantum":
        k0 = math.ceil(math.log(t0) / math.log(q) - 1e-9)
        k1 = math.floor(math.log(t1) / math.log(q) + 1e-9)
        return [(q ** k, q ** k) for k in range(k0, k1 + 1)]
    if kind == "pulse":
        period = a + b
        segs = []
        k = 0
        while k * period <= t1:
            lo, hi = max(k * period, t0), min(k * period + a, t1)
            if lo <= hi:
                segs.append((lo, hi))
            k += 1
        return segs
    raise ValueError(f"no reference segments for {kind!r}")


def locate(segments, t: float) -> int:
    starts = [s for s, _ in segments]
    j = bisect.bisect_right(starts, t + LOCATE_TOL) - 1
    lo, hi = segments[j]
    if not lo - LOCATE_TOL <= t <= hi + LOCATE_TOL:
        raise ValueError(f"t = {t} is not in the window")
    return j


def graininess(segments, t: float) -> float:
    """mu(t): the gap after a segment end, 0 inside a segment and at the
    window end."""
    j = locate(segments, t)
    if j + 1 < len(segments) and abs(t - segments[j][1]) <= LOCATE_TOL:
        return segments[j + 1][0] - segments[j][1]
    return 0.0


def van_loan(A: np.ndarray, M: np.ndarray, h: float):
    """(expm(h A), integral_0^h expm(s A^T) M expm(s A) ds) from one block
    matrix exponential."""
    n = A.shape[0]
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = -A.T
    H[:n, n:] = M
    H[n:, n:] = A
    E = expm(H * h)
    phi = E[n:, n:]
    return phi, phi.T @ E[:n, n:]


def _backward_nodes(A, M, lo: float, hi: float, P_hi):
    """[(t, P(t))] at nodes hi, hi - h, ..., lo of a dense segment, pulled
    back from P(hi) in Van Loan steps short enough (||A|| h <= 1/2) that the
    block exponential, whose blocks grow like expm(||A|| h), loses no
    accuracy."""
    steps = max(1, math.ceil((hi - lo) * np.linalg.norm(A, 2) / 0.5))
    h = (hi - lo) / steps
    phi, K = van_loan(A, M, h)
    nodes = [(hi, P_hi)]
    for k in range(1, steps + 1):
        P = nodes[-1][1]
        nodes.append((hi - k * h, phi.T @ P @ phi + K))
    return nodes


def stationary_reference(A, M, segments, times) -> np.ndarray:
    """P(t) = integral over [t, window end) of Phi^T(s, t) M Phi(s, t) on
    the time scale, at each of ``times``."""
    n = A.shape[0]
    eye = np.eye(n)
    nodes: dict[int, list] = {}          # dense segment -> backward nodes
    at_start = [None] * len(segments)    # P(a_j)
    P = np.zeros((n, n))
    for j in range(len(segments) - 1, -1, -1):
        lo, hi = segments[j]
        if j + 1 < len(segments):
            mu = segments[j + 1][0] - hi
            B = eye + mu * A
            P = B.T @ at_start[j + 1] @ B + mu * M
        if hi > lo:
            nodes[j] = _backward_nodes(A, M, lo, hi, P)
            P = nodes[j][-1][1]
        else:
            nodes[j] = [(hi, P)]
        at_start[j] = P
    out = []
    for t in times:
        t = float(t)
        # the nearest node at or after t, then one short step back to t
        t_node, P_node = min((node for node in nodes[locate(segments, t)]
                              if node[0] >= t - LOCATE_TOL),
                             key=lambda node: node[0])
        if t_node - t <= LOCATE_TOL:
            out.append(P_node)
        else:
            phi, K = van_loan(A, M, t_node - t)
            out.append(phi.T @ P_node @ phi + K)
    return np.array(out)


def transition_reference(A, segments, times) -> np.ndarray:
    """Phi(t, window start) at each of the sorted ``times``."""
    n = A.shape[0]
    eye = np.eye(n)
    out = []
    X = eye
    k = 0
    times = [float(t) for t in times]
    for j, (lo, hi) in enumerate(segments):
        while k < len(times) and times[k] <= hi + LOCATE_TOL:
            out.append(expm(A * (times[k] - lo)) @ X if hi > lo else X)
            k += 1
        if k == len(times):
            break
        if hi > lo:
            X = expm(A * (hi - lo)) @ X
        X = (eye + (segments[j + 1][0] - hi) * A) @ X
    return np.array(out)


def algebraic_reference(A, M, mu: float) -> np.ndarray:
    """Solution of A^T P + P A + mu A^T P A = -M."""
    if mu == 0.0:
        return solve_continuous_lyapunov(A.T, -M)
    B = np.eye(A.shape[0]) + mu * A
    return solve_discrete_lyapunov(B.T, mu * M)


def states_error(phis: np.ndarray, x0: np.ndarray, states: np.ndarray) -> float:
    """Worst relative error of sampled states against Phi x0, skipping
    states that have decayed into the subnormal range."""
    worst = 0.0
    for phi, x in zip(phis, states):
        ref = phi @ x0
        if np.linalg.norm(ref) > STATE_FLOOR:
            worst = max(worst, rel_err(x, ref))
    return worst
