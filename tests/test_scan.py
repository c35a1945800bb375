"""The prefix-scan sweeps against the sequential loops they replace: the
forward transition (product mode) and the backward Gramian (affine mode),
on random windows with scheduled A, and the scan kernel at edge lengths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoslyap import (
    CostMatrix,
    SystemMatrix,
    TimeScaleWindow,
    build_grid,
    sweep_transition,
)
from chronoslyap.lyapunov import _backward_gramian_sweep
from chronoslyap.transition import scan_maps, step_table
from conftest import random_orthogonal, random_spd
from sweep_oracles import backward_gramian_loop, forward_sweep_loop

#: Grid sizes around the halvings of the odd-even scan.
SIZES = [1, 2, 3, *[2**k + d for k in range(2, 7) for d in (-1, 1)]]


def _assert_close(got, want, rtol=1e-12):
    """Relative Frobenius agreement per matrix (exact where want is 0)."""
    err = np.linalg.norm(got - want, axis=(1, 2))
    assert np.all(err <= rtol * np.linalg.norm(want, axis=(1, 2))), (
        err / np.linalg.norm(want, axis=(1, 2)))


def _window(draw, G, step):
    """Segments whose grid at ``step`` has exactly G points: single points
    and dense intervals of c >= 2 points (last sub-step shortened)."""
    segs, t, left = [], 0.0, G
    while left:
        c = 1 if left == 1 else draw(st.sampled_from([1, 2, left])
                                     | st.integers(1, left))
        length = 0.0 if c == 1 else (c - 2 + draw(st.floats(0.3, 1.0))) * step
        segs.append((t, t + length))
        t += length + draw(st.floats(0.05, 0.6))
        left -= c
    return TimeScaleWindow(tuple(segs))


@st.composite
def scan_cases(draw):
    G, n = draw(st.sampled_from(SIZES)), draw(st.integers(1, 4))
    step = draw(st.floats(0.03, 0.3))
    w = _window(draw, G, step)
    grid = build_grid(w, step)
    assert len(grid) == G
    kind = draw(st.sampled_from(["mixed", "growing", "singular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    t_end = w.t_end
    # breakpoints drawn at random land inside grid intervals and gaps
    breaks = sorted(rng.uniform(0.0, t_end, size=draw(st.integers(0, 3))))
    times = [0.0, *[b for b in breaks if b > 0.0]]
    mats = rng.uniform(-0.8, 0.8, size=(len(times), n, n))
    if kind == "growing":
        mats += 1.5 * np.eye(n)
    jumps = np.flatnonzero(grid.mus > 0.0)
    if kind == "singular" and len(jumps):
        # I + mu A = I - v v^T at one scattered point: a piece starts there
        j = int(jumps[draw(st.integers(0, len(jumps) - 1))])
        t_j, mu = float(grid.times[j]), float(grid.mus[j])
        v = random_orthogonal(rng, n)[:, 0]
        keep = [i for i, t in enumerate(times) if t < t_j]
        times = [times[i] for i in keep] + [t_j]
        mats = np.concatenate([mats[keep], [-np.outer(v, v) / mu]])
    A = SystemMatrix.from_schedule(times, mats)
    base = draw(st.integers(0, G - 1))
    return A, grid, random_spd(rng, n), base


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_scan_sweeps_match_sequential_loops(case):
    A, grid, M, base = case
    table = step_table(A, grid, CostMatrix.from_constant(M))
    stack = sweep_transition(A, grid, base_index=base, table=table).stack
    want = forward_sweep_loop(table.F, base)
    assert np.isnan(stack[:base]).all()
    _assert_close(stack[base:], want[base:])
    _assert_close(_backward_gramian_sweep(table),
                  backward_gramian_loop(table.F, table.K))


def test_singular_factor_passes_through(rng):
    """A non-regressive jump: the products beyond it are singular."""
    n, G = 3, 17
    F = np.stack([np.eye(n) + 0.1 * rng.normal(size=(n, n))
                  for _ in range(G - 1)])
    v = random_orthogonal(rng, n)[:, 0]
    F[5] = np.eye(n) - np.outer(v, v)
    (C,) = scan_maps(F)
    _assert_close(C, forward_sweep_loop(F)[1:])
    assert np.all(np.abs(np.linalg.det(C[5:])) < 1e-12)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 8, 31, 32, 33])
def test_scan_kernel_at_edge_lengths(rng, m):
    n = 2
    B = np.eye(n) + 0.3 * rng.normal(size=(m, n, n))
    K = np.reshape([random_spd(rng, n) for _ in range(m)], (m, n, n))
    C, S = scan_maps(B, K)
    (C_only,) = scan_maps(B)
    want_C, want_S, X, Y = [], [], np.eye(n), np.zeros((n, n))
    for b, k in zip(B, K):
        X, Y = b @ X, b @ Y @ b.T + k
        want_C.append(X)
        want_S.append(Y)
    want_C = np.reshape(want_C, (m, n, n))
    assert C.shape == S.shape == (m, n, n)
    _assert_close(C, want_C)
    _assert_close(C_only, want_C)
    _assert_close(S, np.reshape(want_S, (m, n, n)))
