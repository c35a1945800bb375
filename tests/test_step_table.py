"""Exact step-map table: regression tests for stiff inputs, a differential
test against whole-segment exponentials, the independence of the
stationary spot checks and the vectorized regressivity scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_continuous_lyapunov

import chronoslyap.lyapunov as lyap
from chronoslyap import (
    CostMatrix,
    SystemMatrix,
    TimeScaleWindow,
    build_grid,
    check_matrix_regressive,
    lyapunov_trace,
    make_canonical,
    simulate,
    solve_tsdle_stationary,
    sweep_transition,
)
from chronoslyap.errors import SpotCheckFailed
from chronoslyap.lyapunov import _backward_gramian_sweep, _cumulative_gramian
from chronoslyap.transition import step_table
from chronoslyap.tscalc import TOL_REG
from conftest import random_orthogonal, random_spd
from sweep_oracles import forward_sweep_loop


def _stiff_system(rng, n=3):
    q = random_orthogonal(rng, n)
    return q @ np.diag(-np.linspace(5.0, 30.0, n)) @ q.T


# -- stiff inputs come out exact ------------------------------------------------


@pytest.mark.parametrize("lam", [-100.0, -500.0])
def test_simulate_stiff_scalar_matches_exponential(lam):
    w = make_canonical("reals", (0, 2))
    traj = simulate([[lam]], w, [1.0], dense_step=0.01)
    want = np.exp(lam * traj.times)
    keep = want > 1e-200  # beyond that the exact value underflows
    np.testing.assert_allclose(traj.states[keep, 0], want[keep], rtol=1e-10)


def test_stiff_stationary_matches_closed_form(rng):
    A, M = _stiff_system(rng), random_spd(rng, 3)
    w = make_canonical("reals", (0, 3))
    sol = solve_tsdle_stationary(A, M, w, 0.0, tail_tol=0.02, dense_step=0.01)
    # P(t) = X - expm(A^T s) X expm(A s), s = 3 - t, with A^T X + X A = -M
    X = solve_continuous_lyapunov(A.T, -M)
    for i in range(0, len(sol.times), 37):
        E = expm(A * (3.0 - sol.times[i]))
        want = X - E.T @ X @ E
        err = np.linalg.norm(sol.values[i] - want) / np.linalg.norm(want)
        assert err <= 1e-10


def test_stiff_trace_failure_names_the_cause(rng):
    A, M = _stiff_system(rng), random_spd(rng, 3)
    w = make_canonical("reals", (0, 3))
    g = build_grid(w, 0.01)
    sol = solve_tsdle_stationary(A, M, w, 0.0, tail_tol=0.02, grid=g)
    traj = simulate(A, w, [1.0, 0.0, 0.0], grid=g)
    with pytest.raises(SpotCheckFailed, match=r"h\*max\|eig\(A\)\| = 0\.3\b"):
        lyapunov_trace(sol, traj)


# -- the spot checks do not read the table --------------------------------------


def test_perturbed_table_entry_fails_independent_check(monkeypatch):
    w = make_canonical("reals", (0, 4))
    g = build_grid(w, 0.01)
    A, M = np.array([[-1.0]]), np.array([[1.0]])
    solve_tsdle_stationary(A, M, w, 0.0, tail_tol=0.5, grid=g)  # passes
    mid = (len(g) - 1) // 2

    def perturbed(A, grid, cost=None):
        table = step_table(A, grid, cost)
        table.F[mid] += 1e-6
        return table

    monkeypatch.setattr(lyap, "step_table", perturbed)
    with pytest.raises(SpotCheckFailed, match=f"at t = {g.times[mid]:g} "):
        solve_tsdle_stationary(A, M, w, 0.0, tail_tol=0.5, grid=g)


def test_independent_check_follows_schedule_breakpoints(rng):
    w = make_canonical("pulse", (0, 6), a=1, b=0.5)
    mats = np.stack([-np.eye(2), np.diag([-0.5, -2.0]), -0.7 * np.eye(2)])
    # both breakpoints fall strictly inside dense grid intervals
    A = SystemMatrix.from_schedule([0.0, 1.73, 3.37], mats)
    sol = solve_tsdle_stationary(A, random_spd(rng, 2), w, 0.0, tail_tol=0.5,
                                 dense_step=0.02)
    assert sol.meta["spot_check_max"] <= 1e-12


# -- differential test against whole-segment exponentials -----------------------


def _pieces(times, lo, hi):
    return [lo, *[t for t in times if lo < t < hi], hi]


def _segment_pair(A, M, lo, hi):
    """(Phi, Gramian) across [lo, hi): one expm per schedule piece."""
    n = A.n
    F, K = np.eye(n), np.zeros((n, n))
    cuts = _pieces(A.schedule_times, lo, hi)
    for a, b in zip(cuts, cuts[1:]):
        H = np.block([[-A.at(a).T, M], [np.zeros((n, n)), A.at(a)]])
        E = expm(H * (b - a))
        f = E[n:, n:]
        K = K + F.T @ (f.T @ E[:n, n:]) @ F
        F = f @ F
    return F, K


def _reference(A, M, segs, times):
    """Phi(t, t0) and P(t) = integral over [t, t_end) at every grid time."""
    eye = np.eye(A.n)
    seg_of = [next(j for j, (a, b) in enumerate(segs) if a <= t <= b)
              for t in times]
    starts, X = [], eye
    for j, (a, b) in enumerate(segs):
        starts.append(X)
        X = _segment_pair(A, M, a, b)[0] @ X
        if j + 1 < len(segs):
            X = (eye + (segs[j + 1][0] - b) * A.at(b)) @ X
    ends, P = [None] * len(segs), np.zeros((A.n, A.n))
    for j in range(len(segs) - 1, -1, -1):
        b = segs[j][1]
        if j + 1 < len(segs):
            mu = segs[j + 1][0] - b
            B = eye + mu * A.at(b)
            F, K = _segment_pair(A, M, segs[j + 1][0], segs[j + 1][1])
            P = B.T @ (F.T @ ends[j + 1] @ F + K) @ B + mu * M
        ends[j] = P
    phis, Ps = [], []
    for t, j in zip(times, seg_of):
        a, b = segs[j]
        F, _ = _segment_pair(A, M, a, t)
        phis.append(F @ starts[j])
        F, K = _segment_pair(A, M, t, b)
        Ps.append(F.T @ ends[j] @ F + K)
    return np.array(phis), np.array(Ps)


@st.composite
def mixed_windows(draw):
    segs, t = [], 0.0
    for _ in range(draw(st.integers(1, 5))):
        length = draw(st.just(0.0) | st.floats(0.05, 1.0))  # points, intervals
        segs.append((t, t + length))
        t += length + draw(st.floats(0.05, 0.6))
    t_end = segs[-1][1]
    breaks = sorted(draw(st.lists(st.floats(0.01, max(t_end, 0.02)),
                                  max_size=3, unique=True)))
    return (segs, [0.0, *[b for b in breaks if b > 0.0]],
            draw(st.integers(1, 3)), draw(st.floats(0.03, 0.3)),
            draw(st.integers(0, 2**31)))


@settings(max_examples=40, deadline=None)
@given(mixed_windows())
def test_table_sweeps_match_whole_segment_reference(case):
    segs, sched, n, step, seed = case
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-0.8, 0.8, size=(len(sched), n, n))
    A = SystemMatrix.from_schedule(sched, mats)
    M = random_spd(rng, n)
    w = TimeScaleWindow(tuple(segs))
    grid = build_grid(w, step)
    phis, Ps = _reference(A, M, list(w.segments), grid.times)

    cost = CostMatrix.from_constant(M)
    table = step_table(A, grid, cost)
    tm = sweep_transition(A, grid, table=table)
    P = _backward_gramian_sweep(table)
    K, _ = _cumulative_gramian(cost, grid, tm, table)
    for got, want in ((tm.stack, phis), (P, Ps)):
        err = np.linalg.norm(got - want, axis=(1, 2))
        assert np.all(err <= 1e-10 * np.maximum(
            np.linalg.norm(want, axis=(1, 2)), 1.0))
    assert np.linalg.norm(K[-1] - P[0]) <= 1e-10 * np.linalg.norm(P[0])
    # the scan agrees with applying the table in grid order, to rounding
    want = forward_sweep_loop(table.F)
    err = np.linalg.norm(tm.stack - want, axis=(1, 2))
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=(1, 2)))


# -- vectorized regressivity scan -----------------------------------------------


def test_regressivity_witnesses_match_pointwise_scan():
    w = make_canonical("h_uniform", (0, 4), h=0.5)
    mats = np.stack([-2.0 * np.eye(2), np.diag([-1.0, -2.0])])
    A = SystemMatrix.from_schedule([0.0, 2.0], mats)
    r = check_matrix_regressive(A, w, grid=build_grid(w, 0.5))
    want = []
    for t in np.arange(0.0, 4.0, 0.5):
        B = np.eye(2) + 0.5 * A.at(t)
        if abs(np.linalg.det(B)) <= TOL_REG * np.linalg.norm(B, "fro") ** 2:
            want.append((t, float(np.linalg.det(B))))
    assert r.verdict == "not_regressive"
    assert r.witnesses == tuple(want)
