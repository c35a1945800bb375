import numpy as np
import pytest

from chronoslyap import (
    build_grid,
    empirical_decay,
    is_positive_definite,
    lyapunov_trace,
    make_canonical,
    simulate,
    solve_tsdle,
    solve_tsdle_stationary,
)
from chronoslyap.errors import GridMismatch, NonSymmetric, NotRegressive
from chronoslyap.tscalc import ScalarSignal, exp_ts
from chronoslyap.verify import _decay_envelope
from conftest import random_hurwitz, random_spd


class TestSimulate:
    def test_discrete_decay(self):
        w = make_canonical("integers", (0, 10))
        traj = simulate([[-0.5]], w, [1.0], dense_step=1.0)
        np.testing.assert_allclose(
            traj.states[:, 0], 0.5 ** np.arange(11), rtol=1e-14
        )

    def test_continuous_decay(self):
        w = make_canonical("reals", (0, 3))
        traj = simulate([[-1.0]], w, [2.0], dense_step=0.01)
        i = traj.grid.index_of(3.0)
        assert traj.states[i, 0] == pytest.approx(2 * np.exp(-3), rel=1e-8)

    def test_pulse_trajectory_dies_at_gap(self):
        w = make_canonical("pulse", (0, 3), a=1, b=1)
        with pytest.warns(RuntimeWarning, match="not regressive"):
            traj = simulate([[-1.0]], w, [1.0], dense_step=0.01)
        i = traj.grid.index_of(3.0)
        assert traj.states[i, 0] == 0.0

    def test_scattered_update_exact(self):
        w = make_canonical("pulse", (0, 3), a=1, b=1)
        A = np.array([[-0.5]])
        traj = simulate(A, w, [1.0], dense_step=0.01)
        g = traj.grid
        i = g.index_of(1.0)
        lhs = traj.states[i + 1]
        rhs = (np.eye(1) + 1.0 * A) @ traj.states[i]
        np.testing.assert_array_equal(lhs, rhs)

    def test_halved_step_agreement(self, rng):
        w = make_canonical("pulse", (0, 5), a=1, b=1)
        A = random_hurwitz(rng, 2)
        x0 = rng.normal(size=2)
        t1 = simulate(A, w, x0, dense_step=0.02)
        t2 = simulate(A, w, x0, dense_step=0.01)
        for t in (1.0, 3.0, 5.0):
            i1, i2 = t1.grid.index_of(t), t2.grid.index_of(t)
            assert np.linalg.norm(t1.states[i1] - t2.states[i2]) <= 1e-7


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_indefinite(self):
        assert not is_positive_definite([[1.0, 2.0], [2.0, 1.0]])

    def test_zero_excluded(self):
        assert not is_positive_definite(np.zeros((2, 2)))

    def test_non_symmetric_rejected(self):
        with pytest.raises(NonSymmetric):
            is_positive_definite([[1.0, 0.5], [0.0, 1.0]])


class TestLyapunovTrace:
    def test_continuous_stationary_certificate(self):
        w = make_canonical("reals", (0, 3))
        g = build_grid(w, 0.002)
        sol = solve_tsdle_stationary([[-1.0]], [[1.0]], w, 0.0,
                                     tail_tol=1e-2, grid=g)
        traj = simulate([[-1.0]], w, [1.0], grid=g)
        trace = lyapunov_trace(sol, traj)
        assert trace.verdicts.V_positive
        assert trace.verdicts.V_delta_negative
        # V ~ 0.5 e^{-2t}, V^delta ~ -e^{-2t} near the window start
        assert trace.V[0] == pytest.approx(0.5, rel=1e-2)
        assert trace.V_delta[0] == pytest.approx(-1.0, rel=1e-2)

    def test_equilibrium_is_only_stable(self):
        w = make_canonical("reals", (0, 2))
        g = build_grid(w, 0.01)
        sol = solve_tsdle_stationary([[-1.0]], [[1.0]], w, 0.0,
                                     tail_tol=0.5, grid=g)
        traj = simulate([[-1.0]], w, [0.0], grid=g)
        trace = lyapunov_trace(sol, traj)
        assert not trace.verdicts.V_positive
        assert trace.verdicts.V_delta_nonpositive
        assert not trace.verdicts.V_delta_negative

    def test_discrete_cost_identity(self):
        # with the stationary certificate, V^delta = -x M x exactly
        w = make_canonical("integers", (0, 20))
        g = build_grid(w, 1.0)
        sol = solve_tsdle_stationary([[-0.5]], [[1.0]], w, 0.0, grid=g)
        traj = simulate([[-0.5]], w, [1.0], grid=g)
        trace = lyapunov_trace(sol, traj)
        want = -traj.states[: len(trace.times), 0] ** 2
        np.testing.assert_allclose(
            trace.V_delta[trace.valid], want[trace.valid], rtol=1e-9
        )

    def test_grid_mismatch(self):
        w = make_canonical("reals", (0, 2))
        g1 = build_grid(w, 0.01)
        g2 = build_grid(w, 0.02)
        sol = solve_tsdle([[-1.0]], [[1.0]], [[0.5]], w, 0.0, grid=g1)
        traj = simulate([[-1.0]], w, [1.0], grid=g2)
        with pytest.raises(GridMismatch):
            lyapunov_trace(sol, traj)

    def test_two_route_agreement(self, rng):
        w = make_canonical("pulse", (0, 4), a=1, b=1)
        g = build_grid(w, 0.002)
        A = random_hurwitz(rng, 2, lo=0.4, hi=1.0)
        M = random_spd(rng, 2)
        sol = solve_tsdle_stationary(A, M, w, 0.0, tail_tol=0.5, grid=g)
        traj = simulate(A, w, rng.normal(size=2), grid=g)
        trace = lyapunov_trace(sol, traj)  # raises if beyond 1e-5
        assert trace.agreement_max <= 1e-5


class TestEmpiricalDecay:
    def test_slow_envelope_holds(self):
        w = make_canonical("reals", (0, 4))
        traj = simulate([[-1.0]], w, [1.0], dense_step=0.01)
        assert empirical_decay(traj, 0.5)

    def test_fast_envelope_fails(self):
        w = make_canonical("reals", (0, 4))
        traj = simulate([[-1.0]], w, [1.0], dense_step=0.01)
        assert not empirical_decay(traj, 2.0)

    def test_discrete_envelope(self):
        w = make_canonical("integers", (0, 30))
        traj = simulate([[-0.5]], w, [1.0], dense_step=1.0)
        assert empirical_decay(traj, 0.4)  # 1 - 0.4 = 0.6 > 0.5

    def test_envelope_matches_exp_ts_on_pulse(self):
        w = make_canonical("pulse", (0, 6), a=1, b=0.5)
        g = build_grid(w, 0.05)
        p = ScalarSignal.from_rule(g, lambda t: -0.7)
        want = [exp_ts(p, float(t), 0.0) for t in g.times]
        np.testing.assert_allclose(_decay_envelope(g, 0.7), want, rtol=1e-12)

    def test_requires_positive_regressivity(self):
        w = make_canonical("integers", (0, 10))
        traj = simulate([[-0.5]], w, [1.0], dense_step=1.0)
        with pytest.raises(NotRegressive):
            empirical_decay(traj, 1.0)  # 1 - mu*lambda = 0
