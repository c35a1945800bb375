import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_lyapunov, solve_discrete_lyapunov

import chronoslyap.lyapunov as lyap
from chronoslyap import (
    CostMatrix,
    SystemMatrix,
    cdle_direct_solution,
    ddle_recursion_solution,
    make_canonical,
    solve_cale_oracle,
    solve_cdle,
    solve_dale_oracle,
    solve_ddle,
    solve_tsale_pointwise,
    solve_tsale_series,
    solve_tsdle,
    solve_tsdle_stationary,
    stationary_initial_condition,
    tsale_residual,
)
from chronoslyap.errors import (
    InvalidParameter,
    NoDecayDetected,
    NonSymmetricInput,
    NonSymmetricM,
    NotRegressive,
    SeriesNotConverged,
    SpectralRadiusNotLessThanOne,
    SymmetryDriftExceeded,
    UnstableSpectrum,
    WindowTooShort,
)
from conftest import (
    random_hilger_stable,
    random_hurwitz,
    random_orthogonal,
    random_spd,
)


class TestAlgebraicPointwise:
    def test_scalar_continuous(self):
        assert solve_tsale_pointwise([[-1.0]], [[1.0]], 0.0)[0, 0] == \
            pytest.approx(0.5, rel=1e-12)

    def test_scalar_unit_graininess(self):
        got = solve_tsale_pointwise([[-0.5]], [[1.0]], 1.0)[0, 0]
        assert got == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_scalar_half_graininess(self):
        got = solve_tsale_pointwise([[-1.0]], [[1.0]], 0.5)[0, 0]
        assert got == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_unstable_spectrum(self):
        with pytest.raises(UnstableSpectrum):
            solve_tsale_pointwise([[0.5]], [[1.0]], 0.0)
        with pytest.raises(UnstableSpectrum):
            solve_tsale_pointwise([[-1.0]], [[1.0]], 2.5)  # |1 - 2.5| >= 1

    def test_non_symmetric_m(self):
        with pytest.raises(NonSymmetricM):
            solve_tsale_pointwise(
                -np.eye(2), [[1.0, 0.5], [0.0, 1.0]], 1.0
            )

    def test_non_finite_m(self):
        for mu in (0.0, 1.0):
            with pytest.raises(InvalidParameter):
                solve_tsale_pointwise(-np.eye(1), [[np.nan]], mu)

    def test_meta_records_tail(self):
        meta = {}
        solve_tsale_pointwise([[-0.5]], [[1.0]], 1.0, meta=meta)
        assert meta["method"] == "series"
        assert meta["terms"] > 1 and meta["tail"] < 1e-9

    def test_positive_definite_propagation(self, rng):
        for mu in (0.0, 0.3, 1.0):
            n = 3
            A = (random_hurwitz(rng, n) if mu == 0.0
                 else random_hilger_stable(rng, n, mu))
            M = random_spd(rng, n)
            P = solve_tsale_pointwise(A, M, mu)
            assert np.linalg.eigvalsh(P)[0] > 0

    def test_zero_cost_accepted(self):
        for mu in (0.0, 0.5):
            P = solve_tsale_pointwise([[-1.0]], [[0.0]], mu)
            assert P[0, 0] == 0.0

    def test_indefinite_cost_accepted(self, rng):
        # solvable, but the result is unusable as a certificate
        A = random_hurwitz(rng, 2)
        M = np.diag([1.0, -0.5])
        P = solve_tsale_pointwise(A, M, 0.0)
        res = np.linalg.norm(A.T @ P + P @ A + M, "fro")
        assert res <= 1e-10
        from chronoslyap import is_positive_definite

        assert not is_positive_definite(M)


def _rel(P, want):
    return float(np.linalg.norm(P - want, "fro") / np.linalg.norm(want, "fro"))


@st.composite
def algebraic_cases(draw):
    """(A, M, mu) with n <= 8, mu in {0} or (0, 1] and a non-normal A whose
    spectrum lies inside the Hilger region for mu."""
    n = draw(st.integers(1, 8))
    mu = draw(st.just(0.0) | st.floats(1e-6, 1.0))
    shear = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    q = random_orthogonal(rng, n)
    upper = shear * np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    if mu == 0.0:
        A = q @ (np.diag(-rng.uniform(0.2, 2.0, size=n)) + upper) @ q.T
    else:  # Schur form of B = I + mu A, eigenvalues in (-0.9, 0.9)
        B = q @ (np.diag(rng.uniform(-0.9, 0.9, size=n)) + upper) @ q.T
        A = (B - np.eye(n)) / mu
    return A, random_spd(rng, n), mu


class TestProductionAlgebraic:
    @settings(max_examples=60, deadline=None)
    @given(algebraic_cases())
    def test_matches_kronecker_oracles(self, case):
        A, M, mu = case
        P = solve_tsale_pointwise(A, M, mu)
        want = (solve_cale_oracle(A, M) if mu == 0.0
                else solve_dale_oracle(mu * A, mu * M))
        assert _rel(P, want) <= 1e-9

    @pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_tail_bounds_the_gap_under_transient_growth(self, tol):
        mu = 0.5
        B = np.array([[0.6, 8.0], [0.0, 0.6]])  # ||B^k|| peaks near 13
        A, M = (B - np.eye(2)) / mu, np.eye(2)
        meta = {}
        P = solve_tsale_pointwise(A, M, mu, horizon_tol=tol, meta=meta)
        gap = float(np.linalg.norm(solve_dale_oracle(mu * A, mu * M) - P,
                                   "fro"))
        assert 0.0 < gap <= meta["tail"]
        assert meta["tail"] <= tol * np.linalg.norm(P, "fro")
        assert meta["terms"] & (meta["terms"] - 1) == 0  # a power of two

    def test_continuous_beyond_the_oracle_cap(self, rng):
        n = 20
        A = random_hurwitz(rng, n) + np.triu(rng.normal(size=(n, n)), 1) / n
        M = random_spd(rng, n)
        meta = {}
        P = solve_tsale_pointwise(A, M, 0.0, meta=meta)
        res = np.linalg.norm(A.T @ P + P @ A + M, "fro")
        assert res <= 1e-10 * np.linalg.norm(M, "fro")
        assert meta["method"] == "bartels-stewart"
        with pytest.raises(InvalidParameter):
            solve_cale_oracle(A, M)

    def test_term_cap(self):
        # B = 1/2 needs 32 terms for a tail below 1e-10 relative
        with pytest.raises(SeriesNotConverged):
            solve_tsale_pointwise([[-0.5]], [[1.0]], 1.0, max_terms=16)
        meta = {}
        solve_tsale_pointwise([[-0.5]], [[1.0]], 1.0, max_terms=32, meta=meta)
        assert meta["terms"] == 32


def _stein_key(rng, n, mu, shear, radius=0.9):
    """Non-normal A whose B = I + mu A has eigenvalues in (-radius, radius)."""
    q = random_orthogonal(rng, n)
    upper = shear * np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    B = q @ (np.diag(rng.uniform(-radius, radius, size=n)) + upper) @ q.T
    return (B - np.eye(n)) / mu


@st.composite
def series_stacks(draw):
    """(A, M, mus): k <= 6 keys of one n <= 8, each with its own mu in
    (0, 1] (a repeated A among them) and a non-normal Hilger-stable A."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    mus = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=k,
                                 max_size=k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    shear = draw(st.floats(0.0, 1.0))
    A = np.stack([_stein_key(rng, n, mu, shear) for mu in mus])
    if k > 1:  # the same A at a second graininess, if still Hilger-stable
        B = np.eye(n) + mus[1] * A[0]
        if np.max(np.abs(np.linalg.eigvals(B))) < 0.95:
            A[1] = A[0]
    return A, random_spd(rng, n), mus


class TestSeriesStack:
    @settings(max_examples=60, deadline=None)
    @given(series_stacks())
    def test_matches_stein_oracle_and_single_solves(self, case):
        A, M, mus = case
        P, terms, tails = solve_tsale_series(A, M, mus)
        res = tsale_residual(A, P, M, mus)
        for i, mu in enumerate(mus):
            want = solve_dale_oracle(mu * A[i], mu * M)
            assert _rel(P[i], want) <= 1e-9
            one, t1, tail1 = solve_tsale_series(A[i:i + 1], M, mus[i:i + 1])
            assert P[i].tobytes() == one[0].tobytes()
            assert (terms[i], tails[i]) == (t1[0], tail1[0])
            assert res[i] == tsale_residual(A[i], P[i], M, mu)

    def test_fast_and_slow_keys_keep_their_own_terms(self, rng):
        n, M = 3, random_spd(rng, 3)
        mus = np.array([0.5, 0.25, 1.0, 0.5, 0.125])
        radii = [0.1, 0.99, 0.5, 0.995, 0.1]
        A = np.stack([_stein_key(rng, n, mu, 0.5, r)
                      for mu, r in zip(mus, radii)])
        P, terms, tails = solve_tsale_series(A, M, mus)
        assert len(set(terms.tolist())) >= 3
        for i, mu in enumerate(mus):
            meta = {}
            single = solve_tsale_pointwise(A[i], M, mu, meta=meta)
            assert P[i].tobytes() == single.tobytes()
            assert (terms[i], tails[i]) == (meta["terms"], meta["tail"])
            assert tails[i] <= lyap.SERIES_TOL * np.linalg.norm(P[i])

    def test_errors_name_the_first_failing_key(self):
        M = np.eye(1)
        slow = [[-0.001]]  # B = 0.999: far more than 64 terms
        unstable = [[-3.0]]  # B = 1 - 3 mu: outside the Hilger disk
        fine = [[-2.0]]  # B = 1 - 2 mu: a few terms at mu <= 0.5
        stack = np.array([fine, slow, unstable, slow])
        with pytest.raises(SeriesNotConverged, match=r"at mu = 0\.5 "):
            solve_tsale_series(stack, M, [0.25, 0.5, 0.75, 1.0],
                               max_terms=64)
        stack = np.array([fine, unstable, slow, unstable])
        with pytest.raises(UnstableSpectrum, match=r"mu = 0\.75$"):
            solve_tsale_series(stack, M, [0.5, 0.75, 1.0, 0.25],
                               max_terms=64)
        with pytest.raises(InvalidParameter):
            solve_tsale_series(stack, M, [0.5, 0.0, 1.0, 0.25])
        with pytest.raises(NonSymmetricM):
            solve_tsale_series(np.stack([-np.eye(2)] * 2),
                               [[1.0, 0.5], [0.0, 1.0]], [0.5, 1.0])


class TestOracles:
    def test_cale_identity_pair(self):
        P = solve_cale_oracle(-np.eye(2), np.eye(2))
        np.testing.assert_allclose(P, 0.5 * np.eye(2), atol=1e-14)

    def test_cale_scalar(self):
        assert solve_cale_oracle([[-3.0]], [[6.0]])[0, 0] == \
            pytest.approx(1.0, rel=1e-13)

    def test_cale_residual_certificate(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        P = solve_cale_oracle(A, np.eye(2))
        res = np.linalg.norm(A.T @ P + P @ A + np.eye(2), "fro")
        assert res <= 1e-10

    def test_cale_matches_scipy(self, rng):
        A = random_hurwitz(rng, 4)
        M = random_spd(rng, 4)
        P = solve_cale_oracle(A, M)
        want = solve_continuous_lyapunov(A.T, -M)
        np.testing.assert_allclose(P, want, rtol=1e-10)

    def test_dale_scalar_geometric(self):
        assert solve_dale_oracle([[-0.5]], [[1.0]])[0, 0] == \
            pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_dale_rejects_unit_radius(self):
        with pytest.raises(SpectralRadiusNotLessThanOne):
            solve_dale_oracle(np.zeros((2, 2)), np.eye(2))

    def test_dale_nilpotent_recursive_part(self):
        assert solve_dale_oracle([[-1.0]], [[7.0]])[0, 0] == \
            pytest.approx(7.0, rel=1e-14)

    def test_dale_matches_scipy_and_series(self, rng):
        A = random_hilger_stable(rng, 3, mu=1.0)
        M = random_spd(rng, 3)
        P = solve_dale_oracle(A, M)
        Ar = A + np.eye(3)
        want = solve_discrete_lyapunov(Ar.T, M)
        np.testing.assert_allclose(P, want, rtol=1e-10)
        series = np.zeros((3, 3))
        term = M.copy()
        for _ in range(400):
            series += term
            term = Ar.T @ term @ Ar
        np.testing.assert_allclose(P, series, rtol=1e-10)

    def test_dimension_cap(self, rng):
        with pytest.raises(InvalidParameter):
            solve_cale_oracle(-np.eye(13), np.eye(13))


class TestUnificationInvariants:
    def test_stein_identity_machine_precision(self, rng):
        for _ in range(5):
            n = 3
            A = rng.normal(size=(n, n))
            P = random_spd(rng, n)
            mu = float(rng.uniform(0.1, 2.0))
            B = np.eye(n) + mu * A
            lhs = B.T @ P @ B - P
            rhs = mu * (A.T @ P + P @ A + mu * A.T @ P @ A)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.abs(P).max())

    def test_mu_zero_equals_cale_oracle(self, rng):
        for _ in range(5):
            A = random_hurwitz(rng, 3)
            M = random_spd(rng, 3)
            P1 = solve_tsale_pointwise(A, M, 0.0)
            P2 = solve_cale_oracle(A, M)
            assert np.linalg.norm(P1 - P2) <= 1e-8 * np.linalg.norm(P2)

    def test_mu_one_equals_dale_oracle(self, rng):
        for _ in range(5):
            A = random_hilger_stable(rng, 3, mu=1.0)
            M = random_spd(rng, 3)
            P1 = solve_tsale_pointwise(A, M, 1.0)
            P2 = solve_dale_oracle(A, M)
            assert np.linalg.norm(P1 - P2) <= 1e-8 * np.linalg.norm(P2)


class TestDynamicSolve:
    def test_continuous_fixed_point_stays_flat(self):
        w = make_canonical("reals", (0, 2))
        sol = solve_tsdle([[-1.0]], [[1.0]], [[0.5]], w, 0.0,
                          dense_step=0.002)
        assert np.max(np.abs(sol.values - 0.5)) <= 1e-8 * 0.5

    def test_discrete_fixed_point_stays_flat(self):
        w = make_canonical("integers", (0, 4))
        sol = solve_tsdle([[-0.5]], [[1.0]], [[4.0 / 3.0]], w, 0.0,
                          dense_step=1.0)
        assert np.max(np.abs(sol.values - 4.0 / 3.0)) <= 1e-12

    def test_perturbed_initial_matrix_grows(self):
        w = make_canonical("reals", (0, 3))
        sol = solve_tsdle([[-1.0]], [[1.0]], [[0.6]], w, 0.0,
                          dense_step=0.002)
        for t in (1.0, 2.0, 3.0):
            want = 0.5 + 0.1 * np.exp(2 * t)
            assert sol.value_at(t)[0, 0] == pytest.approx(want, rel=1e-6)

    def test_requires_regressivity(self):
        w = make_canonical("integers", (0, 4))
        with pytest.raises(NotRegressive):
            solve_tsdle([[-1.0]], [[1.0]], [[1.0]], w, 0.0, dense_step=1.0)

    def test_batched_drift_check_names_first_time(self):
        P = np.stack([np.eye(2)] * 5)
        P[3, 0, 1] += 1e-6
        P[4, 1, 0] += 1e-6
        with pytest.raises(SymmetryDriftExceeded, match=r"at t = 0\.3 "):
            lyap._symmetrize_stack_checked(P, np.arange(5) / 10)
        np.testing.assert_array_equal(
            lyap._symmetrize_stack_checked(P[:3], np.arange(3)), P[:3])

    def test_ill_conditioned_transport_warns_once(self):
        # cond(Phi) passes COND_WARN near the end of the window only
        A = np.array([[-0.5, 1e4], [0.0, -0.5]])
        w = make_canonical("integers", (0, 60))
        with pytest.warns(RuntimeWarning, match="condition number") as rec:
            sol = solve_tsdle(A, np.eye(2), np.zeros((2, 2)), w, 0.0,
                              dense_step=1.0)
        assert len(rec) == 1 and "t = 60.0" in str(rec[0].message)
        assert np.all(np.isfinite(sol.values))

    def test_requires_window_start(self):
        w = make_canonical("reals", (0, 2))
        with pytest.raises(InvalidParameter):
            solve_tsdle([[-1.0]], [[1.0]], [[0.5]], w, 1.0)

    def test_symmetric_inputs_required(self):
        w = make_canonical("reals", (0, 1))
        with pytest.raises(NonSymmetricInput):
            solve_tsdle(-np.eye(2), np.eye(2),
                        [[1.0, 0.3], [0.0, 1.0]], w, 0.0)

    def test_residuals_recorded(self):
        w = make_canonical("pulse", (0, 4), a=1, b=1)
        sol = solve_tsdle([[-0.5]], [[1.0]], [[1.0]], w, 0.0,
                          dense_step=0.005)
        assert np.isfinite(sol.meta["max_residual"])
        assert sol.meta["max_residual"] <= 1e-4

    def test_uniqueness_across_steps(self, rng):
        w = make_canonical("pulse", (0, 4), a=1, b=1)
        A = random_hurwitz(rng, 2, lo=0.3, hi=0.8)
        M = random_spd(rng, 2)
        P0 = random_spd(rng, 2)
        s1 = solve_tsdle(A, M, P0, w, 0.0, dense_step=0.01)
        s2 = solve_tsdle(A, M, P0, w, 0.0, dense_step=0.005)
        common = np.isin(np.round(s1.times, 9), np.round(s2.times, 9))
        for t in s1.times[common][:: max(1, common.sum() // 10)]:
            d = np.linalg.norm(s1.value_at(t) - s2.value_at(t))
            assert d <= 1e-6 * max(1.0, np.linalg.norm(s2.value_at(t)))

    def test_ic_perturbation_grows_monotonically(self):
        w = make_canonical("reals", (0, 2))
        base = solve_tsdle([[-1.0]], [[1.0]], [[0.5]], w, 0.0,
                           dense_step=0.01)
        pert = solve_tsdle([[-1.0]], [[1.0]], [[0.6]], w, 0.0,
                           dense_step=0.01)
        gap = np.abs(pert.values - base.values)[:, 0, 0]
        sampled = gap[:: len(gap) // 20]
        assert np.all(np.diff(sampled) > 0)


class TestStationary:
    def test_continuous_value(self):
        w = make_canonical("reals", (0, 12))
        P0 = stationary_initial_condition([[-1.0]], [[1.0]], w, 0.0,
                                          dense_step=0.005)
        assert P0[0, 0] == pytest.approx(0.5, rel=1e-8)

    def test_discrete_value(self):
        w = make_canonical("integers", (0, 40))
        P0 = stationary_initial_condition([[-0.5]], [[1.0]], w, 0.0)
        assert P0[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_no_decay_detected(self):
        w = make_canonical("reals", (0, 5))
        with pytest.raises(
            NoDecayDetected,
            match=r"fitted rate 2\.000e-01 over a window of length 5; "
                  r"either the spectrum is not stable for this time scale "
                  r"or the window is too short to show decay",
        ):
            stationary_initial_condition([[0.1]], [[1.0]], w, 0.0)

    def test_window_too_short(self):
        w = make_canonical("reals", (0, 1))
        with pytest.raises(WindowTooShort):
            stationary_initial_condition([[-0.05]], [[1.0]], w, 0.0)

    def test_zero_cost_gives_zero(self):
        w = make_canonical("reals", (0, 2))
        P0 = stationary_initial_condition([[-1.0]], [[0.0]], w, 0.0)
        assert P0[0, 0] == 0.0

    def test_stationary_solve_continuous(self):
        w = make_canonical("reals", (0, 12))
        sol = solve_tsdle_stationary([[-1.0]], [[1.0]], w, 0.0,
                                     dense_step=0.01)
        ct = sol.meta["certified_through"]
        mask = sol.times <= ct
        assert mask.sum() > 100
        assert np.max(np.abs(sol.values[mask] - 0.5)) <= 1e-6

    def test_stationary_solve_h_grid(self):
        w = make_canonical("h_uniform", (0, 20), h=0.5)
        sol = solve_tsdle_stationary([[-1.0]], [[1.0]], w, 0.0)
        mask = sol.times <= sol.meta["certified_through"]
        assert np.max(np.abs(sol.values[mask] - 2.0 / 3.0)) <= 1e-6

    def test_pulse_diag_example(self):
        w = make_canonical("pulse", (0, 10), a=1, b=1)
        sol = solve_tsdle_stationary(np.diag([-1.0, -2.0]), np.eye(2), w,
                                     0.0, tail_tol=1e-6, dense_step=0.002)
        # non-regressive system: handled without inverting transitions
        assert sol.min_eigenvalues().min() > 0
        for P in sol.values[:: len(sol.values) // 7]:
            np.testing.assert_allclose(P, P.T, atol=1e-12)
        assert np.max(np.abs(sol.values - sol.values[0])) > 1e-3
        assert sol.meta["spot_check_max"] <= 1e-6

    def test_terminal_point_not_reported(self):
        w = make_canonical("integers", (0, 30))
        sol = solve_tsdle_stationary([[-0.5]], [[1.0]], w, 0.0)
        assert sol.times[-1] == 29.0
        assert sol.meta["horizon"] == 30.0


class TestAdapters:
    def test_cdle_delegation(self):
        sol = solve_cdle([[-1.0]], [[1.0]], [[0.5]], (0.0, 2.0),
                         dense_step=0.002)
        assert sol.meta["equation"] == "CDLE"
        assert np.max(np.abs(sol.values - 0.5)) <= 1e-8

    def test_cdle_direct_matches_transport(self, rng):
        A = random_hurwitz(rng, 2)
        M = random_spd(rng, 2)
        P0 = random_spd(rng, 2)
        sol = solve_cdle(A, M, P0, (0.0, 1.5), dense_step=0.002)
        for t in (0.5, 1.0, 1.5):
            want = cdle_direct_solution(A, M, P0, t)
            got = sol.value_at(t)
            assert np.linalg.norm(got - want) <= 1e-8 * max(
                1.0, np.linalg.norm(want)
            )

    def test_ddle_one_step_example(self):
        sol = solve_ddle([[-0.5]], [[1.0]], [[0.0]], (0, 3))
        assert sol.value_at(1.0)[0, 0] == pytest.approx(-4.0)
        assert sol.meta["recursion_check"] <= 1e-12

    def test_ddle_zero_cost_is_pure_transport(self, rng):
        A = random_hilger_stable(rng, 2, mu=1.0, rho_lo=0.4, rho_hi=0.8)
        P0 = random_spd(rng, 2)
        sol = solve_ddle(A, np.zeros((2, 2)), P0, (0, 5))
        Ar = A + np.eye(2)
        for k, t in enumerate(sol.times):
            phi = np.linalg.matrix_power(Ar, k)
            want = np.linalg.solve(
                phi.T, np.linalg.solve(phi.T, P0.T).T
            )
            np.testing.assert_allclose(sol.values[k], want,
                                       rtol=1e-9, atol=1e-12)

    def test_recursion_helper_matches_definition(self, rng):
        A = random_hilger_stable(rng, 2, mu=1.0, rho_lo=0.4, rho_hi=0.8)
        M = random_spd(rng, 2)
        P0 = random_spd(rng, 2)
        out = ddle_recursion_solution(
            SystemMatrix.from_constant(A), CostMatrix.from_constant(M),
            P0, [0.0, 1.0, 2.0],
        )
        Ar = A + np.eye(2)
        for k in range(2):
            lhs = Ar.T @ out[k + 1] @ Ar - out[k]
            np.testing.assert_allclose(lhs, -M, atol=1e-10)


class TestStationarityDichotomy:
    def test_constant_graininess_scales_stay_flat(self, rng):
        # the transported solution amplifies seed error by the squared
        # inverse-transition norm, so the seed is solved to machine
        # precision and the spectra keep that amplification moderate
        cases = [
            ("reals", {}, (0.0, 2.0), 0.002, 0.0),
            ("integers", {}, (0.0, 8.0), 1.0, 1.0),
            ("h_uniform", {"h": 0.5}, (0.0, 8.0), 0.5, 0.5),
        ]
        for kind, kwargs, window, step, mu in cases:
            if mu == 0.0:
                A = random_hurwitz(rng, 2, lo=0.3, hi=0.9)
            else:
                A = random_hilger_stable(rng, 2, mu, rho_lo=0.55, rho_hi=0.9)
            M = random_spd(rng, 2)
            P0 = solve_tsale_pointwise(A, M, mu, horizon_tol=1e-15)
            w = make_canonical(kind, window, **kwargs)
            sol = solve_tsdle(A, M, P0, w, 0.0, dense_step=step)
            dev = np.max(np.linalg.norm(sol.values - P0, axis=(1, 2)))
            assert dev <= 1e-8 * np.linalg.norm(P0), kind

    def test_pulse_breaks_stationarity(self):
        # worked example: the algebraic solution at the window start (a
        # dense point, so the continuous solve) is not stationary once the
        # graininess varies
        w = make_canonical("pulse", (0, 6), a=1, b=1)
        P0 = solve_tsale_pointwise([[-0.5]], [[1.0]], 0.0)
        sol = solve_tsdle([[-0.5]], [[1.0]], P0, w, 0.0, dense_step=0.01)
        dev = np.max(np.abs(sol.values[:, 0, 0] - P0[0, 0]))
        assert dev > 1e-3 * abs(P0[0, 0])
