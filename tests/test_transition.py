import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from chronoslyap import (
    ScalarSignal,
    SystemMatrix,
    build_grid,
    check_matrix_regressive,
    exp_ts,
    make_canonical,
    stack_delta,
    sweep_transition,
    transition,
    transition_inverse,
)
from chronoslyap.errors import (
    InvalidParameter,
    NotInTimeScale,
    NotRegressive,
    SingularTransition,
)
from conftest import random_hurwitz


class TestSystemMatrix:
    def test_constant(self):
        A = SystemMatrix.from_constant([[-1.0, 0.5], [0.0, -2.0]])
        assert A.n == 2 and A.is_constant
        np.testing.assert_array_equal(
            A.recursive_at(0.0), [[0.0, 0.5], [0.0, -1.0]]
        )

    def test_schedule_hold_last(self):
        mats = np.stack([np.eye(2) * -1.0, np.eye(2) * -2.0])
        A = SystemMatrix.from_schedule([0.0, 1.0], mats)
        assert A.at(0.5)[0, 0] == -1.0
        assert A.at(1.0)[0, 0] == -2.0
        assert A.at(3.7)[0, 0] == -2.0

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            SystemMatrix.from_constant([[np.inf]])
        with pytest.raises(InvalidParameter):
            SystemMatrix.from_schedule([0.0, 0.0], np.zeros((2, 1, 1)))
        with pytest.raises(InvalidParameter):
            SystemMatrix(n=1, constant=np.eye(1),
                         schedule_times=np.array([0.0]),
                         schedule_mats=np.zeros((1, 1, 1)))


class TestRegressivityCheck:
    def test_singular_on_integers(self):
        w = make_canonical("integers", (0, 5))
        r = check_matrix_regressive(SystemMatrix.from_constant(-np.eye(2)), w)
        assert r.verdict == "not_regressive"
        assert len(r.witnesses) == 5

    def test_regular_on_integers(self):
        w = make_canonical("integers", (0, 5))
        r = check_matrix_regressive(
            SystemMatrix.from_constant(-0.5 * np.eye(2)), w
        )
        assert r.verdict == "regressive"

    def test_vacuous_on_reals(self):
        w = make_canonical("reals", (0, 1))
        A = SystemMatrix.from_constant([[5.0, 3.0], [1.0, -7.0]])
        assert check_matrix_regressive(A, w).verdict == "regressive"


class TestTransition:
    def test_identity_at_base(self):
        w = make_canonical("pulse", (0, 3), a=1, b=1)
        A = SystemMatrix.from_constant([[-0.5]])
        np.testing.assert_array_equal(
            transition(A, w, 0.0, 0.0, dense_step=0.1), np.eye(1)
        )

    def test_matches_matrix_exponential(self, rng):
        w = make_canonical("reals", (0, 2))
        for _ in range(5):
            A = random_hurwitz(rng, 3)
            t = float(rng.uniform(0.3, 2.0))
            got = transition(SystemMatrix.from_constant(A), w, 0.0, t,
                             dense_step=0.01)
            want = expm(A * t)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_exact_powers_on_integers(self):
        w = make_canonical("integers", (0, 8))
        A = np.array([[-0.5, 0.25], [0.0, -0.75]])  # dyadic entries
        sm = SystemMatrix.from_constant(A)
        got = transition(sm, w, 0.0, 5.0, dense_step=1.0)
        want = np.eye(2)
        for _ in range(5):
            want = (np.eye(2) + A) @ want
        np.testing.assert_array_equal(got, want)

    def test_h_grid_matches_power(self, rng):
        h = 0.5
        w = make_canonical("h_uniform", (0, 5), h=h)
        A = random_hurwitz(rng, 2, lo=0.2, hi=0.9)
        got = transition(SystemMatrix.from_constant(A), w, 0.0, 4.0,
                         dense_step=h)
        want = np.linalg.matrix_power(np.eye(2) + h * A, 8)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_scalar_consistency_with_exp_ts(self):
        w = make_canonical("pulse", (0, 5), a=1, b=0.5)
        g = build_grid(w, 0.005)
        A = SystemMatrix.from_constant([[-0.7]])
        p = ScalarSignal.from_rule(g, lambda t: -0.7)
        for t in (1.0, 3.0, 5.0):
            got = transition(A, w, 0.0, t, grid=g)[0, 0]
            want = exp_ts(p, t, 0.0)
            assert got == pytest.approx(want, rel=1e-10)

    def test_semigroup(self, rng):
        w = make_canonical("pulse", (0, 7), a=1.5, b=0.5)
        g = build_grid(w, 0.02)
        A = SystemMatrix.from_constant(random_hurwitz(rng, 2))
        full = sweep_transition(A, g)
        s = 2.0
        part = sweep_transition(A, g, base_index=g.index_of(s))
        for t in (3.0, 5.5, 7.0):
            lhs = part.at(t) @ full.at(s)
            rhs = full.at(t)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_dynamic_equation_residual(self, rng):
        w = make_canonical("pulse", (0, 5), a=1, b=1)
        g = build_grid(w, 0.002)
        A_mat = random_hurwitz(rng, 2)
        tm = sweep_transition(SystemMatrix.from_constant(A_mat), g)
        delta, valid = stack_delta(g, tm.stack)
        for i in range(len(g)):
            if not valid[i]:
                continue
            want = A_mat @ tm.stack[i]
            if g.mus[i] > 0:
                np.testing.assert_allclose(delta[i], want, atol=1e-12)
            else:
                assert np.linalg.norm(delta[i] - want) <= 1e-6 * max(
                    np.linalg.norm(want), 1.0
                )

    def test_off_grid_dense_point(self):
        w = make_canonical("reals", (0, 1))
        A = SystemMatrix.from_constant([[-1.0]])
        got = transition(A, w, 0.0, 0.637, dense_step=0.01)
        assert got[0, 0] == pytest.approx(np.exp(-0.637), rel=1e-9)

    def test_backward_is_inverse(self):
        w = make_canonical("integers", (0, 4))
        A = SystemMatrix.from_constant([[-0.5]])
        got = transition(A, w, 2.0, 0.0, dense_step=1.0)
        assert got[0, 0] == pytest.approx(4.0)

    def test_backward_non_regressive_raises(self):
        w = make_canonical("pulse", (0, 3), a=1, b=1)
        A = SystemMatrix.from_constant([[-1.0]])
        with pytest.raises(NotRegressive):
            transition(A, w, 3.0, 0.0, dense_step=0.1)

    def test_endpoints_must_be_members(self):
        w = make_canonical("pulse", (0, 3), a=1, b=1)
        A = SystemMatrix.from_constant([[-0.5]])
        with pytest.raises(NotInTimeScale):
            transition(A, w, 0.0, 1.5, dense_step=0.1)

    def test_piecewise_constant_schedule(self):
        w = make_canonical("reals", (0, 2))
        A0, A1 = np.array([[-1.0]]), np.array([[-3.0]])
        A = SystemMatrix.from_schedule([0.0, 1.0], np.stack([A0, A1]))
        got = transition(A, w, 0.0, 2.0, dense_step=0.01)
        want = np.exp(-3.0) * np.exp(-1.0)
        assert got[0, 0] == pytest.approx(want, rel=1e-8)


class TestTransitionInverse:
    def test_batched_inverses_match_pointwise(self, rng):
        w = make_canonical("pulse", (0, 4), a=1, b=0.5)
        g = build_grid(w, 0.05)
        A = SystemMatrix.from_constant(random_hurwitz(rng, 3))
        tm = sweep_transition(A, g, base_index=3)
        want = np.array([tm.inverse_at_index(i) for i in range(3, len(g))])
        np.testing.assert_allclose(tm.inverses(), want, rtol=1e-12)

    def test_batched_inverses_name_first_singular_time(self):
        w = make_canonical("pulse", (0, 5), a=1, b=1)
        g = build_grid(w, 0.1)
        tm = sweep_transition(SystemMatrix.from_constant([[-1.0]]), g)
        with pytest.raises(SingularTransition, match=r"at t = 2\.0 is"):
            tm.inverses()

    def test_identity(self):
        w = make_canonical("reals", (0, 1))
        g = build_grid(w, 0.1)
        tm = sweep_transition(SystemMatrix.from_constant([[-1.0]]), g)
        np.testing.assert_array_equal(transition_inverse(tm, 0.0), np.eye(1))

    def test_scalar(self):
        w = make_canonical("integers", (0, 3))
        g = build_grid(w, 1.0)
        tm = sweep_transition(SystemMatrix.from_constant([[-0.5]]), g)
        assert transition_inverse(tm, 2.0)[0, 0] == pytest.approx(4.0)

    def test_diagonal_exponentials(self):
        w = make_canonical("reals", (0, 1.5))
        g = build_grid(w, 0.005)
        tm = sweep_transition(
            SystemMatrix.from_constant(np.diag([-1.0, -2.0])), g
        )
        inv = transition_inverse(tm, 1.0)
        np.testing.assert_allclose(
            np.diag(inv), [np.e, np.e ** 2], rtol=1e-9
        )

    def test_singular_raises(self):
        w = make_canonical("pulse", (0, 3), a=1, b=1)
        g = build_grid(w, 0.1)
        tm = sweep_transition(SystemMatrix.from_constant([[-1.0]]), g)
        with pytest.raises(SingularTransition):
            transition_inverse(tm, 3.0)

    def test_condition_warning(self):
        # scalar decay keeps cond(phi) = 1: no warning expected
        w = make_canonical("integers", (0, 60))
        g = build_grid(w, 1.0)
        tm = sweep_transition(SystemMatrix.from_constant([[-0.5]]), g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transition_inverse(tm, 50.0)
        # strongly non-normal system: condition blows up along the sweep
        A = np.array([[-0.5, 1e6], [0.0, -0.5]])
        w2 = make_canonical("integers", (0, 10))
        g2 = build_grid(w2, 1.0)
        tm2 = sweep_transition(SystemMatrix.from_constant(A), g2)
        with pytest.warns(RuntimeWarning, match="condition number"):
            transition_inverse(tm2, 10.0)

    def test_reintegration_at_halved_step(self, rng):
        w = make_canonical("pulse", (0, 5), a=1, b=1)
        A = SystemMatrix.from_constant(random_hurwitz(rng, 2))
        coarse = transition(A, w, 0.0, 5.0, dense_step=0.02)
        fine = transition(A, w, 0.0, 5.0, dense_step=0.01)
        assert np.linalg.norm(coarse - fine) <= 1e-7
