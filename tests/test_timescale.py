import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoslyap import (
    build_grid,
    classify,
    make_canonical,
    mu,
    rho,
    sigma,
    window_from_spec,
    window_to_spec,
)
from chronoslyap.errors import EmptyWindow, InvalidParameter, NotInTimeScale
from chronoslyap.timescale import TimeScaleWindow


class TestConstructors:
    def test_h_uniform_unit(self):
        w = make_canonical("h_uniform", (0, 5), h=1.0)
        assert w.segments == tuple((float(k), float(k)) for k in range(6))

    def test_pulse_clips_window(self):
        w = make_canonical("pulse", (0, 3), a=1, b=1)
        assert w.segments == ((0.0, 1.0), (2.0, 3.0))

    def test_quantum_points(self):
        w = make_canonical("quantum", (1, 8), q=2)
        assert w.segments == ((1.0, 1.0), (2.0, 2.0), (4.0, 4.0), (8.0, 8.0))

    def test_quantum_accumulation_point(self):
        w = make_canonical("quantum", (0, 1), q=2, min_spacing=1e-2)
        assert w.segments[0] == (0.0, 0.0)
        assert w.segments[1][0] >= 1e-2
        assert w.t_end == 1.0

    def test_reals(self):
        w = make_canonical("reals", (0.5, 2.5))
        assert w.segments == ((0.5, 2.5),)

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            make_canonical("h_uniform", (0.2, 0.8), h=1.0)
        with pytest.raises(EmptyWindow):
            make_canonical("reals", (1.0, 0.0))

    def test_invalid_params(self):
        with pytest.raises(InvalidParameter):
            make_canonical("h_uniform", (0, 5), h=-1.0)
        with pytest.raises(InvalidParameter):
            make_canonical("quantum", (1, 8), q=0.5)
        with pytest.raises(InvalidParameter):
            make_canonical("pulse", (0, 3), a=1, b=0)
        with pytest.raises(InvalidParameter):
            make_canonical("cantor", (0, 1))

    def test_overlapping_segments_rejected(self):
        with pytest.raises(InvalidParameter):
            TimeScaleWindow(((0.0, 1.0), (0.5, 2.0)))


class TestJumpOperators:
    def test_sigma_examples(self):
        p = make_canonical("pulse", (0, 3), a=1, b=1)
        assert sigma(p, 0.5) == 0.5
        assert sigma(p, 1.0) == 2.0
        q = make_canonical("quantum", (1, 8), q=2)
        assert sigma(q, 4.0) == 8.0

    def test_sigma_at_end_is_identity(self):
        w = make_canonical("integers", (0, 5))
        assert sigma(w, 5.0) == 5.0

    def test_rho_examples(self):
        z = make_canonical("integers", (0, 5))
        assert rho(z, 3.0) == 2.0
        r = make_canonical("reals", (0, 1))
        assert rho(r, 0.5) == 0.5
        p = make_canonical("pulse", (0, 3), a=1, b=1)
        assert rho(p, 2.0) == 1.0

    def test_rho_at_start_is_identity(self):
        z = make_canonical("integers", (0, 5))
        assert rho(z, 0.0) == 0.0

    def test_mu_examples(self):
        h = make_canonical("h_uniform", (0, 2), h=0.25)
        for t in (0.0, 0.5, 1.75):
            assert mu(h, t) == 0.25
        r = make_canonical("reals", (0, 1))
        assert mu(r, 0.3) == 0.0
        q = make_canonical("quantum", (1, 8), q=2)
        assert mu(q, 4.0) == 4.0

    def test_not_in_scale(self):
        p = make_canonical("pulse", (0, 3), a=1, b=1)
        with pytest.raises(NotInTimeScale):
            sigma(p, 1.5)
        with pytest.raises(NotInTimeScale):
            mu(p, -0.1)


class TestClassify:
    def test_isolated_interior_integer(self):
        w = make_canonical("integers", (0, 10))
        assert classify(w, 5.0).isolated

    def test_dense_interior(self):
        w = make_canonical("reals", (0, 1))
        c = classify(w, 0.5)
        assert c.dense and not c.isolated

    def test_pulse_segment_end(self):
        w = make_canonical("pulse", (0, 3), a=1, b=1)
        c = classify(w, 1.0)
        assert c.left_dense and c.right_scattered
        assert c.kinds == frozenset({"left-dense", "right-scattered"})

    def test_reals_interior_all_dense(self):
        w = make_canonical("reals", (0, 2))
        for t in np.linspace(0.1, 1.9, 7):
            assert classify(w, float(t)).dense


class TestGrid:
    def test_single_segment(self):
        g = build_grid(make_canonical("reals", (0, 1)), 0.5)
        np.testing.assert_allclose(g.times, [0, 0.5, 1])

    def test_integers_any_step(self):
        g = build_grid(make_canonical("integers", (0, 2)), 0.37)
        np.testing.assert_allclose(g.times, [0, 1, 2])

    def test_pulse_grid(self):
        g = build_grid(make_canonical("pulse", (0, 3), a=1, b=1), 0.5)
        np.testing.assert_allclose(g.times, [0, 0.5, 1, 2, 2.5, 3])
        np.testing.assert_allclose(g.mus, [0, 0, 1, 0, 0, 0])

    def test_shortened_final_substep(self):
        g = build_grid(make_canonical("reals", (0, 1)), 0.3)
        np.testing.assert_allclose(g.times, [0, 0.3, 0.6, 0.9, 1.0])

    def test_bad_step(self):
        with pytest.raises(InvalidParameter):
            build_grid(make_canonical("reals", (0, 1)), 0.0)

    def test_grid_mu_matches_window(self):
        w = make_canonical("pulse", (0, 7), a=2, b=1)
        g = build_grid(w, 0.4)
        for t, m in zip(g.times, g.mus):
            if t < w.t_end:
                assert m == mu(w, float(t))

    def test_point_classes_exposed(self):
        g = build_grid(make_canonical("pulse", (0, 3), a=1, b=1), 0.5)
        pts = g.points
        assert pts[2][0] == 1.0 and pts[2][1] == 1.0
        assert pts[2][2].right_scattered


class TestInvariants:
    @pytest.mark.parametrize("kind,kwargs,mu_rule", [
        ("reals", {}, lambda t: 0.0),
        ("h_uniform", {"h": 0.25}, lambda t: 0.25),
        ("quantum", {"q": 2.0}, lambda t: t),
    ])
    def test_graininess_rules(self, kind, kwargs, mu_rule):
        window = (1, 8) if kind == "quantum" else (0, 2)
        w = make_canonical(kind, window, **kwargs)
        g = build_grid(w, 0.1)
        for t in g.times[:-1]:
            assert mu(w, float(t)) == pytest.approx(mu_rule(float(t)))

    def test_sigma_mu_consistency(self):
        w = make_canonical("pulse", (0, 7), a=1.5, b=0.5)
        g = build_grid(w, 0.25)
        for t in g.times[:-1]:
            t = float(t)
            assert (sigma(w, t) > t) == (mu(w, t) > 0)

    def test_rho_sigma_roundtrip_isolated(self):
        w = make_canonical("quantum", (1, 16), q=2)
        for t in (1.0, 2.0, 4.0, 8.0):
            assert rho(w, sigma(w, t)) == t

    def test_membership_roundtrip(self):
        w = make_canonical("pulse", (0, 7), a=1, b=1)
        g = build_grid(w, 0.3)
        assert all(w.contains(float(t)) for t in g.times)
        for gap_mid in (1.5, 3.5, 5.5):
            assert not w.contains(gap_mid)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=2, max_size=12, unique=True,
))
def test_window_from_random_breakpoints(xs):
    xs = sorted(xs)
    segs = []
    for a, b in zip(xs[::2], xs[1::2]):
        if not segs or a - segs[-1][1] > 1e-6:
            segs.append((a, b))
    w = TimeScaleWindow(tuple(segs))
    assert w.t0 == segs[0][0] and w.t_end == segs[-1][1]
    assert w.contains(w.t0) and w.contains(w.t_end)
    for (a0, b0), (a1, _) in zip(w.segments, w.segments[1:]):
        assert not w.contains((b0 + a1) / 2)
    for a, b in w.segments:
        assert w.contains((a + b) / 2)


def build_grid_loop(w, dense_step):
    """Point-by-point reference for :func:`build_grid`: the grid arrays as
    (times, mus, seg_index, seg_lo, seg_hi)."""
    times, mus, seg_index, seg_lo, seg_hi = [], [], [], [], []
    n_seg = len(w.segments)
    for i, (a, b) in enumerate(w.segments):
        if b - a <= w.tol:
            pts = [a]
        else:
            # at least one sub-step: the point-by-point loop this replaced
            # raised IndexError when the step exceeds 1e9 segment lengths
            k = max(math.ceil((b - a) / dense_step - 1e-9), 1)
            pts = [a + j * dense_step for j in range(k)]
            # shortened final sub-step lands exactly on the endpoint
            if b - pts[-1] <= w.tol:
                pts[-1] = b
            else:
                pts.append(b)
        for j, t in enumerate(pts):
            times.append(t)
            last_in_seg = j == len(pts) - 1
            if last_in_seg:
                m = w.segments[i + 1][0] - b if i + 1 < n_seg else 0.0
            else:
                m = 0.0
            mus.append(m)
            seg_index.append(i)
            seg_lo.append(a)
            seg_hi.append(b)
    return (np.asarray(times, dtype=float), np.asarray(mus, dtype=float),
            np.asarray(seg_index, dtype=int), np.asarray(seg_lo, dtype=float),
            np.asarray(seg_hi, dtype=float))


_spans = st.floats(0.0, 12.0)


@st.composite
def grid_windows(draw):
    """A window of every canonical kind or an explicit mix of points and
    intervals, with a dense step that may or may not divide its segments."""
    kind = draw(st.sampled_from(["reals", "integers", "h_uniform", "quantum",
                                 "pulse", "explicit"]))
    t0 = draw(st.floats(-5.0, 5.0))
    if kind == "explicit":
        segs, a = [], t0
        for _ in range(draw(st.integers(1, 10))):
            b = a + draw(st.just(0.0) | st.floats(1e-3, 3.0))
            segs.append((a, b))
            a = b + draw(st.floats(1e-3, 2.0))
        w = TimeScaleWindow(tuple(segs))
    elif kind == "reals":
        w = make_canonical(kind, (t0, t0 + draw(_spans)))
    elif kind == "integers":
        w = make_canonical(kind, (t0, t0 + 1.0 + draw(_spans)))
    elif kind == "h_uniform":
        h = draw(st.floats(0.05, 2.0))
        w = make_canonical(kind, (t0, t0 + h + draw(_spans)), h=h)
    elif kind == "quantum":
        start = draw(st.floats(-1.0, 0.0) | st.floats(0.1, 1.0))
        w = make_canonical(kind, (start, 1.0 + draw(_spans)),
                           q=draw(st.floats(1.01, 3.0)))
    else:  # starting inside a pulse, so that the window is not empty
        a, b = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
        t0 = draw(st.integers(-3, 3)) * (a + b) + draw(st.floats(0.0, a))
        w = make_canonical(kind, (t0, t0 + draw(_spans)), a=a, b=b)
    step = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])
                | st.floats(0.01, 2.0))
    return w, step


@settings(max_examples=200, deadline=None)
@given(grid_windows())
def test_build_grid_matches_loop(case):
    w, step = case
    g = build_grid(w, step)
    want = build_grid_loop(w, step)
    got = (g.times, g.mus, g.seg_index, g.seg_lo, g.seg_hi)
    for name, x, y in zip(("times", "mus", "seg_index", "seg_lo", "seg_hi"),
                          got, want):
        assert np.array_equal(x, y), name
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_build_grid_step_longer_than_a_segment():
    # ceil(length / step - 1e-9) is 0 here; the segment still gets a and b
    g = build_grid(make_canonical("pulse", (0, 3), a=1, b=1), 1e10)
    np.testing.assert_array_equal(g.times, [0, 1, 2, 3])
    np.testing.assert_array_equal(g.mus, [0, 1, 0, 0])


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", [
        {"kind": "integers", "window": [0, 5]},
        {"kind": "h_uniform", "h": 0.5, "window": [0, 4]},
        {"kind": "quantum", "q": 2.0, "window": [1, 16], "min_spacing": 1e-9},
        {"kind": "pulse", "a": 1.0, "b": 2.0, "window": [0, 11]},
        {"kind": "explicit", "segments": [[0, 1], [2, 2], [3.5, 4]]},
    ])
    def test_roundtrip(self, spec):
        w = window_from_spec(spec)
        again = window_from_spec(window_to_spec(w))
        assert again.segments == w.segments

    def test_bad_specs(self):
        with pytest.raises(InvalidParameter):
            window_from_spec({"window": [0, 1]})
        with pytest.raises(InvalidParameter):
            window_from_spec({"kind": "explicit", "segments": []})
        with pytest.raises(InvalidParameter):
            window_from_spec({"kind": "pulse", "a": 1, "b": 1})
