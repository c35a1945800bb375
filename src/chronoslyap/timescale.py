"""Finite windows of time scales and their structural operators.

A time scale is a nonempty closed subset of the reals.  This module models
the slice of such a set falling in a finite window [t0, t_end] as an ordered
union of disjoint closed intervals; a degenerate interval is an isolated
point.  On top of that representation it provides the forward/backward jump
operators, the graininess function, point classification, constructors for
the canonical scales (reals, integers, h-uniform, quantum, pulse) and the
discretization grid used by the numerical layers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyWindow, InvalidParameter, NotInTimeScale, malformed

#: Absolute tolerance for membership tests and grid snapping.
TOL_MEMBER = 1e-12

_CANONICAL_KINDS = ("reals", "integers", "h_uniform", "quantum", "pulse")


@dataclass(frozen=True)
class PointClass:
    """Set-valued classification of a point of a time scale.

    ``isolated`` and ``dense`` are derived: a point is isolated when it is
    scattered on both sides and dense when it is dense on both sides.
    """

    right_scattered: bool
    left_scattered: bool

    @property
    def right_dense(self) -> bool:
        return not self.right_scattered

    @property
    def left_dense(self) -> bool:
        return not self.left_scattered

    @property
    def isolated(self) -> bool:
        return self.right_scattered and self.left_scattered

    @property
    def dense(self) -> bool:
        return self.right_dense and self.left_dense

    @property
    def kinds(self) -> frozenset[str]:
        out = {
            "right-scattered" if self.right_scattered else "right-dense",
            "left-scattered" if self.left_scattered else "left-dense",
        }
        if self.isolated:
            out.add("isolated")
        if self.dense:
            out.add("dense")
        return frozenset(out)


@dataclass(frozen=True)
class TimeScaleWindow:
    """A time scale intersected with a finite window.

    ``segments`` is an ordered tuple of closed intervals (a, b) with
    a <= b and strictly positive gaps between consecutive intervals.
    The represented set is the union of the intervals; a degenerate
    interval (a == b) is an isolated point.

    Instances are immutable and safe to share across threads.
    """

    segments: tuple[tuple[float, float], ...]
    spec: dict | None = field(default=None, compare=False)
    tol: float = TOL_MEMBER

    def __post_init__(self):
        segs = tuple((float(a), float(b)) for a, b in self.segments)
        if not segs:
            raise EmptyWindow("window has no segments")
        for a, b in segs:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise InvalidParameter("segment bounds must be finite")
            if b < a:
                raise InvalidParameter(f"segment [{a}, {b}] has b < a")
        for (_, b0), (a1, _) in zip(segs, segs[1:]):
            if a1 - b0 <= self.tol:
                raise InvalidParameter(
                    f"segments must be disjoint and ordered; gap ({b0}, {a1}) "
                    "is empty or negative"
                )
        object.__setattr__(self, "segments", segs)

    # -- basic geometry ----------------------------------------------------

    @property
    def t0(self) -> float:
        return self.segments[0][0]

    @property
    def t_end(self) -> float:
        return self.segments[-1][1]

    def contains(self, t: float) -> bool:
        i = self._segment_index(t)
        return i is not None

    def _segment_index(self, t: float) -> int | None:
        """Index of the segment containing t (within tol), else None."""
        starts = [a for a, _ in self.segments]
        i = bisect.bisect_right(starts, t) - 1
        for j in (i, i + 1):
            if 0 <= j < len(self.segments):
                a, b = self.segments[j]
                if a - self.tol <= t <= b + self.tol:
                    return j
        return None

    def _locate(self, t: float) -> int:
        i = self._segment_index(t)
        if i is None:
            raise NotInTimeScale(f"t = {t} is not in the window")
        return i

    def clip(self, lo: float, hi: float) -> "TimeScaleWindow":
        """The sub-window obtained by intersecting with [lo, hi]."""
        if hi < lo:
            raise InvalidParameter("clip bounds reversed")
        kept = []
        for a, b in self.segments:
            aa, bb = max(a, lo), min(b, hi)
            if bb >= aa - self.tol:
                kept.append((aa, max(aa, bb)))  # clamp degenerate clips
        if not kept:
            raise EmptyWindow(f"no points of the window fall in [{lo}, {hi}]")
        return TimeScaleWindow(tuple(kept), tol=self.tol)


# -- structural operators ---------------------------------------------------


def sigma(w: TimeScaleWindow, t: float) -> float:
    """Forward jump: the nearest window point strictly after t.

    Returns t itself at dense points and at the window end (there is no
    successor inside a finite window, so the end point maps to itself).
    """
    i = w._locate(t)
    a, b = w.segments[i]
    if t < b - w.tol:
        return t
    # At the right end of a segment: jump to the next one if any.
    if i + 1 < len(w.segments):
        return w.segments[i + 1][0]
    return w.t_end


def rho(w: TimeScaleWindow, t: float) -> float:
    """Backward jump: the nearest window point strictly before t.

    Returns t itself at left-dense points and at the window start.
    """
    i = w._locate(t)
    a, b = w.segments[i]
    if t > a + w.tol:
        return t
    if i > 0:
        return w.segments[i - 1][1]
    return w.t0


def mu(w: TimeScaleWindow, t: float) -> float:
    """Graininess sigma(t) - t; zero at dense points."""
    return sigma(w, t) - t


def classify(w: TimeScaleWindow, t: float) -> PointClass:
    """Classify t by comparing the jump operators with t."""
    return PointClass(
        right_scattered=sigma(w, t) - t > w.tol,
        left_scattered=t - rho(w, t) > w.tol,
    )


# -- canonical constructors -------------------------------------------------


def make_canonical(
    kind: str,
    window: tuple[float, float],
    *,
    h: float | None = None,
    q: float | None = None,
    a: float | None = None,
    b: float | None = None,
    min_spacing: float = 1e-9,
) -> TimeScaleWindow:
    """Build a canonical scale intersected with ``window``.

    kind
        one of "reals", "integers", "h_uniform" (points h*k), "quantum"
        (points q**k, plus 0 when the window starts at or below 0) or
        "pulse" (intervals of length ``a`` separated by gaps of length
        ``b``).
    min_spacing
        smallest quantum point kept near the accumulation point 0; avoids
        infinite grids when the window starts at 0.
    """
    t0, t_end = float(window[0]), float(window[1])
    if t_end < t0:
        raise EmptyWindow(f"window [{t0}, {t_end}] is empty")

    if kind == "reals":
        segs = [(t0, t_end)]
        spec = {"kind": "reals", "window": [t0, t_end]}
    elif kind in ("integers", "h_uniform"):
        step = 1.0 if kind == "integers" else h
        if step is None or step <= 0:
            raise InvalidParameter("h_uniform requires h > 0")
        k0 = math.ceil(t0 / step - 1e-9)
        k1 = math.floor(t_end / step + 1e-9)
        pts = [k * step for k in range(k0, k1 + 1)]
        segs = [(p, p) for p in pts]
        spec = {"kind": kind, "window": [t0, t_end]}
        if kind == "h_uniform":
            spec["h"] = step
    elif kind == "quantum":
        if q is None or q <= 1:
            raise InvalidParameter("quantum requires q > 1")
        if t_end <= 0:
            raise EmptyWindow("quantum scale has no points at or below 0 "
                              "apart from the accumulation point")
        lo = max(t0, min_spacing) if t0 <= 0 else t0
        k0 = math.ceil(math.log(lo) / math.log(q) - 1e-9)
        k1 = math.floor(math.log(t_end) / math.log(q) + 1e-9)
        pts = [q ** k for k in range(k0, k1 + 1)]
        segs = [(p, p) for p in pts]
        if t0 <= 0:
            segs.insert(0, (0.0, 0.0))
        spec = {"kind": "quantum", "q": q, "window": [t0, t_end],
                "min_spacing": min_spacing}
    elif kind == "pulse":
        if a is None or b is None or a <= 0 or b <= 0:
            raise InvalidParameter("pulse requires a > 0 and b > 0")
        period = a + b
        k0 = math.floor(t0 / period) - 1
        k1 = math.ceil(t_end / period) + 1
        segs = []
        for k in range(k0, k1 + 1):
            lo, hi = k * period, k * period + a
            lo, hi = max(lo, t0), min(hi, t_end)
            if lo <= hi:
                segs.append((lo, hi))
        spec = {"kind": "pulse", "a": a, "b": b, "window": [t0, t_end]}
    else:
        raise InvalidParameter(
            f"unknown kind {kind!r}; expected one of {_CANONICAL_KINDS}"
        )

    if not segs:
        raise EmptyWindow(f"{kind} scale has no points in [{t0}, {t_end}]")
    return TimeScaleWindow(tuple(segs), spec=spec)


def window_from_spec(spec: dict) -> TimeScaleWindow:
    """Parse the structured time-scale description (see ``window_to_spec``);
    malformed entries raise InvalidParameter."""
    with malformed("time-scale spec"):
        if "kind" not in spec:
            raise InvalidParameter("time-scale spec needs a 'kind' field")
        kind = spec["kind"]
        if kind == "explicit":
            segs = spec.get("segments")
            if not segs:
                raise InvalidParameter(
                    "explicit spec needs nonempty 'segments'")
            return TimeScaleWindow(
                tuple((float(a), float(b)) for a, b in segs),
                spec={"kind": "explicit",
                      "segments": [[float(a), float(b)] for a, b in segs]},
            )
        if kind not in _CANONICAL_KINDS:
            raise InvalidParameter(f"unknown time-scale kind {kind!r}")
        if "window" not in spec:
            raise InvalidParameter("canonical time-scale spec needs 'window'")
        kwargs = {}
        for key in ("h", "q", "a", "b", "min_spacing"):
            if key in spec:
                kwargs[key] = float(spec[key])
        return make_canonical(kind, tuple(spec["window"]), **kwargs)


def window_to_spec(w: TimeScaleWindow) -> dict:
    """Serialize a window; canonical provenance is kept when known."""
    if w.spec is not None:
        return dict(w.spec)
    return {"kind": "explicit", "segments": [[a, b] for a, b in w.segments]}


# -- discretization grid ----------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Discretization of a window for the numerical layers.

    All segment endpoints (hence all scattered points) appear exactly;
    non-degenerate segments are subdivided into steps of at most
    ``dense_step``, the final sub-step shortened to land on the segment
    end.  ``mus[i]`` is the graininess of ``times[i]`` taken from the
    window (0 for points interior to a segment and for the window end).
    """

    window: TimeScaleWindow
    dense_step: float
    times: np.ndarray        # (G,)
    mus: np.ndarray          # (G,)
    seg_index: np.ndarray    # (G,) index of containing segment
    seg_lo: np.ndarray       # (G,) containing segment start
    seg_hi: np.ndarray       # (G,) containing segment end

    def __len__(self) -> int:
        return len(self.times)

    def index_of(self, t: float) -> int:
        i = int(np.searchsorted(self.times, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.times) and abs(self.times[j] - t) <= self.window.tol:
                return j
        raise NotInTimeScale(f"t = {t} is not a grid point")

    def point_class(self, i: int) -> PointClass:
        return classify(self.window, float(self.times[i]))

    @property
    def points(self) -> list[tuple[float, float, PointClass]]:
        """(t, mu(t), classification) rows, in grid order."""
        return [
            (float(t), float(m), self.point_class(i))
            for i, (t, m) in enumerate(zip(self.times, self.mus))
        ]


def build_grid(w: TimeScaleWindow, dense_step: float) -> Grid:
    """Discretize ``w`` with dense sub-steps of at most ``dense_step``.

    A segment [a, b] longer than the window tolerance gets the points
    a + j * dense_step below b and then b itself (a last sub-point within
    the tolerance of b is replaced by b); a shorter one gets a alone.
    """
    if not (0 < dense_step < math.inf):
        raise InvalidParameter("dense_step must be finite and > 0")
    seg = np.array(w.segments)
    lo, hi = seg[:, 0], seg[:, 1]
    dense = hi - lo > w.tol
    steps = np.maximum(np.ceil((hi - lo) / dense_step - 1e-9), 1.0)
    k = np.where(dense, steps, 1.0).astype(int)
    # the last sub-point is replaced by b, or b is appended after it
    k += dense & (hi - (lo + (k - 1) * dense_step) > w.tol)
    seg_index = np.repeat(np.arange(len(seg)), k)
    last = np.cumsum(k) - 1
    j = np.arange(last[-1] + 1) - np.repeat(last - k + 1, k)
    times = lo[seg_index] + j * dense_step
    times[last] = np.where(dense, hi, lo)
    mus = np.zeros(len(times))
    mus[last[:-1]] = lo[1:] - hi[:-1]
    return Grid(
        window=w,
        dense_step=float(dense_step),
        times=times,
        mus=mus,
        seg_index=seg_index,
        seg_lo=lo[seg_index],
        seg_hi=hi[seg_index],
    )
