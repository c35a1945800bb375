"""Outside-in tracer: spans around the calls one chronoslyap module makes
into another, installed by rebinding module attributes from the benchmark.

A span records its duration, its self time (duration minus the spans it
caused), its calls, the exception class that left it (counted once, at the
innermost span it crossed) and the warnings raised while it was innermost.
Optional hooks turn a call's arguments and result into counters; their cost
is booked under ``trace.hooks_s`` so that layer self times, hook time and
harness time add up to the traced wall time.

Modules are reached through ``importlib``: ``chronoslyap.transition`` as an
attribute is the exported function ``transition``, not the module.  A target
that no longer exists is skipped and simply records zero calls.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np


def _digest(*arrays) -> int:
    return hash(tuple(np.ascontiguousarray(a).tobytes() for a in arrays))


def _system_digest(A) -> int:
    if getattr(A, "constant", None) is not None:
        return _digest(A.constant)
    return _digest(A.schedule_times, A.schedule_mats)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)      # (layer, class name) -> count
        self.warnings = defaultdict(int)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.hooks_s = 0.0
        self.top_s = 0.0                    # summed duration of outermost spans
        self.warning_log: list = []         # filled by warnings.catch_warnings
        self._stack: list[list] = []        # [child seconds, child warnings]
        self._seen: dict[str, set] = defaultdict(set)
        self._installed: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer: str, fn, hook=None):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            warns_at_start = len(self.warning_log)
            self._stack.append([0.0, 0])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_bench_counted", False):
                    self.errors[(layer, type(exc).__name__)] += 1
                    exc._bench_counted = True
                raise
            finally:
                duration = time.perf_counter() - start
                child_s, child_warns = self._stack.pop()
                own_warns = len(self.warning_log) - warns_at_start
                self.self_s[layer] += duration - child_s
                self.calls[layer] += 1
                self.warnings[layer] += own_warns - child_warns
                if self._stack:
                    self._stack[-1][0] += duration
                    self._stack[-1][1] += own_warns
                else:
                    self.top_s += duration
            if hook is not None:
                hook_start = time.perf_counter()
                hook(self, args, kwargs, result)
                hook_s = time.perf_counter() - hook_start
                self.hooks_s += hook_s
                if self._stack:
                    self._stack[-1][0] += hook_s
                else:
                    self.top_s += hook_s
            return result

        return traced

    def install(self, targets) -> None:
        """Rebind ``module.attr`` to a traced wrapper for each
        (module, attr, layer, hook) target."""
        for module_name, attr, layer, hook in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original, hook))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- counters --------------------------------------------------------------

    def begin_job(self) -> None:
        """Repeat shares compare calls within one job only."""
        self._seen.clear()

    def count_repeat(self, name: str, key) -> None:
        seen = self._seen[name]
        self.counters[name + ".keys"] += 1
        if key in seen:
            self.counters[name + ".repeats"] += 1
        else:
            seen.add(key)

    def repeat_share(self, name: str) -> float:
        keys = self.counters.get(name + ".keys", 0.0)
        return self.counters.get(name + ".repeats", 0.0) / keys if keys else 0.0

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], float(value))


# -- hooks for the chronoslyap call sites --------------------------------------


def _sweep_hook(tr: Tracer, args, kwargs, result) -> None:
    A, grid = args[0], args[1]
    base = kwargs.get("base_index", args[2] if len(args) > 2 else 0)
    scale = kwargs.get("step_scale", args[3] if len(args) > 3 else 1.0)
    tr.counters["transition.sweep.points"] += len(grid) - base
    key = (_system_digest(A), _digest(grid.times, grid.mus), grid.dense_step,
           base, scale)
    tr.count_repeat("transition.sweep", key)


def _grid_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["timescale.grid_points"] += len(result)


def _pointwise_hook(tr: Tracer, args, kwargs, result) -> None:
    A, M, mu = args[0], args[1], args[2] if len(args) > 2 else kwargs["mu"]
    meta = kwargs.get("meta") or {}
    if meta.get("method") == "series":
        tr.counters["lyapunov.pointwise.series_terms"] += meta["terms"]
    elif meta.get("method") == "kronecker":
        tr.counters["lyapunov.pointwise.kronecker_calls"] += 1
    tr.count_repeat("lyapunov.pointwise", (_digest(A, M), float(mu)))


def _stationary_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.note_max("lyapunov.stationary.spot_check_max",
                result.meta["spot_check_max"])


def _trace_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.note_max("verify.trace.agreement_max", result.agreement_max)


#: (module, attribute, layer, hook) rebound while tracing.
TARGETS = [
    *[(f"chronoslyap.{mod}", "sweep_transition", "transition.sweep", _sweep_hook)
      for mod in ("lyapunov", "verify")],
    *[(f"chronoslyap.{mod}", "check_matrix_regressive",
       "transition.regressivity", None) for mod in ("lyapunov", "verify")],
    *[(f"chronoslyap.{mod}", "stack_delta", "tscalc.stack_delta", None)
      for mod in ("lyapunov", "verify")],
    *[(f"chronoslyap.{mod}", "build_grid", "timescale.build_grid", _grid_hook)
      for mod in ("lyapunov", "verify", "stability", "cli")],
    ("chronoslyap.cli", "solve_tsale_pointwise", "lyapunov.pointwise",
     _pointwise_hook),
    ("chronoslyap.cli", "stability_report", "stability.report", None),
    ("chronoslyap.lyapunov", "expm", "lyapunov.expm", None),
]

#: The benchmark's own top-level calls: api name -> (layer, hook).
TOP_LEVEL = {
    "build_grid": ("timescale.build_grid", _grid_hook),
    "solve_tsdle_stationary": ("lyapunov.stationary", _stationary_hook),
    "simulate": ("verify.simulate", None),
    "lyapunov_trace": ("verify.trace", _trace_hook),
    "cli_main": ("cli", None),
}
