"""Per-layer tracing for the traced benchmark run (`--trace 1`).

Wraps public names of the curveflow modules at the place where the caller
looks them up (`curveflow.schemes.solve_bordered` is what `newton_outer`
calls), records busy time and call counts per layer, and derives the
per-layer metrics.  Nothing inside curveflow changes; untraced runs install
none of this.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import curveflow.app
import curveflow.metrics
import curveflow.schemes
from curveflow.linalg import EquilibriumDegeneracyError
from curveflow.schemes import NewtonDivergenceError

# span name -> (module, attribute): the lookups that are wrapped
SPANS = {
    "app.main": (curveflow.app, "main"),
    "app.run": (curveflow.app, "run"),
    "app.distance": (curveflow.app, "manifold_distance"),
    "app.write_snapshot": (curveflow.app, "write_snapshot"),
    "app.read_snapshot": (curveflow.app, "read_snapshot"),
    "schemes.startup": (curveflow.schemes, "startup"),
    "schemes.newton_outer": (curveflow.schemes, "newton_outer"),
    "schemes.reference": (curveflow.schemes, "ReferenceGeometry"),
    "schemes.assemble_blocks": (curveflow.schemes, "assemble_newton_blocks"),
    "schemes.assemble_system": (curveflow.schemes, "assemble_system"),
    "schemes.solve_bordered": (curveflow.schemes, "solve_bordered"),
    "metrics.intersection": (curveflow.metrics, "polygon_intersection_area"),
    "metrics.is_simple": (curveflow.metrics, "is_simple"),
}

# (name, unit, better) of every per-layer metric, in report order
METRICS: List[Tuple[str, str, str]] = [
    ("femcore.reference_calls", "count", "lower"),
    ("femcore.reference_s", "s", "lower"),
    ("femcore.assemble_calls", "count", "lower"),
    ("femcore.assemble_s", "s", "lower"),
    ("linalg.assemble_s", "s", "lower"),
    ("linalg.solves", "count", "lower"),
    ("linalg.solve_s", "s", "lower"),
    ("linalg.unknowns", "count", "lower"),
    ("linalg.two_border_solves", "count", "lower"),
    ("linalg.degenerate", "count", "lower"),
    ("schemes.newton_solves", "count", "lower"),
    ("schemes.newton_failures", "count", "lower"),
    ("schemes.reported_iters", "count", "lower"),
    ("schemes.solve_yield", "ratio", "higher"),
    ("schemes.startup_s", "s", "lower"),
    ("schemes.run_s", "s", "lower"),
    ("schemes.self_s", "s", "lower"),
    ("metrics.distance_calls", "count", "lower"),
    ("metrics.distance_s", "s", "lower"),
    ("metrics.intersection_s", "s", "lower"),
    ("metrics.alloc_peak_mb", "MB", "lower"),
    ("geometry.is_simple_calls", "count", "lower"),
    ("geometry.is_simple_s", "s", "lower"),
    ("geometry.snapshot_io_s", "s", "lower"),
    ("app.self_s", "s", "lower"),
]


class Tracer:
    """Busy time and calls per span, plus the counters only a call's
    arguments, result or exception show.  A call nested in a span of the
    same name (the recursive `startup` of ap-bdf3) counts once, in the
    outer span."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.alloc_peak = 0
        # tracemalloc slows Python-heavy code several-fold, so the allocation
        # peak is taken in a round of its own, whose times are not reported
        self.measure_alloc = False
        self._open: set = set()
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.counts.clear()
        self.alloc_peak = 0

    def install(self) -> None:
        hooks = {
            "app.run": (None, self._on_run, None),
            "schemes.newton_outer": (None, None, self._on_newton_error),
            "schemes.solve_bordered": (self._on_solve, None, self._on_solve_error),
        }
        for name, (module, attr) in SPANS.items():
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            fn = self._alloc_peak_of(original) if name == "app.distance" else original
            setattr(module, attr, self._wrap(name, fn, *hooks.get(name, (None, None, None))))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn: Callable, on_call: Optional[Callable], on_result: Optional[Callable], on_error: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            if on_call:
                on_call(*args)
            self._open.add(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                self.seconds[name] += time.perf_counter() - start
                self.calls[name] += 1
                self._open.discard(name)
            if on_result:
                on_result(result)
            return result

        return traced

    def _on_run(self, result) -> None:
        self.counts["reported_iters"] += sum(row.newton_iters for row in result.series.rows)

    def _on_solve(self, system) -> None:
        self.counts["unknowns"] += system.core.shape[0] + system.nb
        self.counts["two_border_solves"] += system.nb == 2

    def _on_solve_error(self, exc: Exception) -> None:
        self.counts["degenerate"] += isinstance(exc, EquilibriumDegeneracyError)

    def _on_newton_error(self, exc: Exception) -> None:
        self.counts["newton_failures"] += isinstance(exc, NewtonDivergenceError)

    def _alloc_peak_of(self, fn: Callable) -> Callable:
        # the allocation peak of one distance call, numpy buffers included
        def measured(*args, **kwargs):
            if not self.measure_alloc:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        s, c, n = self.seconds, self.calls, self.counts
        femcore_s = s["schemes.reference"] + s["schemes.assemble_blocks"]
        linalg_s = s["schemes.assemble_system"] + s["schemes.solve_bordered"]
        solves = c["schemes.solve_bordered"]
        return {
            "femcore.reference_calls": c["schemes.reference"],
            "femcore.reference_s": s["schemes.reference"],
            "femcore.assemble_calls": c["schemes.assemble_blocks"],
            "femcore.assemble_s": s["schemes.assemble_blocks"],
            "linalg.assemble_s": s["schemes.assemble_system"],
            "linalg.solves": solves,
            "linalg.solve_s": s["schemes.solve_bordered"],
            "linalg.unknowns": n["unknowns"],
            "linalg.two_border_solves": n["two_border_solves"],
            "linalg.degenerate": n["degenerate"],
            "schemes.newton_solves": c["schemes.newton_outer"],
            "schemes.newton_failures": n["newton_failures"],
            "schemes.reported_iters": n["reported_iters"],
            "schemes.solve_yield": n["reported_iters"] / solves if solves else 0.0,
            "schemes.startup_s": s["schemes.startup"],
            "schemes.run_s": s["app.run"],
            "schemes.self_s": s["app.run"] - femcore_s - linalg_s,
            "metrics.distance_calls": c["app.distance"],
            "metrics.distance_s": s["app.distance"],
            "metrics.intersection_s": s["metrics.intersection"] - s["metrics.is_simple"],
            "metrics.alloc_peak_mb": self.alloc_peak / 2**20,
            "geometry.is_simple_calls": c["metrics.is_simple"],
            "geometry.is_simple_s": s["metrics.is_simple"],
            "geometry.snapshot_io_s": s["app.write_snapshot"] + s["app.read_snapshot"],
            "app.self_s": s["app.main"] - s["app.run"] - s["app.distance"],
        }
