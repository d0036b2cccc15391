"""Per-layer tracing from outside the program.

`Tracer.install` replaces the module-level functions through which one layer
of `lipsel` calls the next with wrappers that record spans (name, start, end,
parent span) or plain counts, and `uninstall` puts the originals back.
Nothing under `src/` is edited.  A layer's self time is the total length of
its spans minus the part covered by their child spans.  An entry point that
no longer exists is listed as absent and its metrics read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

# (module, attribute, span name, mode): "span" times every call, "top" only
# calls not nested in another call of the same span, "count" only counts.
# A function imported into several modules is wrapped where each caller
# looks it up, so every call is seen exactly once.
HOOKS: Tuple[Tuple[str, str, str, str], ...] = (
    ("lipsel.cli", "load_instance", "cli.load", "span"),
    ("lipsel.cli", "emit", "cli.emit", "top"),
    ("lipsel.cli", "lipschitz_seminorm", "cli.seminorm", "span"),
    ("lipsel.cli", "validate_pseudometric", "metric.validate", "span"),
    ("lipsel.cli", "validate_premetric", "metric.validate", "span"),
    ("lipsel.cli", "run_projection_algorithm", "selection.solve", "span"),
    ("lipsel.polygon", "run_projection_algorithm", "selection.solve", "span"),
    ("lipsel.selection", "_point_rows", "selection.rows", "span"),
    ("lipsel.selection", "_hull_from_rows", "selection.hull", "span"),
    ("lipsel.selection", "_solve_max", "lp2d.lp", "span"),
    ("lipsel.lp2d", "_solve_on_line", "lp2d.line", "count"),
    ("lipsel.lp2d", "_solve_on_line_exact", "lp2d.exact", "span"),
    ("lipsel.selection", "step3_refine_rects", "selection.stage3", "span"),
    ("lipsel.selection", "step5_project", "selection.stage5", "span"),
    ("lipsel.selection", "verify_selection", "selection.verify", "span"),
    ("lipsel.cli", "solve_polygon", "polygon.solve", "span"),
    ("lipsel.polygon", "reduce_to_halfplanes", "polygon.reduce", "span"),
    ("lipsel.cli", "build_sharp_lp", "oracle.build", "span"),
    ("lipsel.cli", "build_sharp_lp_polygon", "oracle.build", "span"),
    ("lipsel.oracle", "build_sharp_lp", "oracle.build", "span"),
    ("lipsel.cli", "fm_feasible", "oracle.fm", "span"),
    ("lipsel.oracle", "fm_feasible", "oracle.fm", "span"),
)

# per-layer metric -> (unit, span name whose self time it is | count name)
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "cli.load_s": ("s", "cli.load"),
    "cli.emit_s": ("s", "cli.emit"),
    "cli.seminorm_s": ("s", "cli.seminorm"),
    "metric.validate_s": ("s", "metric.validate"),
    "lp2d.lp_calls": ("count", "lp2d.lp"),
    "lp2d.lp_s": ("s", "lp2d.lp"),
    "lp2d.line_solves": ("count", "lp2d.line"),
    "lp2d.exact_fallbacks": ("count", "lp2d.exact"),
    "lp2d.exact_s": ("s", "lp2d.exact"),
    "selection.rows_s": ("s", "selection.rows"),
    "selection.hull_self_s": ("s", "selection.hull"),
    "selection.stage3_s": ("s", "selection.stage3"),
    "selection.stage5_s": ("s", "selection.stage5"),
    "selection.verify_s": ("s", "selection.verify"),
    "polygon.expanded_points": ("count", "polygon.expanded"),
    "polygon.reduce_s": ("s", "polygon.reduce"),
    "polygon.pullback_s": ("s", "polygon.solve"),
    "oracle.build_s": ("s", "oracle.build"),
    "oracle.fm_s": ("s", "oracle.fm"),
    "oracle.fm_calls": ("count", "oracle.fm"),
}
# every per-layer metric a traced run prints, with its unit
UNITS = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
UNITS.update({"lp2d.exact_fallback_ratio": "ratio", "trace.overhead_pct": "%", "trace.absent": "count"})


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.absent: List[str] = []
        self._saved: List[Tuple[object, str, Callable]] = []

    def install(self) -> None:
        self.absent = []
        for mod_name, attr, name, mode in HOOKS:
            try:
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, mode))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn: Callable, name: str, mode: str) -> Callable:
        if mode == "count":
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        depth = [0]

        def spanned(*args, **kwargs):
            if mode == "top" and depth[0]:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ends.append(0.0)
            self.stack.append(idx)
            depth[0] += 1
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                depth[0] -= 1
                self.stack.pop()
            if name == "polygon.reduce":
                self.counts["polygon.expanded"] += len(out[0].planes)
            return out

        return spanned

    def layer_values(self) -> Dict[str, float]:
        """Every per-layer metric over the spans recorded so far."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_time: Dict[str, float] = Counter()
        calls: Counter = Counter(self.counts)
        for i, name in enumerate(self.names):
            self_time[name] += self.ends[i] - self.starts[i] - child[i]
            calls[name] += 1
        out = {}
        for metric, (unit, source) in LAYER_METRICS.items():
            out[metric] = float(calls[source] if unit == "count" else self_time[source])
        lines = out["lp2d.line_solves"]
        out["lp2d.exact_fallback_ratio"] = out["lp2d.exact_fallbacks"] / lines if lines else 0.0
        return out
