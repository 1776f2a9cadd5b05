"""Per-layer tracing of gqlab from outside the program.

`Tracer.install()` replaces the public functions of each layer, and the
copies that other modules imported under their own names, with wrappers
that time a span and note its parent.  Spans are aggregated in memory, per
span name and per (parent, name) edge.  A span's self time is its duration
minus the durations of the wrapped spans it called.  `uninstall()` puts
the original objects back.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


class TraceError(RuntimeError):
    """A wrapped name is gone, or an expected layer was never reached."""


# (module, attribute or Class.method, span name).  Several bindings of one
# function share its span name.
BINDINGS = (
    ("cli", "main", "cli.main"),
    ("catalog", "example", "catalog.example"),
    ("catalog", "build_nerve", "prequantum.build_nerve"),
    ("prequantum", "build_nerve", "prequantum.build_nerve"),
    ("prequantum", "TrivializationCover.potential", "prequantum.potential"),
    ("prequantum", "TrivializationCover.transition", "prequantum.transition"),
    ("geometry", "Symplectomorphism.apply", "geometry.map"),
    ("geometry", "Symplectomorphism.apply_inverse", "geometry.map"),
    ("geometry", "Symplectomorphism.jacobian", "geometry.map"),
    ("kernels", "evaluate", "kernels.evaluate"),
    ("kernels", "run", "kernels.run"),
    ("kernels", "compile_expr", "program.compile_expr"),
    ("program", "compile_expr", "program.compile_expr"),
    ("quadrature", "integrate", "quadrature.integrate"),
    ("transport", "integrate", "quadrature.integrate"),
    ("action", "integrate", "quadrature.integrate"),
    ("transport", "LeafTransport.integral", "transport.integral"),
    ("cech", "TransversalGrid.build", "cech.grid_build"),
    ("cech", "delta_matrix", "cech.delta_matrix"),
    ("cech", "delta", "cech.delta"),
    ("action", "delta", "cech.delta"),
    ("cech", "cohomology_ranks", "cech.ranks"),
    ("cli", "cohomology_ranks", "cech.ranks"),
    ("action", "cohomology_ranks", "cech.ranks"),
    ("bohr", "holonomy", "bohr.holonomy"),
    ("action", "holonomy", "bohr.holonomy"),
    ("bohr", "enumerate_leaves", "bohr.enumerate_leaves"),
    ("action", "enumerate_leaves", "bohr.enumerate_leaves"),
    ("bohr", "bs_census", "bohr.census"),
    ("cli", "bs_census", "bohr.census"),
    ("action", "bs_census", "bohr.census"),
    ("action", "build_complementary", "action.build_complementary"),
    ("cli", "build_complementary", "action.build_complementary"),
    ("action", "verify_theorem_1", "action.verify"),
    ("action", "verify_theorem_2", "action.verify"),
    ("cli", "verify_theorem_1", "action.verify"),
    ("cli", "verify_theorem_2", "action.verify"),
)

# Spans each workload must reach; an unreached one means the workload no
# longer measures that layer.
_COMMON = (
    "cli.main", "catalog.example", "prequantum.build_nerve",
    "prequantum.transition", "kernels.evaluate", "kernels.run",
    "program.compile_expr", "quadrature.integrate", "transport.integral",
)
_CENSUS = ("bohr.holonomy", "bohr.enumerate_leaves", "bohr.census")
_RANKS = ("cech.grid_build", "cech.delta_matrix", "cech.ranks")
EXPECTED = {
    "census": _COMMON + _CENSUS,
    "ranks": _COMMON + _RANKS,
    "invariance": _COMMON + _CENSUS + _RANKS + (
        "prequantum.potential", "geometry.map", "cech.delta",
        "action.build_complementary", "action.verify",
    ),
}

# metric name -> (span, "calls" | "self") or a counter name
_FROM_SPANS = {
    "kernels.evaluate_calls": ("kernels.evaluate", "calls"),
    "kernels.evaluate_s": ("kernels.evaluate", "self"),
    "kernels.run_s": ("kernels.run", "self"),
    "program.compile_calls": ("program.compile_expr", "calls"),
    "program.compile_s": ("program.compile_expr", "self"),
    "quadrature.integrate_calls": ("quadrature.integrate", "calls"),
    "quadrature.integrate_s": ("quadrature.integrate", "self"),
    "prequantum.potential_calls": ("prequantum.potential", "calls"),
    "prequantum.potential_s": ("prequantum.potential", "self"),
    "prequantum.transition_calls": ("prequantum.transition", "calls"),
    "prequantum.transition_s": ("prequantum.transition", "self"),
    "geometry.map_calls": ("geometry.map", "calls"),
    "geometry.map_s": ("geometry.map", "self"),
    "action.build_complementary_calls": ("action.build_complementary", "calls"),
    "action.build_complementary_s": ("action.build_complementary", "self"),
    "action.verify_s": ("action.verify", "self"),
    "transport.integral_calls": ("transport.integral", "calls"),
    "transport.integral_s": ("transport.integral", "self"),
    "cech.grid_build_s": ("cech.grid_build", "self"),
    "cech.delta_matrix_s": ("cech.delta_matrix", "self"),
    "cech.delta_s": ("cech.delta", "self"),
    "cech.ranks_s": ("cech.ranks", "self"),
    "bohr.holonomy_calls": ("bohr.holonomy", "calls"),
    "bohr.holonomy_s": ("bohr.holonomy", "self"),
    "bohr.enumerate_leaves_s": ("bohr.enumerate_leaves", "self"),
    "bohr.census_s": ("bohr.census", "self"),
    "catalog.example_calls": ("catalog.example", "calls"),
    "catalog.example_s": ("catalog.example", "self"),
    "prequantum.build_nerve_s": ("prequantum.build_nerve", "self"),
    "cli.self_s": ("cli.main", "self"),
}
COUNTERS = (
    "kernels.evaluate_points",
    "program.compile_misses",
    "quadrature.nodes",
    "transport.integral_misses",
    "cech.delta_entries",
    "bohr.root_holonomy_calls",
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list = []  # open spans: [name, seconds of wrapped children]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, name) -> calls, total
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._saved: list = []  # (owner, attribute, original object)
        self._compile_cache = None  # program.compile_expr, read for its misses
        self._misses0 = 0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, span: str, invoke=None):
        stack, spans, edges = self.stack, self.spans, self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                if invoke is None:
                    return fn(*args, **kwargs)
                return invoke(fn, args, kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec = spans[span]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                edge = edges[(parent[0] if parent else None, span)]
                edge[0] += 1
                edge[1] += dt
                if parent is not None:
                    parent[1] += dt

        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _invokers(self) -> dict:
        counters, spans = self.counters, self.spans

        def evaluate(fn, args, kwargs):
            values = args[1] if len(args) > 1 else kwargs["values"]
            n = 1
            for v in values.values():
                try:
                    n = len(v)
                    break
                except TypeError:  # a scalar
                    pass
            counters["kernels.evaluate_points"] += n
            return fn(*args, **kwargs)

        def integrate(fn, args, kwargs):
            f = args[0]

            def counted(ts):
                counters["quadrature.nodes"] += len(ts)
                return f(ts)

            return fn(counted, *args[1:], **kwargs)

        def transport_integrate(fn, args, kwargs):
            counters["transport.integral_misses"] += 1
            return integrate(fn, args, kwargs)

        def delta_matrix(fn, args, kwargs):
            out = fn(*args, **kwargs)
            rows, cols = out[0].shape
            counters["cech.delta_entries"] += rows * cols
            return out

        def census(fn, args, kwargs):
            before = spans["bohr.holonomy"][0]
            report = fn(*args, **kwargs)
            sampled = sum(1 for e in report.entries if e.leaf.topology != "line")
            counters["bohr.root_holonomy_calls"] += (
                spans["bohr.holonomy"][0] - before - sampled
            )
            return report

        return {
            ("kernels", "evaluate"): evaluate,
            ("quadrature", "integrate"): integrate,
            ("action", "integrate"): integrate,
            ("transport", "integrate"): transport_integrate,
            ("cech", "delta_matrix"): delta_matrix,
            ("bohr", "bs_census"): census,
            ("cli", "bs_census"): census,
            ("action", "bs_census"): census,
        }

    def install(self) -> None:
        """Wrap every binding in BINDINGS of the imported gqlab modules."""
        invokers = self._invokers()
        compile_expr = importlib.import_module("gqlab.program").compile_expr
        if not hasattr(compile_expr, "cache_info"):
            raise TraceError("gqlab.program.compile_expr is no longer an LRU cache")
        self._compile_cache = compile_expr
        self._misses0 = compile_expr.cache_info().misses
        try:
            for module_name, path, span in BINDINGS:
                module = importlib.import_module(f"gqlab.{module_name}")
                owner, _, attr = path.rpartition(".")
                target = getattr(module, owner, None) if owner else module
                if target is None or attr not in vars(target):
                    raise TraceError(f"gqlab.{module_name}.{path} no longer exists")
                raw = vars(target)[attr]
                invoke = invokers.get((module_name, path))
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span, invoke))
                else:
                    new = self._wrap(raw, span, invoke)
                setattr(target, attr, new)
                self._saved.append((target, attr, raw))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        if self._compile_cache is not None:
            self.counters["program.compile_misses"] = (
                self._compile_cache.cache_info().misses - self._misses0
            )
            self._compile_cache = None
        while self._saved:
            target, attr, raw = self._saved.pop()
            setattr(target, attr, raw)

    # -- results -------------------------------------------------------------

    def require(self, workload: str) -> None:
        missing = [s for s in EXPECTED[workload] if self.spans[s][0] == 0]
        if missing:
            raise TraceError(f"workload {workload} never reached {missing}")

    def metrics(self) -> dict:
        """Per-layer metrics: self seconds of spans, call counts, counters."""
        out = {}
        for name, (span, kind) in _FROM_SPANS.items():
            calls, _, self_s = self.spans[span] if span in self.spans else (0, 0.0, 0.0)
            out[name] = (calls, "count") if kind == "calls" else (self_s, "s")
        for name in COUNTERS:
            out[name] = (self.counters[name], "count")
        return out

    def tree(self) -> list:
        """Aggregated spans as (parent, name, calls, total seconds) rows."""
        return [
            {"parent": parent, "name": name, "calls": calls, "total_s": total}
            for (parent, name), (calls, total) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][1]
            )
        ]

    def self_seconds(self) -> dict:
        return {name: rec[2] for name, rec in sorted(self.spans.items())}
