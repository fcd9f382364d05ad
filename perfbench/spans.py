"""In-memory span tracing of the package's layers, from outside it.

`Tracer.install` wraps the public layer functions where the study module
and the per-curve pass look them up, plus the `SegmentCosts.table` and
`SegmentCosts._solve` methods, so a traced pass runs the real code path.
Each call becomes a span (name, start, end, parent span, curve id,
thread); `Tracer.uninstall` puts the originals back.  `summarize` turns
the spans into per-layer self times and counts.
"""

from __future__ import annotations

import contextlib
import threading
import time
import weakref

from polyapprox import approx_error, curve, measures, optimal, schemes, study
from polyapprox.optimal import CostKind

# span name -> per-layer self-time metric; a span not listed (the
# run_study envelope) is structure, not a layer
LAYER_SPANS = {
    "kernels.e2_table": "kernels.e2_table.s",
    "kernels.emax_table": "kernels.emax_table.s",
    "optimal.solve.e2": "optimal.solve.e2.s",
    "optimal.solve.emax": "optimal.solve.emax.s",
    "optimal.select_start": "optimal.select_start.s",
    "schemes.split": "schemes.split.s",
    "schemes.elim": "schemes.elim.s",
    "schemes.elim_stab": "schemes.elim_stab.s",
    "approx_error.polygon_errors": "approx_error.polygon_errors.s",
    "measures.build_record": "measures.build_record.s",
    "curve.parse": "curve.parse.s",
    "curve.geometry": "curve.geometry.s",
    "study.reduce": "study.reduce.s",
    "study.emit": "study.emit.s",
}

# counts derived from n and m at the call, not measured by the program
COMPUTED_COUNTS = ("kernels.emax_table.cross_ops", "optimal.dp_cells", "kernels.table_mb")
CALL_COUNTS = ("kernels.e2_table.calls", "kernels.emax_table.calls", "optimal.solve.calls",
               "schemes.calls")


class Tracer:
    """Collects spans and counts; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, curve, thread]
        self.counts = dict.fromkeys(CALL_COUNTS + COMPUTED_COUNTS, 0)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._built: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @contextlib.contextmanager
    def span(self, name: str, curve_id: str | None = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, curve_id,
               threading.get_ident()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def count(self, deltas: dict):
        with self._lock:
            for key, value in deltas.items():
                self.counts[key] += value

    def _patch(self, owner, attr: str, wrapper_factory):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _simple(self, name: str, takes_curve: bool):
        def factory(fn):
            def wrapper(*args, **kwargs):
                with self.span(name, args[0].name if takes_curve else None):
                    return fn(*args, **kwargs)
            return wrapper
        return factory

    def install(self):
        # (modules holding the name, name, span, first argument is the curve)
        simple = [
            ((optimal, study), "select_start_vertex", "optimal.select_start", True),
            ((approx_error, study), "polygon_errors", "approx_error.polygon_errors", True),
            ((measures, study), "build_record", "measures.build_record", True),
            ((curve, study), "curve_geometry", "curve.geometry", True),
            ((curve,), "parse_point_list", "curve.parse", False),
            ((study,), "pearson", "study.reduce", False),
            ((study,), "direction_agreement", "study.reduce", False),
        ]
        for owners, attr, name, takes_curve in simple:
            for owner in owners:
                self._patch(owner, attr, self._simple(name, takes_curve))
        for owner in (schemes, study):
            self._patch(owner, "apply_scheme", self._scheme_wrapper)
        self._patch(optimal.SegmentCosts, "table", self._table_wrapper)
        self._patch(optimal.SegmentCosts, "_solve", self._solve_wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _scheme_wrapper(self, fn):
        def wrapper(scheme, crv, m):
            self.count({"schemes.calls": 1})
            name = "schemes." + scheme.value.replace("-", "_")
            with self.span(name, crv.name):
                return fn(scheme, crv, m)
        return wrapper

    def _table_wrapper(self, fn):
        def wrapper(costs, kind):
            kinds = self._built.setdefault(costs, set())
            if kind in kinds:
                return fn(costs, kind)  # cached on the instance, no build
            kinds.add(kind)
            n = costs.curve.n
            if kind is CostKind.MAX_ERROR:
                name = "kernels.emax_table"
                self.count({"kernels.emax_table.calls": 1,
                            "kernels.emax_table.cross_ops": n * (n - 1) * (n - 2) // 2})
            else:
                name = "kernels.e2_table"
                self.count({"kernels.e2_table.calls": 1})
            self.count({"kernels.table_mb": 8 * n * n / 1e6})
            with self.span(name, costs.curve.name):
                return fn(costs, kind)
        return wrapper

    def _solve_wrapper(self, fn):
        def wrapper(costs, start, m_max, kind):
            n = costs.curve.n
            self.count({"optimal.solve.calls": 1,
                        "optimal.dp_cells": (m_max - 1) * (n + 1) ** 2})
            with self.span("optimal.solve." + kind.value, costs.curve.name):
                return fn(costs, start, m_max, kind)
        return wrapper


def summarize(tracer: Tracer, wall_s: float, threads: int) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass.

    A span's self time is its duration minus that of its direct children
    (same thread, so they nest).  With a thread pool the workers' spans
    run beside the main thread, so time is accounted in thread-seconds:
    the main thread for the whole pass plus every worker while it runs a
    curve job (the first to last span carrying that curve's id).
    `trace.unattributed_s` is what no layer span covers in that budget.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = dict.fromkeys(LAYER_SPANS.values(), 0.0)
    layer_total = 0.0
    for i, (name, start, end, _, _, _) in enumerate(spans):
        metric = LAYER_SPANS.get(name)
        if metric is not None:
            self_s = (end - start) - child_time[i]
            out[metric] += self_s
            layer_total += self_s
    out.update(tracer.counts)

    budget = wall_s
    out["study.pool.busy_frac"] = 0.0
    run_spans = [s for s in spans if s[0] == "study.run_study"]
    if run_spans:
        _, run_start, run_end, *_ = run_spans[0]
        jobs: dict[str, list[float]] = {}
        pooled = False
        for _, start, end, _, curve_id, thread in spans:
            if curve_id is None or not run_start <= start <= run_end:
                continue
            env = jobs.setdefault(curve_id, [start, end])
            env[0] = min(env[0], start)
            env[1] = max(env[1], end)
            pooled = pooled or thread != threading.get_ident()
        job_s = sum(end - start for start, end in jobs.values())
        out["study.pool.busy_frac"] = job_s / (threads * (run_end - run_start))
        if pooled:
            # the main thread only waits while the workers run the jobs
            pool_s = max(e for _, e in jobs.values()) - min(s for s, _ in jobs.values())
            budget = wall_s - pool_s + job_s
    out["trace.unattributed_s"] = budget - layer_total
    return out
