"""Per-layer tracing of hetcache from outside the package.

A ``Tracer`` replaces public functions with timing wrappers at the module
attribute through which their caller looks them up (``from .x import f``
binds ``f`` in the importing module, so that is where it is patched), and
restores the originals on exit. Each wrapped call records a span (name,
start, end, parent) and bumps counters. Self time is a span's duration
minus the time its direct child spans cover.

Layers are hetcache's own modules. ``layer_metrics`` turns one traced
round into the per-layer figures listed in BENCHMARK.json.
"""
from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import numpy as np

import hetcache.analytic
import hetcache.experiments
import hetcache.metrics
import hetcache.montecarlo

# (module, attribute, span name). Each entry is the lookup site of one
# public function on the paths the workloads exercise.
SPAN_SITES = (
    (hetcache.analytic, "integrate_adaptive", "quadrature.integrate"),
    (hetcache.analytic, "interference_laplace_exponent", "analytic.exponent"),
    (hetcache.analytic, "tier_coverage_density", "analytic.tier_density"),
    (hetcache.experiments, "build_coverage_table", "analytic.table"),
    (hetcache.metrics, "build_coverage_table", "analytic.table"),
    (hetcache.experiments, "set_parameter", "experiments.set_parameter"),
    (hetcache.experiments, "write_csv", "experiments.write_csv"),
    (hetcache.experiments, "analytic_report", "metrics.report"),
    (hetcache.montecarlo, "run_simulation", "montecarlo.run"),
    (hetcache.montecarlo, "snapshot_rng", "montecarlo.rng"),
    (hetcache.montecarlo, "sample_network", "montecarlo.sample"),
    (hetcache.montecarlo, "sample_links", "channel.sample_links"),
    (hetcache.montecarlo, "sample_placement_fields", "content.placement"),
    (hetcache.montecarlo, "evaluate_snapshot", "montecarlo.evaluate"),
)

INTEGRAND = "quadrature.integrand"


class Tracer:
    """Span and count recorder; use as a context manager around traced work."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.total = defaultdict(float)  # inclusive seconds per span name
        self.self_time = defaultdict(float)  # exclusive seconds per span name
        self._stack = []  # [span index, child seconds]
        self._saved = []

    def reset(self):
        """Forget recorded spans and counts (between traced rounds)."""
        self.spans.clear()
        self.counts.clear()
        self.total.clear()
        self.self_time.clear()

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self):
        index, child = self._stack.pop()
        name, start, _, parent = self.spans[index]
        end = time.perf_counter()
        self.spans[index] = (name, start, end, parent)
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.counts[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, func, name):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit()
            self._count(name, args, kwargs, result)
            return result

        if name == "quadrature.integrate":
            def traced_quadrature(f, *args, **kwargs):
                return traced(self._wrap_integrand(f), *args, **kwargs)
            return traced_quadrature
        return traced

    def _wrap_integrand(self, f):
        def integrand(nodes):
            self._enter(INTEGRAND)
            try:
                values = f(nodes)
            finally:
                self._exit()
            self.counts["quadrature.node_values"] += np.size(values)
            return values
        return integrand

    def _count(self, name, args, kwargs, result):
        if name == "analytic.exponent":
            self.counts["analytic.t_values"] += np.size(args[0])
        elif name == "montecarlo.sample":
            self.counts["montecarlo.stations"] += result.station_count()
        elif name == "montecarlo.evaluate":
            self.counts["montecarlo.covering"] += int(np.sum(result.covering))
        elif name == "experiments.write_csv":
            path = str(args[1] if len(args) > 1 else kwargs["out_path"])
            self.counts["experiments.csv_bytes"] += (
                os.path.getsize(path) + os.path.getsize(path + ".meta.json"))

    def __enter__(self):
        for module, attr, name in SPAN_SITES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced round: counts, and seconds per round."""
    c, total, own = tracer.counts, tracer.total, tracer.self_time
    rows = c["metrics.report"]  # one analytic report per experiment row
    stations = c["montecarlo.stations"]
    snapshots = c["montecarlo.sample"]
    return {
        "quadrature.calls": c["quadrature.integrate"],
        # every panel evaluates the integrand twice, at the 15- and 7-point nodes
        "quadrature.panels": c[INTEGRAND] // 2,
        "quadrature.nodes": c["quadrature.node_values"],
        "quadrature.s": own["quadrature.integrate"],
        "analytic.tables": c["analytic.table"],
        "analytic.table_s": total["analytic.table"],
        "analytic.exponent_calls": c["analytic.exponent"],
        "analytic.exponent_t_values": c["analytic.t_values"],
        "analytic.exponent_s": total["analytic.exponent"],
        "analytic.tier_density_self_s": own["analytic.tier_density"],
        "experiments.rows": rows,
        "experiments.table_hit_ratio": (
            (rows - c["analytic.table"]) / rows if rows else 0.0),
        "experiments.set_parameter_s": total["experiments.set_parameter"],
        "experiments.write_csv_s": total["experiments.write_csv"],
        "experiments.csv_bytes": c["experiments.csv_bytes"],
        "metrics.reports": c["metrics.report"],
        "metrics.report_self_s": own["metrics.report"],
        "montecarlo.snapshots": snapshots,
        "montecarlo.stations_per_snapshot": stations / snapshots if snapshots else 0.0,
        "montecarlo.covering_per_station": (
            c["montecarlo.covering"] / stations if stations else 0.0),
        "montecarlo.sample_s": total["montecarlo.sample"],
        "channel.sample_links_s": total["channel.sample_links"],
        "content.placement_s": total["content.placement"],
        "montecarlo.rng_s": total["montecarlo.rng"],
        "montecarlo.evaluate_s": total["montecarlo.evaluate"],
        "montecarlo.reduce_s": own["montecarlo.run"],
    }


def write_spans(tracer: Tracer, path) -> None:
    """Write recorded spans, one per line: index parent name start_s end_s."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tparent\tname\tstart_s\tend_s\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
