"""Per-layer metrics from the spans of a traced run.

A ``_ms`` metric is the median self time per call in milliseconds, where
self time excludes every child span (see ``spans.self_times``). A ``_s``
metric is a total per repeat of the workload's command sequence. Counts
and totals are medians over the traced repeats; they repeat exactly for a
given seed. Filter-health fractions are means over the calls.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Span, ancestors, self_times

REPEAT_SPAN = "bench.repeat"

# metric -> (span, how). "self_ms": median self ms per call; "total_s":
# summed self seconds per repeat; "calls": calls per repeat; "attr:<a>":
# median of a counter attribute; "mean:<a>": mean of a counter attribute;
# "true:<a>": calls per repeat whose attribute is true.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "measurement.field_ms": ("measurement.field", "self_ms", "ms"),
    "measurement.field_calls": ("measurement.field", "calls", "count"),
    "measurement.field_cells": ("measurement.field", "attr:cells", "count"),
    "measurement.field_bytes": ("measurement.field", "attr:bytes", "B"),
    "measurement.cells_used_frac": ("measurement.weight", "attr:cells_used_frac", "frac"),
    "world.cell_features_s": ("world.cell_features", "total_s", "s"),
    "descriptor.map_forward_s": ("descriptor.map_forward", "total_s", "s"),
    "motion.sample_ms": ("motion.sample", "self_ms", "ms"),
    "measurement.weight_ms": ("measurement.weight", "self_ms", "ms"),
    "pfilter.resample_ms": ("pfilter.resample", "self_ms", "ms"),
    "pfilter.estimate_ms": ("pfilter.estimate", "self_ms", "ms"),
    "pfilter.step_self_ms": ("pfilter.step", "self_ms", "ms"),
    "measurement.heatmap_ms": ("measurement.heatmap", "self_ms", "ms"),
    "retrieval.query_ms": ("retrieval.query", "self_ms", "ms"),
    "retrieval.query_calls": ("retrieval.query", "calls", "count"),
    "retrieval.save_ms": ("retrieval.save", "self_ms", "ms"),
    "retrieval.build_db_ms": ("retrieval.build_db", "self_ms", "ms"),
    "simulate.database_from_map_ms": ("simulate.database_from_map", "self_ms", "ms"),
    "mapgrid.local_to_geo_calls": ("mapgrid.local_to_geo", "calls", "count"),
    "mapgrid.local_to_geo_ms": ("mapgrid.local_to_geo", "self_ms", "ms"),
    "retrieval.load_ms": ("retrieval.load", "self_ms", "ms"),
    "retrieval.entry_ms": ("retrieval.entry", "self_ms", "ms"),
    "cli.self_ms": ("cli", "self_ms", "ms"),
    "world.synth_features_ms": ("world.synth_features", "self_ms", "ms"),
    "descriptor.forward_ms": ("descriptor.forward", "self_ms", "ms"),
    "motion.odometry_ms": ("motion.odometry", "self_ms", "ms"),
    "simulate.write_log_ms": ("simulate.write_log", "self_ms", "ms"),
    "losses.surface_ms": ("losses.surface", "self_ms", "ms"),
    "pfilter.ess_frac": ("pfilter.step", "mean:ess_frac", "frac"),
    "pfilter.unique_frac": ("pfilter.resample", "mean:unique_frac", "frac"),
    "pfilter.off_map_frac": ("measurement.weight", "mean:off_map_frac", "frac"),
    "pfilter.degenerate_steps": ("pfilter.step", "true:degenerate", "count"),
}

# Metrics that need more than one span's records, or none.
OTHER_UNITS = {
    "simulate.loop_self_ms": "ms",  # run_simulation self time per step
    "retrieval.rank_calls_per_query": "count",  # kNN calls per eval query
    "trace.overhead_frac": "frac",  # traced run_s / untraced run_s - 1
    "output.mean_position_error_m": "m",  # tracking accuracy of the traced repeats
    "output.recall_at_1": "frac",  # eval recall@1 of the traced repeats
}

UNITS = {**{name: spec[-1] for name, spec in LAYER_METRICS.items()}, **OTHER_UNITS}


def _median(values) -> float:
    return float(statistics.median(values))


class SpanTable:
    """Spans grouped by name, with self times and the repeat each belongs to."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_s = self_times(spans)
        self.repeats = [i for i, s in enumerate(spans) if s.name == REPEAT_SPAN]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.repeat_of: dict[int, int] = {}
        for i, s in enumerate(spans):
            self.by_name[s.name].append(i)
            root = i
            while spans[root].parent is not None:
                root = spans[root].parent
            self.repeat_of[i] = root

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def per_repeat(self, name: str, value) -> float:
        """Median over repeats of ``value(indices of name in that repeat)``."""
        groups = {r: [] for r in self.repeats}
        for i in self.by_name.get(name, ()):
            groups[self.repeat_of[i]].append(i)
        return _median([value(ix) for ix in groups.values()])

    def total_self_s(self, name: str) -> float:
        return self.per_repeat(name, lambda ix: sum(self.self_s[i] for i in ix))

    def metric(self, how: str, name: str) -> float:
        idx = self.by_name[name]
        if how == "self_ms":
            return 1e3 * _median([self.self_s[i] for i in idx])
        if how == "total_s":
            return self.total_self_s(name)
        if how == "calls":
            return self.per_repeat(name, len)
        kind, attr = how.split(":")
        values = [self.spans[i].attrs[attr] for i in idx]
        if kind == "attr":
            return _median(values)
        if kind == "mean":
            return float(statistics.fmean(values))
        if kind == "true":
            return self.per_repeat(name, lambda ix: sum(bool(self.spans[i].attrs[attr]) for i in ix))
        raise ValueError(f"unknown metric kind {how!r}")

    def rank_calls_per_query(self) -> float:
        """kNN calls per distinct query descriptor inside `eval` commands."""
        def ratio(ix):
            inside = [i for i in ix if any(a.name == "cli" and a.attrs["command"] == "eval"
                                           for a in ancestors(self.spans, i))]
            distinct = {self.spans[i].attrs["query"] for i in inside}
            return len(inside) / max(1, len(distinct))
        return self.per_repeat("retrieval.query", ratio)

    def loop_self_ms_per_step(self) -> float:
        idx = self.by_name["simulate.run"]
        return 1e3 * _median([self.self_s[i] / self.spans[i].attrs["steps"] for i in idx])


def layer_metrics(table: SpanTable,
                  expected: tuple[str, ...]) -> tuple[dict[str, float], list[str], list[str]]:
    """(metrics, absent, not_exercised).

    A layer the workload is expected to reach that recorded no call (or
    whose function no longer exists to be wrapped) is absent: its metrics
    are left out, never reported as 0. A layer the workload does not reach
    by design reads 0 and is listed as not exercised.
    """
    computations = {metric: (span, lambda how=how, span=span: table.metric(how, span))
                    for metric, (span, how, _) in LAYER_METRICS.items()}
    computations["simulate.loop_self_ms"] = ("simulate.run", table.loop_self_ms_per_step)
    computations["retrieval.rank_calls_per_query"] = ("retrieval.query",
                                                      table.rank_calls_per_query)
    out: dict[str, float] = {}
    absent: list[str] = []
    idle: list[str] = []
    for metric, (span, compute) in computations.items():
        if table.calls(span):
            out[metric] = compute()
        elif span in expected:
            absent.append(metric)
        else:
            out[metric] = 0.0
            idle.append(metric)
    return out, absent, idle
