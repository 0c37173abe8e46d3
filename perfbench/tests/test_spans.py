"""Self-time arithmetic and tracer behaviour on synthetic call trees."""

import sys
import types

import pytest

from layers import REPEAT_SPAN, SpanTable, layer_metrics
from spans import COUNTER_SPAN, Probe, Span, Tracer, installed, self_times


def test_self_times_on_a_nested_tree():
    # root [0, 10] -> a [1, 6] -> (b [2, 3], c [3.5, 5]); root -> d [7, 9]
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 6.0, 0, "r"),
        Span("b", 2.0, 3.0, 1, "r"),
        Span("c", 3.5, 5.0, 1, "r"),
        Span("d", 7.0, 9.0, 0, "r"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])


class FakeClock:
    """Advances one unit per reading, so every duration is a count of readings."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now

    def tick(self, n):
        self.now += n


def test_wrapped_calls_nest_and_counters_stay_outside_timed_intervals():
    clock = FakeClock()
    tracer = Tracer("run-1", clock=clock)

    def leaf(x):
        clock.tick(10)
        return x + 1

    def counter(result, x):
        clock.tick(100)  # expensive bookkeeping must not be charged to anyone
        return {"x": x}

    leaf_t = tracer.wrap(leaf, "leaf", counter)

    def outer():
        clock.tick(5)
        return leaf_t(1) + leaf_t(2)

    outer_t = tracer.wrap(outer, "outer")
    with tracer.span(REPEAT_SPAN):
        assert outer_t() == 5

    names = [s.name for s in tracer.spans]
    assert names == [REPEAT_SPAN, "outer", "leaf", COUNTER_SPAN, "leaf", COUNTER_SPAN]
    assert {s.run_id for s in tracer.spans} == {"run-1"}
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 1, 1]
    assert tracer.spans[2].attrs == {"x": 1} and tracer.spans[4].attrs == {"x": 2}

    own = self_times(tracer.spans)
    assert own[2] == own[4] == 11  # 10 ticks of work plus the reading that ends it
    # outer: its 5 ticks of work plus clock readings, never the counters' 200
    assert own[1] == 5 + 5


def _fake_program():
    """Two modules binding one function, as `from .a import f` would."""
    a = types.ModuleType("cvloc._bench_test_a")
    b = types.ModuleType("cvloc._bench_test_b")

    def f(x):
        return 2 * x

    a.f = f
    b.f = f
    b.g = lambda x: a.f(x) + b.f(x)
    return a, b


def test_installed_wraps_every_binding_and_restores_them(monkeypatch):
    a, b = _fake_program()
    monkeypatch.setitem(sys.modules, a.__name__, a)
    monkeypatch.setitem(sys.modules, b.__name__, b)
    original = a.f
    tracer = Tracer("run-2")
    probes = [Probe("layer.f", a.__name__, "f"), Probe("layer.gone", a.__name__, "removed")]
    with installed(tracer, probes) as missing:
        with tracer.span(REPEAT_SPAN):
            assert b.g(3) == 12
    assert missing == ["layer.gone"]
    assert a.f is original and b.f is original
    assert [s.name for s in tracer.spans].count("layer.f") == 2


def test_an_expected_layer_with_no_calls_is_absent_not_zero():
    tracer = Tracer("run-3")
    with tracer.span(REPEAT_SPAN):
        with tracer.span("measurement.field"):
            pass
    tracer.spans[1].attrs = {"cells": 10, "bytes": 1280}
    table = SpanTable(tracer.spans)
    metrics, absent, idle = layer_metrics(table, expected=("measurement.field", "motion.sample"))
    assert metrics["measurement.field_calls"] == 1
    assert metrics["measurement.field_cells"] == 10
    assert "motion.sample_ms" in absent and "motion.sample_ms" not in metrics
    assert metrics["retrieval.query_ms"] == 0.0 and "retrieval.query_ms" in idle
