"""Outside-in span tracer for the cvloc benchmark.

Spans are recorded by wrapping cvloc functions at run time, in every cvloc
module whose namespace binds them, so the program's own files stay
untouched. A span carries a name, its start and end on the
``time.perf_counter`` clock, the index of the span that was open when it
began (its parent) and the tracer's run id. Spans are kept in memory and
written out once, when the run ends.

Counters that describe a call (cells scored, distinct survivors, ...) are
computed after the call's span has closed. The time they take is recorded
as a ``trace.counter`` span under the same parent, so it is charged to
neither the wrapped call nor its caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

COUNTER_SPAN = "trace.counter"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.run_id)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        return span

    def _finish(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Span around a block of the benchmark's own code."""
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    def wrap(self, fn: Callable, name: str, counter: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``; ``counter(result, *args, **kwargs)``
        returns the span's attributes and runs after the span has closed."""

        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if counter is not None:
                t0 = self.clock()
                span.attrs = counter(result, *args, **kwargs)
                self.spans.append(Span(COUNTER_SPAN, t0, self.clock(), span.parent, self.run_id))
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": s.run_id, "id": i, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "attrs": s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Every span the tracer records is either a layer with its own metric or
    tracer bookkeeping, so all children are subtracted.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def ancestors(spans: list[Span], i: int) -> Iterator[Span]:
    p = spans[i].parent
    while p is not None:
        yield spans[p]
        p = spans[p].parent


@dataclass(frozen=True)
class Probe:
    """One function to time: ``attr`` of module ``module`` recorded as span
    ``span``. ``attr`` may be ``Class.method``. ``only`` limits the modules
    whose bindings are replaced; empty means every loaded cvloc module,
    the defining one included, so calls inside that module are seen too."""

    span: str
    module: str
    attr: str
    only: tuple[str, ...] = ()
    counter: Callable[..., dict] | None = None


def _cvloc_modules() -> list[Any]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cvloc" or name.startswith("cvloc."))]


@contextmanager
def installed(tracer: Tracer, probes: list[Probe]) -> Iterator[list[str]]:
    """Wrap every probe's function while the block runs and restore the
    originals afterwards. Yields the spans of probes whose function no
    longer exists or is bound nowhere, so they can be reported absent."""
    patched: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    try:
        for probe in probes:
            owner = sys.modules.get(probe.module)
            *path, leaf = probe.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if not callable(original):
                missing.append(probe.span)
                continue
            wrapper = tracer.wrap(original, probe.span, probe.counter)
            if path:
                targets = [(owner, leaf)]
            else:
                targets = [(m, key) for m in _cvloc_modules()
                           if not probe.only or m.__name__ in probe.only
                           for key, value in vars(m).items() if value is original]
            if not targets:
                missing.append(probe.span)
            for obj, key in targets:
                patched.append((obj, key, getattr(obj, key)))
                setattr(obj, key, wrapper)
        yield missing
    finally:
        for obj, key, original in reversed(patched):
            setattr(obj, key, original)
