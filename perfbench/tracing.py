"""Spans recorded at the benchmark's own call sites into matderiv.

Every call the benchmark makes into a layer's public function goes through
``rt.call(name, fn, *args)``.  With tracing off that is a plain call.  With
tracing on it records a span: name, start, end, parent span, task id, task
class, block and phase (``route`` for the timed route, ``check`` for the
verification after it), plus an optional work size (tape nodes, rows,
steps) used for per-unit costs.  Spans stay in memory and are written out
once, at the end of the run.  Nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    task: int | None
    cls: str | None
    block: int | None
    phase: str | None = None
    units: int | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Untraced:
    """The call-site interface with tracing off."""

    phase = "route"

    def call(self, name, fn, *args, units=None, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def task(self, task_id, name, cls, block):
        yield


class Tracer(Untraced):
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._task = (None, None, None)

    def _open(self):
        self.spans.append(None)
        sid = len(self.spans) - 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def call(self, name, fn, *args, units=None, **kwargs):
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, t0, t1, parent, *self._task, self.phase)
        if units is not None:
            self.spans[sid] = self.spans[sid]._replace(units=units(out) if callable(units) else units)
        return out

    @contextmanager
    def task(self, task_id, name, cls, block):
        self._task = (task_id, cls, block)
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, "task." + name, t0, t1, parent, task_id, cls, block)
            self._task = (None, None, None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


class LayerStats:
    """Per-layer aggregates over a tracer's spans.

    A layer's figures come from the spans of one phase: ``check`` for the
    layers named in ``check_layers`` (called only to verify a result),
    ``route`` for every other layer.  Durations are multiplied by the run's
    host speed factor (see ``run.calibrate``).
    """

    def __init__(self, spans, count_block: int, factor: float, check_layers=()):
        self.spans = spans
        self.count_block = count_block
        self.check_layers = frozenset(check_layers)
        self.dur = {s.id: s.dur * factor for s in spans}
        child = {}
        for s in spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + self.dur[s.id]
        self.self_time = {s.id: self.dur[s.id] - child.get(s.id, 0.0) for s in spans}

    def _sel(self, name, cls=None, block=None):
        phase = "check" if name in self.check_layers else "route"
        return [s for s in self.spans
                if s.name == name and s.phase == phase and (cls is None or s.cls == cls)
                and (block is None or s.block == block)]

    def p50(self, name, cls=None, scale=1e6) -> float:
        d = [self.dur[s.id] for s in self._sel(name, cls)]
        return statistics.median(d) * scale if d else 0.0

    def per_unit(self, name, scale) -> float:
        sel = [s for s in self._sel(name) if s.units]
        units = sum(s.units for s in sel)
        return sum(self.dur[s.id] for s in sel) / units * scale if units else 0.0

    def calls(self, name) -> int:
        return len(self._sel(name, block=self.count_block))

    def units(self, name) -> int:
        return sum(s.units or 0 for s in self._sel(name, block=self.count_block))

    def self_s(self, name) -> float:
        return sum(self.self_time[s.id] for s in self._sel(name, block=self.count_block))
