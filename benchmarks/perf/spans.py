"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, span_id, parent_id, thread)``; all spans
of one recorder share its ``run_id``. Parents come from a thread-local
stack, so a span's children always ran on its own thread and never
overlap each other — which makes *self time* (duration minus the part
of the interval the children cover) a plain subtraction.

Nothing is written while the workload runs; :meth:`Recorder.write`
dumps a Chrome ``trace_event`` file when it has ended.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

__all__ = ["Recorder", "LayerTotals"]


@dataclass
class LayerTotals:
    """Aggregate of every span sharing one name."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Recorder:
    """Collects spans from any number of threads of one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: (name, start, end, span_id, parent_id, thread ident);
        #: ``list.append`` is atomic, so threads share it without a lock
        self.spans: "list[tuple[str, float, float, int, int, int]]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> "list[int]":
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as a span called ``name``.

        ``after(args, kwargs, result)`` runs outside the span, so the
        counting it does is not charged to the layer.
        """
        spans, ids, get_stack = self.spans, self._ids, self._stack
        ident = threading.get_ident

        def timed(*args, **kwargs):
            stack = get_stack()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((name, start, end, span_id, parent, ident()))
            if after is not None:
                after(args, kwargs, result)
            return result

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", name)
        return timed

    def wrap_generator(self, name: str, fn):
        """A generator function whose every ``next`` is a span: the
        time a consumer spends between items is not the generator's."""
        step = self.wrap(name, next)

        def timed(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            done = object()
            while True:
                item = step(it, done)
                if item is done:
                    return
                yield item

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (name, start, end, span_id, parent, threading.get_ident())
            )

    # -- analysis ------------------------------------------------------

    def totals(
        self, thread: "int | None" = None, within: "str | None" = None
    ) -> "dict[str, LayerTotals]":
        """Per-name totals, over all threads or only ``thread``, and
        optionally only of spans inside the one span named ``within``."""
        covered: "dict[int, float]" = defaultdict(float)
        for _, start, end, _, parent, _ in self.spans:
            covered[parent] += end - start
        lo, hi = -math.inf, math.inf
        if within is not None:
            (lo, hi), = [s[1:3] for s in self.spans if s[0] == within]
        out: "dict[str, LayerTotals]" = defaultdict(LayerTotals)
        for name, start, end, span_id, _, tid in self.spans:
            if thread is not None and tid != thread:
                continue
            if start < lo or end > hi or name == within:
                continue
            layer = out[name]
            layer.calls += 1
            layer.busy_s += end - start
            layer.self_s += (end - start) - covered.get(span_id, 0.0)
        return dict(out)

    def write(self, path: "str | Path") -> None:
        """Chrome ``trace_event`` JSON (complete events, microseconds)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {
                    "id": span_id, "parent": parent, "run": self.run_id,
                },
            }
            for name, start, end, span_id, parent, tid in self.spans
        ]
        Path(path).write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        )
