"""Metrics registry: counters, gauges, and histograms with labels.

This is the substrate the end-of-run ``*Stats`` dataclasses are read
from.  Components create instruments once (at ``__init__`` time, so the
hot path pays one attribute load + one locked float add) and name each
counter ``<component>.<field>`` after the stats field it feeds;
:func:`view` then builds the stats object by field name, so no stats
object is a hand-incremented twin or a hand-written copy of the
registry.  Instruments are always live — unlike the span tracer there
is no disabled mode, because the counters feed user-visible summaries.

Thread-safety: every instrument carries its own leaf lock.  Instrument
methods never call out while holding it, so instrument locks can never
participate in a lock-order cycle no matter which component lock the
caller already holds (see CONCURRENCY.md).
"""

from __future__ import annotations

import bisect
import dataclasses
import threading
import typing

#: Default histogram bucket upper bounds: powers of two from 1 µs-ish
#: to ~17 minutes.  Log-spaced so one fixed, bounded layout covers both
#: sub-millisecond query batches and multi-minute training epochs with
#: <= 2x relative quantile error per bucket; the exact min/max kept
#: alongside pin the distribution's endpoints exactly.
DEFAULT_BUCKET_BOUNDS = tuple(2.0**e for e in range(-20, 11))


def metric_key(name: str, labels: "dict[str, object]") -> str:
    """Canonical registry key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing float (use ``int(c.value)`` for counts)."""

    def __init__(self, key: str):
        self.key = key
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def inc(self, amount: float = 1.0) -> float:
        """Add ``amount``; returns the new value (handy for sampling)."""
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Last-written value, with a high-water mark for peak tracking."""

    def __init__(self, key: str):
        self.key = key
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock
        self._max = 0.0  # guarded-by: _lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max(self) -> float:
        with self._lock:
            return self._max


class Histogram:
    """Streaming summary (count/total/min/max) plus bucketed quantiles.

    Observations land in fixed log-spaced bounded buckets (``bounds``
    are inclusive upper edges; one overflow bucket catches the rest),
    so :meth:`quantile` answers p50/p95/p99 with bounded relative error
    and O(num_buckets) memory — no per-observation storage, and the
    ``observe`` hot path stays a bisect + two adds under the leaf lock.
    """

    def __init__(self, key: str, bounds: "tuple[float, ...] | None" = None):
        self.key = key
        bounds = DEFAULT_BUCKET_BOUNDS if bounds is None else tuple(bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self._lock = threading.Lock()
        self._count = 0  # guarded-by: _lock
        self._total = 0.0  # guarded-by: _lock
        self._min = None  # guarded-by: _lock
        self._max = None  # guarded-by: _lock
        # One count per bound + one overflow bucket.
        self._buckets = [0] * (len(bounds) + 1)  # guarded-by: _lock

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._count += 1
            self._total += value
            self._buckets[idx] += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def summary(self) -> "dict[str, float]":
        with self._lock:
            count = self._count
            total = self._total
            lo = self._min
            hi = self._max
        mean = total / count if count else 0.0
        return {
            "count": float(count),
            "total": total,
            "mean": mean,
            "min": 0.0 if lo is None else float(lo),
            "max": 0.0 if hi is None else float(hi),
        }

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from buckets.

        Linear interpolation inside the containing bucket, clamped to
        the exact observed ``[min, max]`` — so ``quantile(0)`` and
        ``quantile(1)`` are exact, and the estimate is monotone in
        ``q``.  Returns 0.0 with no observations.
        """
        with self._lock:
            count = self._count
            lo = self._min
            hi = self._max
            counts = list(self._buckets)
        if not count:
            return 0.0
        q = min(1.0, max(0.0, q))
        target = q * count
        cum = 0
        for i, c in enumerate(counts):
            cum += c
            if c and cum >= target:
                lower = self.bounds[i - 1] if i > 0 else lo
                upper = self.bounds[i] if i < len(self.bounds) else hi
                frac = (target - (cum - c)) / c
                est = lower + frac * (upper - lower)
                return float(min(hi, max(lo, est)))
        return float(hi)

    def quantiles(
        self, qs: "tuple[float, ...]" = (0.5, 0.95, 0.99)
    ) -> "dict[float, float]":
        return {q: self.quantile(q) for q in qs}


class MetricsRegistry:  # public-guard: _lock
    """Get-or-create home for instruments, keyed by name + labels.

    The registry lock only protects the instrument *map*; once a caller
    holds an instrument reference, updates go through the instrument's
    own leaf lock and never touch the registry again.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = {}  # guarded-by: _lock

    def _get(self, cls, name: str, labels: "dict[str, object]"):
        key = metric_key(name, labels)
        with self._lock:
            inst = self._metrics.get(key)
            if inst is None:
                inst = cls(key)
                self._metrics[key] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {key!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name, **labels) -> Counter:  # lint: no-lock (_get locks)
        return self._get(Counter, name, labels)

    def gauge(self, name, **labels) -> Gauge:  # lint: no-lock (_get locks)
        return self._get(Gauge, name, labels)

    def histogram(self, name, **labels):  # lint: no-lock (_get locks)
        return self._get(Histogram, name, labels)

    def instruments(self) -> "list[tuple[str, object]]":
        """Stable ``(key, instrument)`` list (the map, not the values).

        Callers (e.g. the Prometheus renderer) read each instrument
        through its own leaf lock afterwards; the registry lock is
        released before any instrument is touched.
        """
        with self._lock:
            return sorted(self._metrics.items())


def view(cls, *registries: MetricsRegistry, **given):
    """A ``cls`` dataclass read from ``registries`` by field name.

    Every field not in ``given`` takes the value of the one unlabelled
    counter, across all ``registries``, whose name ends in
    ``.<field>``, cast to the field's declared type (counters hold
    floats; an ``int`` field gets ``int(value)``). Raises
    :class:`KeyError` naming the field when no counter or more than one
    matches.
    """
    counters: "dict[str, list[Counter]]" = {}
    for registry in registries:
        for key, inst in registry.instruments():
            if isinstance(inst, Counter) and "{" not in key and "." in key:
                counters.setdefault(key.rsplit(".", 1)[1], []).append(inst)
    types = typing.get_type_hints(cls)
    values = dict(given)
    for f in dataclasses.fields(cls):
        if f.name in given:
            continue
        found = counters.get(f.name, [])
        if len(found) != 1:
            raise KeyError(
                f"{cls.__name__}.{f.name}: want one counter named "
                f"'<component>.{f.name}', found "
                f"{[c.key for c in found] or 'none'}"
            )
        values[f.name] = types[f.name](found[0].value)
    return cls(**values)
