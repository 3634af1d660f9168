"""Metrics primitives: counters, gauges, and bucketed histograms.

The registry is deliberately tiny and dependency-free.  Metrics follow the
Prometheus data model closely enough that :meth:`MetricsRegistry.render_prometheus`
produces a conformant text exposition, but everything is plain Python:

* :class:`Counter` — monotone; optionally labelled (one child per label
  value combination, created on first use); :meth:`Counter.set` exports a
  total counted elsewhere;
* :class:`Gauge` — a settable scalar;
* :class:`Histogram` — **explicit** bucket boundaries (upper bounds, in the
  metric's unit — latency histograms use seconds), cumulative on render,
  with ``sum``/``count``/``max`` tracked exactly and quantiles estimated
  from the bucket counts.

All mutation is O(1) (one ``bisect`` for histograms); there is no locking
because the engine is single-threaded by construction.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Iterable, Mapping

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default latency bucket upper bounds, in seconds: 1µs .. 1s, roughly
#: logarithmic.  Chosen to resolve the runtime's hot sites (a pattern-match
#: probe is ~1-50µs, a group round ~0.1-10ms, a checkpoint up to ~100ms).
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0,
)


def _label_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_body(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """A monotone counter, optionally with labelled children."""

    kind = "counter"

    __slots__ = ("name", "help", "value", "children")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0
        self.children: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount
        if labels:
            key = _label_key(labels)
            self.children[key] = self.children.get(key, 0) + amount

    def set(self, value: float, **labels: Any) -> None:
        """Set the running total (of one label set) to *value*: the export
        of a count kept elsewhere."""
        if labels:
            key = _label_key(labels)
            self.value += value - self.children.get(key, 0)
            self.children[key] = value
        else:
            self.value = value

    def render(self) -> Iterable[str]:
        if self.children:
            for key, value in sorted(self.children.items()):
                yield f"{self.name}{_label_body(key)} {_num(value)}"
        else:
            yield f"{self.name} {_num(self.value)}"

    def to_dict(self) -> Any:
        if self.children:
            return {
                ",".join(f"{k}={v}" for k, v in key): value
                for key, value in sorted(self.children.items())
            }
        return self.value


class Gauge:
    """A settable scalar (current value of something)."""

    kind = "gauge"

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def render(self) -> Iterable[str]:
        yield f"{self.name} {_num(self.value)}"

    def to_dict(self) -> Any:
        return self.value


class Histogram:
    """A histogram over explicit bucket upper bounds.

    ``observe`` is one binary search plus three adds; bucket counts are
    kept per-bucket (not cumulative) and accumulated only when rendering.
    """

    kind = "histogram"

    __slots__ = ("name", "help", "bounds", "counts", "count", "sum", "max")

    def __init__(
        self, name: str, help: str = "", buckets: Iterable[float] | None = None
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else LATENCY_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bucket bounds must be ascending")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot: > last bound (+Inf)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile from bucket counts (upper-bound biased)."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= target and bucket_count:
                return self.bounds[index] if index < len(self.bounds) else self.max
        return self.max

    def render(self) -> Iterable[str]:
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            yield f'{self.name}_bucket{{le="{_num(bound)}"}} {cumulative}'
        yield f'{self.name}_bucket{{le="+Inf"}} {self.count}'
        yield f"{self.name}_sum {_num(self.sum)}"
        yield f"{self.name}_count {self.count}"

    def to_dict(self) -> Any:
        return {
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": [
                [bound, bucket_count]
                for bound, bucket_count in zip(self.bounds, self.counts)
                if bucket_count
            ],
            "overflow": self.counts[-1],
        }


def _num(value: float) -> str:
    """Render a number the way Prometheus expects (ints without decimals)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Name-keyed metric store with text and JSON expositions.

    Accessors are get-or-create and idempotent; re-registering a name with
    a different metric kind is an error (the usual Prometheus constraint).
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def _register(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] | None = None
    ) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    # ------------------------------------------------------------------
    # expositions
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (stable name order)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict[str, Any]:
        """Nested-dict dump: ``{name: {"kind": ..., "data": ...}}``."""
        return {
            name: {"kind": metric.kind, "data": metric.to_dict()}
            for name, metric in sorted(self._metrics.items())
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the registry to *path*: JSON for ``.json``, else text."""
        text = self.render_json() if path.endswith(".json") else self.render_prometheus()
        with open(path, "w") as handle:
            handle.write(text)
