"""Metrics registry: counters and log-linear histograms.

One :class:`MetricsRegistry` per process holds what only the
observability layer measures: latency histograms, per-phase timings,
per-label counts (``service_requests_total{tenant,status}``) and the
worker pipeline counters that cross the fork.  Counts the code already
keeps stay where they are: ``LabelMetrics`` for labeling work and
``stats()`` for the selector's resilience block and the service's
``ServiceStats``.  The registry does not mirror them.  It has two
primitive shapes:

* :class:`Counter` — a monotone integer (``inc``).
* :class:`Histogram` — fixed **log-linear buckets** over non-negative
  integers (nanosecond latencies): every power-of-two range
  ``[2^k, 2^(k+1))`` splits into :data:`SUB_BUCKETS` equal-width
  buckets, so a bucket is never wider than 1/16 of its lower bound and
  a quantile is off by less than 6.25% (values below ``2 *
  SUB_BUCKETS`` get one exact bucket each).  Fixed buckets make
  :meth:`Histogram.merge` **exact** — merging is addition of bucket
  counts plus min/max/sum/count — so a histogram snapshot can ride home
  from a forked worker on the reply tuple and aggregate supervisor-side
  without any loss beyond the bucket resolution both sides already
  share.  Histograms store and snapshot only their non-zero buckets.

Metrics are keyed Prometheus-style: a name plus sorted labels render
to one flat string key (``service_request_latency_ns{tenant="bench"}``),
which is also the snapshot/export key — snapshots are plain dicts of
ints and lists, picklable across the fork boundary and JSON-ready.

:func:`percentile` is the repository's one nearest-rank percentile
implementation (previously a private bench helper): exact percentiles
over raw sample lists.  :meth:`Histogram.quantile` is its mergeable
counterpart — deterministic bucket-bound estimates clamped to the
observed min/max — used where samples have already been folded into
buckets (cross-process aggregation, trace renders).
"""

from __future__ import annotations

from math import ceil
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "percentile",
]

#: Linear sub-buckets per power of two (a power of two itself).
SUB_BUCKETS = 16
#: ``log2(SUB_BUCKETS) + 1``: values of fewer bits get exact buckets.
_EXACT_BITS = SUB_BUCKETS.bit_length()


def percentile(values: Iterable[int | float], pct: float) -> int | float | None:
    """Nearest-rank percentile over raw samples (``None`` when empty).

    The single shared implementation behind the trace renderer's
    per-phase tables.
    """
    ordered = sorted(values)
    if not ordered:
        return None
    index = min(len(ordered) - 1, round(pct / 100.0 * (len(ordered) - 1)))
    return ordered[index]


def metric_key(name: str, labels: dict[str, Any]) -> str:
    """The flat Prometheus-style key for *name* + *labels*."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotone integer counter."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Histogram:
    """Log-linear-bucket histogram over non-negative integers.

    See :meth:`bucket_index` for the bucket layout.  *counts* maps a
    bucket index to its non-zero count.  ``count``/``sum``/``min``/
    ``max`` are tracked exactly; :meth:`merge` is exact by construction.
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.count = 0
        self.sum = 0
        self.min: int | None = None
        self.max: int | None = None

    @staticmethod
    def bucket_index(value: int) -> int:
        """The bucket of *value*: ``value`` itself below ``2 * SUB_BUCKETS``
        (0 for ``value <= 0``); above, its top five bits plus 16 per
        further bit, so each power of two spans 16 consecutive buckets."""
        shift = value.bit_length() - _EXACT_BITS
        if shift <= 0:
            return value if value > 0 else 0
        return shift * SUB_BUCKETS + (value >> shift)

    @staticmethod
    def bucket_upper(index: int) -> int:
        """Inclusive upper bound of bucket *index*."""
        shift = index // SUB_BUCKETS - 1
        if shift <= 0:
            return index
        return ((index - shift * SUB_BUCKETS + 1) << shift) - 1

    def observe(self, value: int | float) -> None:
        value = int(value)
        index = self.bucket_index(value)
        counts = self.counts
        counts[index] = counts.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> int | None:
        """Deterministic nearest-rank quantile estimate (``q`` in [0, 1]).

        Returns the containing bucket's upper bound, clamped to the
        observed ``[min, max]`` — so two histograms built from the same
        observations (in any split or order) answer identically, which
        is what lets a trace render reproduce the live histograms'
        numbers exactly.
        """
        if self.count == 0 or self.min is None or self.max is None:
            return None
        rank = min(self.count, max(1, ceil(q * self.count)))
        cumulative = 0
        for index, bucket_count in sorted(self.counts.items()):
            cumulative += bucket_count
            if cumulative >= rank:
                return max(self.min, min(self.bucket_upper(index), self.max))
        return self.max  # pragma: no cover - counts always reach rank

    def merge(self, other: "Histogram | dict[str, Any]") -> "Histogram":
        """Exactly accumulate *other* (a histogram or its snapshot)."""
        if isinstance(other, Histogram):
            other = other.snapshot()
        own = self.counts
        for index, bucket_count in other["buckets"]:
            own[index] = own.get(index, 0) + bucket_count
        self.count += other["count"]
        self.sum += other["sum"]
        other_min = other["min"]
        other_max = other["max"]
        if other_min is not None and (self.min is None or other_min < self.min):
            self.min = other_min
        if other_max is not None and (self.max is None or other_max > self.max):
            self.max = other_max
        return self

    def snapshot(self) -> dict[str, Any]:
        """Picklable/JSON-ready view; :meth:`merge` accepts it back.

        ``buckets`` lists ``[index, count]`` for the non-zero buckets
        only, in index order.
        """
        return {
            "buckets": [[index, n] for index, n in sorted(self.counts.items())],
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def of(cls, values: Iterable[int | float]) -> "Histogram":
        histogram = cls()
        for value in values:
            histogram.observe(value)
        return histogram

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, min={self.min}, max={self.max})"


class MetricsRegistry:
    """A process-local registry of named, labeled metrics.

    ``counter``/``histogram`` are get-or-create: callers may hold the
    returned object to skip the key lookup on hot paths.
    :meth:`snapshot` is picklable (it rides on worker reply tuples) and
    :meth:`merge_snapshot` folds a snapshot back in — counters and
    histograms add exactly.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = metric_key(name, labels)
        metric = self.counters.get(key)
        if metric is None:
            metric = self.counters[key] = Counter()
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = metric_key(name, labels)
        metric = self.histograms.get(key)
        if metric is None:
            metric = self.histograms[key] = Histogram()
        return metric

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view: picklable across forks, JSON-serializable."""
        return {
            "counters": {key: c.value for key, c in self.counters.items()},
            "histograms": {key: h.snapshot() for key, h in self.histograms.items()},
        }

    def merge_snapshot(self, snapshot: dict[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot` (e.g. from a forked worker) back in."""
        if not snapshot:
            return self
        for key, value in snapshot.get("counters", {}).items():
            metric = self.counters.get(key)
            if metric is None:
                metric = self.counters[key] = Counter()
            metric.value += value
        for key, hist_snapshot in snapshot.get("histograms", {}).items():
            histogram = self.histograms.get(key)
            if histogram is None:
                histogram = self.histograms[key] = Histogram()
            histogram.merge(hist_snapshot)
        return self

    def flatten(self) -> dict[str, Any]:
        """One flat ``key -> value`` view (the ``stats()["obs"]`` shape).

        Counters map to their values; each histogram expands
        to ``_count``/``_sum``/``_min``/``_max``/``_p50``/``_p95``/
        ``_p99`` entries (label braces stay attached to the base name).
        """
        flat: dict[str, Any] = {}
        for key, counter in self.counters.items():
            flat[key] = counter.value
        for key, histogram in self.histograms.items():
            name, labels = _split_key(key)
            for suffix, value in (
                ("count", histogram.count),
                ("sum", histogram.sum),
                ("min", histogram.min),
                ("max", histogram.max),
                ("p50", histogram.quantile(0.50)),
                ("p95", histogram.quantile(0.95)),
                ("p99", histogram.quantile(0.99)),
            ):
                flat[f"{name}_{suffix}{labels}"] = value
        return flat

    def clear(self) -> None:
        self.counters.clear()
        self.histograms.clear()

    def __len__(self) -> int:
        return len(self.counters) + len(self.histograms)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"histograms={len(self.histograms)})"
        )


def _split_key(key: str) -> tuple[str, str]:
    """Split ``name{labels}`` into ``(name, "{labels}")`` ("" without)."""
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace:]
