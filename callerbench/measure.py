"""Small measurement helpers shared by the caller-view workloads."""

from __future__ import annotations

import resource
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs import Tracer


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile *q* (0-100) of *values* (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values: list[float]) -> float:
    return float(statistics.median(values))


#: A fixed interpreter loop that allocates no tracked objects, so its
#: time follows the machine's speed and not the program's heap.
_CAL_TABLE = {i: (i * 2654435761) % 1000003 for i in range(64)}
CAL_ITERATIONS = 2000
#: The loop's time at the reference speed: an uncontended 2-vCPU Xeon
#: VM running CPython 3.11, where the benchmark was tuned.  Scaled
#: timings are in that machine's units.
CAL_REFERENCE_NS = 145_000


def calibrate(iterations: int = CAL_ITERATIONS) -> float:
    """Run the calibration loop once; returns its ns scaled to CAL_ITERATIONS."""
    table = _CAL_TABLE
    total = 0
    start = time.perf_counter_ns()
    for i in range(iterations):
        total += table[i & 63] ^ i
    return (time.perf_counter_ns() - start) * CAL_ITERATIONS / iterations


def speed_scale(calibrations: list[float]) -> float:
    """Factor that rescales timings taken alongside *calibrations* to the
    reference speed (below 1 while outside load slows the machine)."""
    return CAL_REFERENCE_NS / median(calibrations)


def quiet_quarter(samples: list[float]) -> float:
    """Lower quartile of *samples*: the figure of the least-contended quarter.

    The benchmark shares its machine; outside load slows whole stretches
    of a run by up to ~1.8x, for seconds at a time.  The calibration
    loop (see :func:`speed_scale`) removes most of that, but not all:
    memory-heavy code slows more than the loop does.
    """
    if len(samples) == 1:
        return float(samples[0])
    return float(statistics.quantiles(samples, n=4, method="inclusive")[0])


def window_metrics(windows: list[tuple[list[float], int, float, float]]) -> dict[str, float]:
    """Throughput and latency percentiles over the quiet quarter of a run.

    Each window is ``(latencies in ms, nodes, seconds, cost)``, already
    rescaled by :func:`speed_scale`; *cost* says how contended the window
    was.  Only the windows whose cost is at or below the lower quartile
    are pooled, which drops the stretches the rescaling did not fully
    correct.  Percentiles are taken over every latency of the pooled
    windows, so slow calls inside them still count.
    """
    live = [w for w in windows if w[0]]
    if not live:  # every call failed; the tally reports it
        return dict.fromkeys(("nodes_per_s", "latency_ms_p50", "latency_ms_p90"), 0.0)
    cut = quiet_quarter([cost for *_, cost in live])
    live = [w for w in live if w[3] <= cut]
    pooled = [lat for window in live for lat in window[0]]
    return {
        "nodes_per_s": sum(w[1] for w in live) / sum(w[2] for w in live),
        "latency_ms_p50": pct(pooled, 50),
        "latency_ms_p90": pct(pooled, 90),
    }


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus its largest reaped child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


class Tally:
    """Correctness tally: operations attempted and operations that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def record(self, ok: bool, why: str) -> bool:
        """Count one operation; *why* describes it when not *ok*."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = why
        return ok


class Ledger:
    """Outside-in layer accounting for a traced run.

    :meth:`call` times one call into a layer's public function with
    ``perf_counter_ns``, adds the duration to that layer's running
    total, and records the same window as a span on the shared
    :class:`~repro.obs.Tracer` (parented to the enclosing :meth:`batch`
    span), so the trace dump and the printed ledger come from the same
    measurements.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.totals_ns: dict[str, int] = {}
        self._parent: int | None = None

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        end = time.perf_counter_ns()
        self.add(name, start, end)
        return result

    def add(self, name: str, start: int, end: int) -> None:
        self.totals_ns[name] = self.totals_ns.get(name, 0) + (end - start)
        self.tracer.record(name, start, end, parent_id=self._parent)

    @contextmanager
    def batch(self, name: str, **attrs: Any) -> Iterator[None]:
        """A parent span for the layer calls made inside the block."""
        span_id = self.tracer.next_id()
        outer, self._parent = self._parent, span_id
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._parent = outer
            self.tracer.record(
                name, start, time.perf_counter_ns(), span_id=span_id, parent_id=outer, **attrs
            )

    def total(self, name: str) -> int:
        return self.totals_ns.get(name, 0)


def format_ledger(title: str, wall_ns_per_node: float, rows: list[tuple[str, float]]) -> str:
    """A ledger table: each row's ns/node and its share of wall (rows sum to 100%)."""
    lines = [f"ledger {title}: wall {wall_ns_per_node:,.0f} ns/node"]
    for name, value in rows:
        share = 100.0 * value / wall_ns_per_node if wall_ns_per_node else 0.0
        lines.append(f"  {name:<34} {value:>10,.0f} ns/node {share:>7.1f}%")
    total = sum(value for _, value in rows)
    share = 100.0 * total / wall_ns_per_node if wall_ns_per_node else 0.0
    lines.append(f"  {'sum':<34} {total:>10,.0f} ns/node {share:>7.1f}%")
    return "\n".join(lines)
