"""Measurement utilities: labeling work counters and table formatting.

Spans and the metrics registry live in :mod:`repro.obs`.
"""

from repro.metrics.counters import LabelMetrics
from repro.metrics.tables import format_table

__all__ = ["LabelMetrics", "format_table"]
