"""Measurement utilities: labeling work counters and table/series formatting.

Timing lives in :mod:`repro.obs` (``Timer``/``Stopwatch``).
"""

from repro.metrics.counters import LabelMetrics
from repro.metrics.tables import format_ratio, format_series, format_table, markdown_table

__all__ = [
    "LabelMetrics",
    "format_ratio",
    "format_series",
    "format_table",
    "markdown_table",
]
