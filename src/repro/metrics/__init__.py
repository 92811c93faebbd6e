"""Measurement utilities: labeling work counters and table formatting.

Timing lives in :mod:`repro.obs` (``Timer``).
"""

from repro.metrics.counters import LabelMetrics
from repro.metrics.tables import format_table

__all__ = ["LabelMetrics", "format_table"]
