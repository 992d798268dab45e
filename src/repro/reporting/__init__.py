"""Plain-text tables, terminal bar charts and CSV export.

A leaf package: it imports nothing from the rest of :mod:`repro`, so any
layer (the CLI, :mod:`repro.obs.report`, the benchmark harness) can use it.
"""

from .tables import render_table, format_cell
from .export import write_csv
from .bars import render_barchart, render_grouped_barchart

__all__ = [
    "render_table",
    "format_cell",
    "write_csv",
    "render_barchart",
    "render_grouped_barchart",
]
