"""CSV export of experiment results.

The benchmark harness writes machine-readable copies of every regenerated
table and figure series next to the printed output, so downstream analysis
(plotting, regression tracking) does not have to re-run simulations.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence
from pathlib import Path

__all__ = ["write_csv"]


def write_csv(
    path: str | Path,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> Path:
    """Write rows to CSV with a header line; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(headers))
        for row in rows:
            if len(row) != len(headers):
                raise ValueError(
                    f"row has {len(row)} cells but there are "
                    f"{len(headers)} headers"
                )
            writer.writerow(list(row))
    return path
