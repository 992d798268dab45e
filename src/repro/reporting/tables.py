"""Plain-text table rendering for the benchmark harness and examples.

The benchmark harness prints the same rows the paper's tables report; this
module renders them without third-party dependencies.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["render_table", "render_markdown_table", "format_cell"]


def format_cell(value: object, *, floatfmt: str = ".2f") -> str:
    """Render one cell: floats per ``floatfmt``, everything else via str()."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, floatfmt)
    return str(value)


def _format_rows(
    headers: Sequence[str], rows: Iterable[Sequence[object]], floatfmt: str
) -> tuple[list[list[str]], list[bool]]:
    """Formatted cells of every row, plus which columns are numeric.

    A column is numeric when there is at least one row and every cell in
    it parses as a number. Raises ``ValueError`` on a row whose length
    differs from the header count.
    """
    str_rows = [
        [format_cell(cell, floatfmt=floatfmt) for cell in row] for row in rows
    ]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
    numeric = [
        bool(str_rows) and all(_looks_numeric(row[col]) for row in str_rows)
        for col in range(len(headers))
    ]
    return str_rows, numeric


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
    floatfmt: str = ".2f",
) -> str:
    """Render an aligned ASCII table.

    Columns are sized to their widest cell; numeric cells are right-aligned,
    text cells left-aligned.
    """
    str_rows, numeric = _format_rows(headers, rows, floatfmt)
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            parts.append(
                cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i])
            )
        return "| " + " | ".join(parts) + " |"

    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append(fmt_row(list(headers)))
    lines.append(sep)
    for row in str_rows:
        lines.append(fmt_row(row))
    lines.append(sep)
    return "\n".join(lines)


def render_markdown_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    floatfmt: str = ".2f",
) -> str:
    """Render a GitHub-flavored markdown pipe table.

    Same cell formatting as :func:`render_table`; numeric columns get a
    right-aligning separator (``---:``). Used by the ``repro report`` /
    ``repro compare`` markdown reports.
    """
    str_rows, numeric = _format_rows(headers, rows, floatfmt)

    def escape(cell: str) -> str:
        return cell.replace("|", "\\|")

    lines = ["| " + " | ".join(escape(h) for h in headers) + " |"]
    lines.append(
        "| " + " | ".join("---:" if num else "---" for num in numeric) + " |"
    )
    for row in str_rows:
        lines.append("| " + " | ".join(escape(c) for c in row) + " |")
    return "\n".join(lines)


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell.rstrip("%!"))
        return True
    except ValueError:
        return False
