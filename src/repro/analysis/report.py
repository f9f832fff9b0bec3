"""Plain-text rendering of tables, bar charts and series.

The examples print the paper's tables and figures as text — a table per
``Table N``, an ASCII bar chart or numeric series per ``Figure N`` — and the
CLI its listings. These helpers keep that formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Union

Number = Union[int, float]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render a simple fixed-width table.

    Args:
        headers: Column headers.
        rows: Row values; each row must have the same length as ``headers``.
        title: Optional title printed above the table.

    Returns:
        The rendered table as a single string.
    """
    materialised = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in materialised:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_bar_chart(
    values: Mapping[str, Number],
    title: str = "",
    width: int = 40,
    value_format: str = "{:.3f}",
) -> str:
    """Render a horizontal ASCII bar chart.

    Args:
        values: Mapping from bar label to value (values must be >= 0).
        title: Optional title printed above the chart.
        width: Width, in characters, of the longest bar.
        value_format: Format string applied to each value.

    Returns:
        The rendered chart as a single string.
    """
    if not values:
        return title
    max_value = max(values.values())
    label_width = max(len(label) for label in values)
    lines = []
    if title:
        lines.append(title)
    for label, value in values.items():
        if value < 0:
            raise ValueError("bar chart values must be non-negative")
        bar_length = 0 if max_value == 0 else int(round(width * value / max_value))
        bar = "#" * bar_length
        lines.append(
            f"{label.ljust(label_width)} | {value_format.format(value)} {bar}"
        )
    return "\n".join(lines)


def format_series(
    xs: Sequence[Number],
    ys: Sequence[Number],
    x_label: str = "x",
    y_label: str = "y",
    title: str = "",
    max_points: int = 25,
) -> str:
    """Render an (x, y) series as aligned columns, downsampling long series.

    Args:
        xs: X coordinates.
        ys: Y coordinates (same length as ``xs``).
        x_label: Header for the x column.
        y_label: Header for the y column.
        title: Optional title.
        max_points: Maximum number of rows to print; longer series are
            downsampled uniformly (always keeping the final point).

    Returns:
        The rendered series as a single string.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    n = len(xs)
    if n == 0:
        return title
    if n > max_points:
        step = max(1, n // max_points)
        indices = list(range(0, n, step))
        if indices[-1] != n - 1:
            indices.append(n - 1)
    else:
        indices = list(range(n))
    rows = [(xs[i], ys[i]) for i in indices]
    return format_table([x_label, y_label], rows, title=title)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)
