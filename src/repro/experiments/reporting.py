"""Paper-style table rendering for experiment results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

__all__ = ["FigureResult", "format_table"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned ASCII table (every ``repro figure`` prints one)."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)


@dataclass
class FigureResult:
    """Rows of one regenerated table/figure, renderable as ASCII."""

    figure_id: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.figure_id)

    def column(self, name: str) -> List[object]:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]
