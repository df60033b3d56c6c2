"""Plain-text table rendering for experiment harnesses.

The paper's evaluation is two comparison tables plus a handful of
in-text measurements; every experiment harness in
:mod:`repro.experiments` renders its output through :class:`Table` so
benchmark logs read like the paper.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

__all__ = ["Table", "format_si"]

_SI_PREFIXES = [
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
]


def format_si(value: float, unit: str = "", digits: int = 3) -> str:
    """Format ``value`` with an SI prefix: ``format_si(0.00012, 's')`` → ``'120 us'``.

    >>> format_si(0.00012, "s")
    '120 us'
    >>> format_si(2.09, "W")
    '2.09 W'
    """
    if value == 0:
        return f"0 {unit}".strip()
    if not math.isfinite(value):
        return f"{value} {unit}".strip()
    magnitude = abs(value)
    for factor, prefix in _SI_PREFIXES:
        if magnitude >= factor:
            scaled = value / factor
            text = f"{scaled:.{digits}g}"
            return f"{text} {prefix}{unit}".strip()
    factor, prefix = _SI_PREFIXES[-1]
    return f"{value / factor:.{digits}g} {prefix}{unit}".strip()


class Table:
    """A minimal monospace/markdown table builder.

    >>> t = Table(["Model", "F1"], title="Demo")
    >>> t.add_row(["QMLP", 99.99])
    >>> print(t.render())  # doctest: +ELLIPSIS
    Demo
    ...
    """

    def __init__(self, columns: Sequence[str], title: str | None = None):
        self.columns = [str(c) for c in columns]
        self.title = title
        self.rows: list[list[str]] = []

    def add_row(self, row: Iterable[Any]) -> None:
        """Append a row; values are rendered with ``str`` (floats get 4 sig figs)."""
        rendered = []
        for value in row:
            if isinstance(value, float):
                rendered.append(f"{value:.4g}")
            else:
                rendered.append(str(value))
        if len(rendered) != len(self.columns):
            raise ValueError(
                f"row has {len(rendered)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(rendered)

    def _widths(self) -> list[int]:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def render(self) -> str:
        """Render as an aligned monospace table."""
        widths = self._widths()
        lines = []
        if self.title:
            lines.append(self.title)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines.append(header)
        lines.append(rule)
        for row in self.rows:
            lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Render as a GitHub-flavoured markdown table."""
        lines = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def to_dicts(self) -> list[dict[str, str]]:
        """Return rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __str__(self) -> str:
        return self.render()
