"""Lightweight tabular result containers used by sweeps and benchmarks.

The benchmark harness prints tables whose rows mirror the series in the
paper's figures; :class:`ResultTable` keeps that formatting logic in one
place (no external dependencies; fixed-width text, CSV and JSON output).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["ResultTable", "PRECISION_COLUMNS"]

#: Streaming-precision columns shared by every LER-producing sweep
#: table: the shots that actually contributed (early stopping may leave
#: part of the budget unspent), the Wilson confidence bounds on the
#: failure probability, and whether the point stopped early.
PRECISION_COLUMNS = ["shots_used", "ci_low", "ci_high", "stopped_early"]


@dataclass
class ResultTable:
    """A list of dict rows with stable column ordering and text rendering."""

    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        if name not in self.columns:
            raise KeyError(name)
        return [row.get(name) for row in self.rows]

    @staticmethod
    def _format_value(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1e4 or abs(value) < 1e-3:
                return f"{value:.3e}"
            return f"{value:.4g}"
        return str(value)

    def to_text(self) -> str:
        """Render the table as fixed-width text."""
        header = [self.title]
        formatted_rows = [
            [self._format_value(row.get(col, "")) for col in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(col), *(len(r[i]) for r in formatted_rows))
            if formatted_rows else len(col)
            for i, col in enumerate(self.columns)
        ]
        line = " | ".join(
            col.ljust(width) for col, width in zip(self.columns, widths)
        )
        separator = "-+-".join("-" * width for width in widths)
        header.append(line)
        header.append(separator)
        for row in formatted_rows:
            header.append(
                " | ".join(cell.ljust(width)
                           for cell, width in zip(row, widths))
            )
        return "\n".join(header)

    def to_csv(self) -> str:
        """Render the table as CSV text (header row + one line per row)."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.columns)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({col: row.get(col, "") for col in self.columns})
        return buffer.getvalue()

    def to_json(self) -> str:
        """Render the table as a JSON document with title, columns and rows."""
        return json.dumps(
            {"title": self.title, "columns": self.columns, "rows": self.rows},
            indent=2, default=str,
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "ResultTable":
        """Rebuild a table from its :meth:`to_json` document structure.

        Rows are validated against the column list the same way
        :meth:`add_row` validates them, so a stored table round-trips
        exactly (the campaign result store relies on this).
        """
        table = cls(title=str(payload.get("title", "")),
                    columns=list(payload.get("columns", [])))
        for row in payload.get("rows", []):
            table.add_row(**row)
        return table

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write the table to ``path``; format chosen by suffix.

        ``.csv`` and ``.json`` select those formats; anything else gets
        the fixed-width text rendering.
        """
        path = Path(path)
        if path.suffix == ".csv":
            content = self.to_csv()
        elif path.suffix == ".json":
            content = self.to_json()
        else:
            content = self.to_text() + "\n"
        path.write_text(content)
        return path

    def __len__(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_text()
