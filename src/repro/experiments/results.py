"""Result containers and text rendering for experiment runners.

Every runner returns an :class:`ExperimentTable` whose rows regenerate
one of the paper's tables or figures.  ``to_text()`` renders the same
fixed-width layout the benchmark harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class ExperimentTable:
    """A reproduced table or figure.

    Attributes:
        experiment: identifier such as ``"table3"`` or ``"figure5"``.
        title: human-readable description (matches the paper caption).
        columns: column headers.
        rows: list of row value lists (first entry is the row label).
        notes: provenance/caveat lines printed under the table.
        profile: optional wall-clock breakdown (scope name ->
            {"calls", "seconds"}).  The experiment runners leave it
            empty: the cells a table reads are shared with other
            tables, so run-level phase times go to ``--metrics`` and
            the run ledger instead.
    """

    experiment: str
    title: str
    columns: Sequence[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    profile: Dict[str, dict] = field(default_factory=dict)

    def add_row(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(
                "%s: row has %d values, expected %d"
                % (self.experiment, len(values), len(self.columns))
            )
        self.rows.append(list(values))

    def column(self, name) -> List[object]:
        """All values of one column, by header name."""
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]

    def row(self, label) -> List[object]:
        """The row whose first cell equals *label*."""
        for row in self.rows:
            if row[0] == label:
                return row
        raise KeyError("no row labelled %r in %s" % (label, self.experiment))

    def cell(self, label, column):
        """Value at (row label, column name)."""
        idx = list(self.columns).index(column)
        return self.row(label)[idx]

    def to_text(self) -> str:
        """Render as a fixed-width text table."""
        def fmt(value):
            if isinstance(value, float):
                return "%.2f" % value
            return str(value)

        headers = [str(c) for c in self.columns]
        str_rows = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = ["%s — %s" % (self.experiment, self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in str_rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append("note: %s" % note)
        if self.profile:
            parts = [
                "%s %.2fs" % (name, agg["seconds"])
                for name, agg in sorted(
                    self.profile.items(), key=lambda kv: -kv[1]["seconds"]
                )
            ]
            lines.append("profile: " + ", ".join(parts))
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The table as one JSON-serializable object (CLI ``--json``)."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "profile": dict(self.profile),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ExperimentTable":
        """Inverse of :meth:`to_json` — used by the parallel executor to
        reassemble tables from cached or worker-produced cell payloads.
        ``from_json(t.to_json()).to_json() == t.to_json()`` exactly."""
        return cls(
            experiment=payload["experiment"],
            title=payload["title"],
            columns=list(payload["columns"]),
            rows=[list(row) for row in payload.get("rows", [])],
            notes=list(payload.get("notes", [])),
            profile=dict(payload.get("profile", {})),
        )

    def to_bars(self, column, label_column=None, width=40) -> str:
        """Render one numeric column as a text bar chart.

        Negative values draw to the left of the axis — handy for the
        speedup figures, where a policy can lose as well as win.
        """
        idx = list(self.columns).index(column)
        label_idx = 0 if label_column is None else list(self.columns).index(label_column)
        values = [float(row[idx]) for row in self.rows]
        if not values:
            return "(no rows)"
        magnitude = max(1e-9, max(abs(v) for v in values))
        scale = width / magnitude
        lines = ["%s — %s (each # ~ %.2f)" % (self.experiment, column, 1 / scale)]
        label_width = max(len(str(row[label_idx])) for row in self.rows)
        for row, value in zip(self.rows, values):
            bar_len = max(1, int(round(abs(value) * scale))) if value else 0
            bar = "#" * bar_len
            if value < 0:
                rendered = bar.rjust(width) + "|"
            else:
                rendered = " " * width + "|" + bar
            lines.append(
                "%s %s %8.1f" % (str(row[label_idx]).ljust(label_width), rendered, value)
            )
        return "\n".join(lines)

    def __str__(self):
        return self.to_text()
