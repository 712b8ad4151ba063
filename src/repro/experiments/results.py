"""Result records and table formatting shared by the experiment harness.

Every experiment regenerator returns an :class:`ExperimentResult` — rows
of measured values next to the paper's reported values — and can render
itself as the table/series the paper prints.  EXPERIMENTS.md is generated
from these.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ExperimentResult", "format_table"]


def format_table(headers: list[str], rows: list[list], widths: list[int] | None = None) -> str:
    """Fixed-width text table."""
    if widths is None:
        widths = []
        for i, h in enumerate(headers):
            cell_width = max([len(str(r[i])) for r in rows], default=0)
            widths.append(max(len(h), cell_width) + 2)
    lines = ["".join(str(h).rjust(w) for h, w in zip(headers, widths))]
    lines.append("-" * sum(widths))
    for row in rows:
        lines.append("".join(str(c).rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Measured output of one experiment, aligned with the paper artifact.

    Attributes
    ----------
    experiment_id : e.g. "table1", "fig6".
    title : human-readable description.
    headers : column names of the result table.
    rows : measured rows (list of cell lists).
    paper_reference : what the paper reported, as display rows (optional).
    notes : fidelity commentary recorded into EXPERIMENTS.md.
    provenance : what a trained result's bits follow (the BLAS and the
        seeded settings); ``None`` for the simulated ones.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    paper_reference: list[list] = field(default_factory=list)
    notes: str = ""
    provenance: dict | None = None

    def to_text(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} ==",
                 format_table(self.headers, self.rows)]
        if self.paper_reference:
            parts.append("paper reported:")
            parts.append(format_table(self.headers, self.paper_reference))
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)

    def to_markdown(self) -> str:
        def md_table(rows: list[list]) -> str:
            head = "| " + " | ".join(self.headers) + " |"
            sep = "|" + "|".join("---" for _ in self.headers) + "|"
            body = "\n".join("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
            return "\n".join([head, sep, body])

        parts = [f"### {self.experiment_id}: {self.title}", "", "Measured:", "",
                 md_table(self.rows), ""]
        if self.paper_reference:
            parts += ["Paper reported:", "", md_table(self.paper_reference), ""]
        if self.notes:
            parts += [f"*{self.notes}*", ""]
        return "\n".join(parts)

    def save_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": self.headers,
            "rows": self.rows,
            "paper_reference": self.paper_reference,
            "notes": self.notes,
        }
        if self.provenance is not None:
            payload["provenance"] = self.provenance
        path.write_text(json.dumps(payload, indent=2, default=str))
        return path
