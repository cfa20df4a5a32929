"""Rendering of experiment results: ASCII reports and CSV export.

The paper's figures are line plots; in a terminal-first library the same
information is delivered as (a) compact ASCII tables of the headline
numbers and (b) down-sampled RMSE series per curve, plus CSV files for
anyone who wants to re-plot.
"""

from __future__ import annotations

import os
import re
from typing import Sequence

from ..simulator.trace import Trace
from .harness import ExperimentResult

__all__ = ["ascii_table", "format_trace", "render_result", "result_to_csv_dir"]

#: Points of a convergence series an ASCII report shows.
MAX_POINTS = 8


def ascii_table(rows: Sequence[dict], title: str | None = None) -> str:
    """Render a list of homogeneous dicts as a fixed-width ASCII table."""
    if not rows:
        return f"{title or 'table'}: (empty)\n"
    headers = list(rows[0].keys())
    cells = [[_cell(row.get(h)) for h in headers] for row in rows]
    widths = [
        max(len(header), *(len(line[i]) for line in cells))
        for i, header in enumerate(headers)
    ]
    parts = []
    if title:
        parts.append(title)
    rule = "-+-".join("-" * w for w in widths)
    parts.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    parts.append(rule)
    for line in cells:
        parts.append(" | ".join(c.ljust(w) for c, w in zip(line, widths)))
    return "\n".join(parts) + "\n"


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_trace(label: str, trace: Trace) -> str:
    """One-line RMSE series for a trace, down-sampled to :data:`MAX_POINTS`."""
    records = trace.records
    if len(records) > MAX_POINTS:
        stride = (len(records) - 1) / (MAX_POINTS - 1)
        picked = [records[round(i * stride)] for i in range(MAX_POINTS)]
    else:
        picked = list(records)
    series = " ".join(f"{r.rmse:.3f}@{r.time:.3g}s" for r in picked)
    return f"{label:42s} {series}"


def render_result(result: ExperimentResult) -> str:
    """Full ASCII report of one experiment."""
    parts = [f"=== {result.experiment_id}: {result.title} ==="]
    if result.series:
        parts.append("-- convergence series (rmse@sim-seconds) --")
        for label, trace in result.series.items():
            parts.append(format_trace(label, trace))
    for name, rows in result.tables.items():
        parts.append("")
        parts.append(ascii_table(rows, title=f"-- {name} --").rstrip())
    if result.notes:
        parts.append("")
        for note in result.notes:
            parts.append(f"note: {note}")
    return "\n".join(parts) + "\n"


def result_to_csv_dir(result: ExperimentResult, directory: str) -> list[str]:
    """Write every series and table as CSV files; returns written paths."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for label, trace in result.series.items():
        path = os.path.join(
            directory, f"{result.experiment_id}__{_slug(label)}.csv"
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(trace.to_csv())
        written.append(path)
    for name, rows in result.tables.items():
        path = os.path.join(
            directory, f"{result.experiment_id}__{_slug(name)}__table.csv"
        )
        with open(path, "w", encoding="utf-8") as handle:
            if rows:
                headers = list(rows[0].keys())
                handle.write(",".join(headers) + "\n")
                for row in rows:
                    handle.write(
                        ",".join(_csv_cell(row.get(h)) for h in headers) + "\n"
                    )
        written.append(path)
    return written


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    return str(value)


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text)
