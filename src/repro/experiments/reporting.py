"""Plain-text reporting of experiment results (the tables the benches print)."""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.experiments.runner import Aggregate, RunRecord


def _fmt(value: float, width: int = 12) -> str:
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return "inf".rjust(width)
    if abs(value) >= 1000:
        return f"{value:,.0f}".rjust(width)
    return f"{value:.4g}".rjust(width)


def format_aggregates(
    aggregates: Sequence[Aggregate],
    *,
    title: str = "",
) -> str:
    """Render aggregates as an aligned text table, in the given order."""
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = (
        f"{'algorithm':<22}{'cost':>12}{'congestion':>12}"
        f"{'occupancy':>12}{'time (s)':>12}{'fails':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for agg in aggregates:
        lines.append(
            f"{agg.algorithm:<22}"
            f"{_fmt(agg.mean_cost)}"
            f"{_fmt(agg.mean_congestion)}"
            f"{_fmt(agg.mean_occupancy)}"
            f"{_fmt(agg.mean_seconds)}"
            f"{agg.failures:>7d}"
        )
    return "\n".join(lines)


def format_sweep(
    rows: Sequence[dict],
    columns: Sequence[str],
    *,
    title: str = "",
) -> str:
    """Render a parameter sweep (one dict per point) as an aligned table."""
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    cells = [
        [
            _fmt(value, 0) if isinstance(value, float) else str(value)
            for value in (row.get(c, "") for c in columns)
        ]
        for row in rows
    ]
    # Every column keeps at least two spaces of gap to its left neighbour.
    widths = [
        max(16, len(c) + 2, *(len(r[k]) + 2 for r in cells))
        for k, c in enumerate(columns)
    ]
    header = "".join(c.rjust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in cells:
        lines.append("".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def write_records_csv(records: Iterable[RunRecord], path: str | Path) -> None:
    """Persist raw Monte Carlo records for later analysis."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["algorithm", "seed", "cost", "congestion", "occupancy", "seconds", "failed"]
        )
        for r in records:
            writer.writerow(
                [r.algorithm, r.seed, r.cost, r.congestion, r.occupancy, r.seconds, r.failed]
            )


def write_sweep_csv(rows: Iterable[dict], columns: Sequence[str], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
