"""Step tables: per-thread values over the steps of a traced primitive."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core import Recorder

Cell = Optional[Any]


@dataclass
class StepTrace:
    """Ordered rows of per-thread values; ``None`` marks an idle thread.

    Row 0 is the input array; each later row is one algorithm step. A trace
    with only the input row has zero steps.
    """

    rows: list[list[Cell]] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return max(0, len(self.rows) - 1)

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def to_json(self) -> list[list[Cell]]:
        return [list(row) for row in self.rows]

    def to_text(self, one_based: bool = False) -> str:
        """Aligned table, one column per thread, blank cells for idle threads."""
        if not self.rows:
            return "(empty trace)"
        base = 1 if one_based else 0
        table = [["step", *(f"T_{i + base}" for i in range(self.width))]]
        table += ([str(r) if r else "initial", *map(_fmt, row)] for r, row in enumerate(self.rows))
        widths = [max(map(len, column)) for column in zip(*table)]
        return "\n".join("  ".join(map(str.rjust, line, widths)) for line in table)


def barrier_rows(recorder: Recorder, width: int) -> list[list[Cell]]:
    """One row per span between two consecutive barriers of a one-block launch.

    A cell holds what that thread stored to shared memory in the span (its
    last store there); ``None`` means it stored nothing.
    """
    bounds = [step for _, _, step in recorder.barriers]
    rows: list[list[Cell]] = [[None] * width for _ in bounds[1:]]
    for rec in recorder.accesses:
        span = bisect_left(bounds, rec.step)
        if rec.space == "shared" and rec.values is not None and 0 < span < len(bounds):
            row = rows[span - 1]
            for lane, value in zip(rec.lanes.tolist(), rec.values.tolist()):
                row[lane] = value
    return rows


def _fmt(value: Cell) -> str:
    """A cell's text: blank for an idle thread, an integral float without its ".0"."""
    if type(value) is int:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
