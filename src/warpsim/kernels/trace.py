"""Step tables: per-thread values over the steps of a traced primitive, and the observer that keeps them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

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


class StepRows:
    """The step rows of a one-block launch, kept from its shared stores as it runs: attach it as its ``recorder``.

    One row per span between two consecutive barriers; a cell holds the last
    value that thread stored to shared memory in the span, ``None`` if it
    stored nothing. Stores before the first barrier or after the last one
    make no row.
    """

    def __init__(self, width: int):
        self.width = width
        self.spans: list[np.ndarray] = []  # one object row per barrier: the span it opens

    def on_access(self, ctx: Any, view: Any, lanes: np.ndarray, warp_ids: np.ndarray, addresses: Any,
                  values: Optional[np.ndarray]) -> None:
        if values is not None and view.space == "shared" and self.spans:
            self.spans[-1][lanes] = values  # as Python numbers, as ``tolist`` gives them

    def on_branch(self, ctx: Any, true_counts: np.ndarray, false_counts: np.ndarray) -> None:
        pass

    def on_barrier(self, ctx: Any) -> None:
        self.spans.append(np.full(self.width, None, dtype=object))

    def rows(self) -> list[list[Cell]]:
        """The rows of the spans that a barrier closed."""
        return [span.tolist() for span in self.spans[:-1]]


def _fmt(value: Cell) -> str:
    """A cell's text: blank for an idle thread, an integral float without its ".0"."""
    if type(value) is int:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
