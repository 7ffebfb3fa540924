"""Counters observed during a launch and their JSON form."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Optional


@dataclass
class KernelCounters:
    """The six counters, in their JSON order; defined here only."""

    global_transactions: int = 0
    divergence_events: int = 0
    bank_conflict_extra_cycles: int = 0
    barriers_executed: int = 0
    thread_steps: int = 0
    child_launches: int = 0

    def to_json(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in COUNTER_NAMES}


COUNTER_NAMES = tuple(f.name for f in fields(KernelCounters))


@dataclass
class MetricsReport(KernelCounters):
    """Totals for a launch plus a per-kernel breakdown.

    ``thread_steps`` counts per-lane arithmetic operations executed through
    the kernel context (one per active lane per ``ctx.add``/``ctx.mul``/...),
    so algorithmic work like scan additions is countable exactly.
    """

    per_kernel: dict[str, KernelCounters] = field(default_factory=dict)

    def add(self, kernel: str, counts: Optional[KernelCounters]) -> None:
        """Add one block's or group's ``counts`` to the totals and to the entry of ``kernel``; None adds no entry."""
        if counts is None:
            return
        entry = self.per_kernel.get(kernel) or self.per_kernel.setdefault(kernel, KernelCounters())
        for name in COUNTER_NAMES:
            n = getattr(counts, name)
            setattr(self, name, getattr(self, name) + n)
            setattr(entry, name, getattr(entry, name) + n)

    def to_json(self) -> dict[str, Any]:
        return {**super().to_json(), "per_kernel": {k: v.to_json() for k, v in sorted(self.per_kernel.items())}}
