"""Counters observed during a launch and their JSON form."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any


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
        return {f.name: getattr(self, f.name) for f in fields(KernelCounters)}


@dataclass
class MetricsReport(KernelCounters):
    """Totals for a launch plus a per-kernel breakdown.

    ``thread_steps`` counts per-lane arithmetic operations executed through
    the kernel context (one per active lane per ``ctx.add``/``ctx.mul``/...),
    so algorithmic work like scan additions is countable exactly.
    """

    per_kernel: dict[str, KernelCounters] = field(default_factory=dict)

    def counters(self, kernel: str) -> KernelCounters:
        """The per-kernel entry of ``kernel``; the first call creates it.

        A count goes to the totals and to this entry, so call it only when
        there is something to count: a kernel that counts nothing gets no entry.
        """
        entry = self.per_kernel.get(kernel)
        if entry is None:
            entry = self.per_kernel[kernel] = KernelCounters()
        return entry

    def to_json(self) -> dict[str, Any]:
        return {**super().to_json(), "per_kernel": {k: v.to_json() for k, v in sorted(self.per_kernel.items())}}
