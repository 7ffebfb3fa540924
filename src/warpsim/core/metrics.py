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

    def _assign(self, counts: dict[str, Any]) -> None:
        for f in fields(KernelCounters):
            setattr(self, f.name, counts[f.name])


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

    def restore(self, saved: dict[str, Any]) -> None:
        """Put back the counts of an earlier ``to_json()`` in place; entries created since are dropped."""
        self._assign(saved)
        kept = saved["per_kernel"]
        for kernel in list(self.per_kernel):
            if kernel in kept:
                self.per_kernel[kernel]._assign(kept[kernel])
            else:
                del self.per_kernel[kernel]
