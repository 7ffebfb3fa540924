"""What an attached ``Recorder`` keeps of a launch: its memory instructions, branches and barriers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np


@dataclass
class AccessRecord:
    """One executed memory instruction: which lanes touched which addresses."""

    kernel: str
    block: int
    step: int
    space: str  # "global" | "shared"
    kind: str  # "read" | "write"
    buffer: str
    width: int
    warp_ids: np.ndarray  # block-local warp of each active lane
    lanes: np.ndarray  # global linear thread ids of active lanes
    addresses: np.ndarray  # byte addresses, parallel to lanes
    values: Optional[np.ndarray]  # stored values, parallel to lanes; None for a load


@dataclass
class BranchRecord:
    """One structured branch: per-warp active-lane predicate tallies."""

    kernel: str
    block: int
    step: int
    true_lane_counts: tuple[int, ...]
    false_lane_counts: tuple[int, ...]


@dataclass
class Recorder:
    """A launch's memory instructions, branches and barriers in order; see ``Simulator.launch``.

    The engine calls its hooks, ``on_access``, ``on_branch`` and
    ``on_barrier``, at each such instruction of the launch, with the kernel
    context at that instruction's step. Any object with the three hooks may
    be attached in its place.
    """

    accesses: list[AccessRecord] = field(default_factory=list)
    branches: list[BranchRecord] = field(default_factory=list)
    barriers: list[tuple[str, int, int]] = field(default_factory=list)  # (kernel, block, step)

    def on_access(self, ctx: Any, view: Any, lanes: np.ndarray, warp_ids: np.ndarray, addresses: Any,
                  values: Optional[np.ndarray]) -> None:
        """A memory instruction of the active ``lanes``: byte ``addresses`` (a ``range`` for a run), ``values`` stored
        (None for a load)."""
        self.accesses.append(AccessRecord(
            kernel=ctx.kernel_name, block=ctx.block_linear, step=ctx.step, space=view.space,
            kind="read" if values is None else "write", buffer=view.name, width=view.element_width,
            warp_ids=warp_ids, lanes=lanes,
            addresses=np.arange(addresses.start, addresses.stop, addresses.step)
            if isinstance(addresses, range) else addresses,
            values=None if values is None else values.copy(),  # the kernel may change its own array
        ))

    def on_branch(self, ctx: Any, true_counts: np.ndarray, false_counts: np.ndarray) -> None:
        """A structured branch: per warp, the active lanes where the predicate holds and where it does not."""
        self.branches.append(BranchRecord(ctx.kernel_name, ctx.block_linear, ctx.step, tuple(true_counts.tolist()),
                                          tuple(false_counts.tolist())))

    def on_barrier(self, ctx: Any) -> None:
        self.barriers.append((ctx.kernel_name, ctx.block_linear, ctx.step))
