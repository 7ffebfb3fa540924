"""What an attached ``Recorder`` keeps of a launch: its memory instructions, branches and barriers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    """A launch's memory instructions, branches and barriers in order; see ``Simulator.launch``."""

    accesses: list[AccessRecord] = field(default_factory=list)
    branches: list[BranchRecord] = field(default_factory=list)
    barriers: list[tuple[str, int, int]] = field(default_factory=list)  # (kernel, block, step)
