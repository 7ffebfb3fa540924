"""Simulation errors raised by the virtual GPU.

Every error that aborts a launch pinpoints at least one offending thread
coordinate so failures can be traced back to the lane that caused them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence


@dataclass(frozen=True)
class ThreadCoord:
    """Full coordinates of one simulated thread."""

    block_idx: tuple[int, int, int]
    thread_idx: tuple[int, int, int]
    global_linear_id: int
    warp_id: int
    lane: int

    def to_json(self) -> dict[str, Any]:
        return {
            "block_idx": list(self.block_idx),
            "thread_idx": list(self.thread_idx),
            "global_linear_id": self.global_linear_id,
            "warp_id": self.warp_id,
            "lane": self.lane,
        }

    def __str__(self) -> str:
        return (
            f"block{self.block_idx} thread{self.thread_idx} "
            f"(gid={self.global_linear_id}, warp={self.warp_id}, lane={self.lane})"
        )


class SimError(Exception):
    """Base class for launch-aborting simulation errors."""

    kind = "SimError"

    def __init__(
        self,
        message: str,
        *,
        threads: Sequence[ThreadCoord] = (),
        buffer: Optional[str] = None,
        step: Optional[int] = None,
        kernel: Optional[str] = None,
    ):
        self.threads = list(threads)
        self.buffer = buffer
        self.step = step
        self.kernel = kernel
        parts = [message]
        if kernel is not None:
            parts.append(f"kernel={kernel}")
        if buffer is not None:
            parts.append(f"buffer={buffer}")
        if step is not None:
            parts.append(f"step={step}")
        for t in self.threads[:2]:
            parts.append(f"at {t}")
        super().__init__("; ".join(parts))

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.args[0] if self.args else "",
            "threads": [t.to_json() for t in self.threads],
            "buffer": self.buffer,
            "step": self.step,
            "kernel": self.kernel,
        }


class _RunAlone(BaseException):
    """Stops a group of blocks, which the engine then undoes and replays block by block.

    Raised by ``ctx.launch`` in a group and by a race track whose reads of
    the interval were forgotten. Not an ``Exception``, so that a kernel's own
    handler does not swallow it, and not a ``SimError``: no launch fails.
    """


class LaunchConfigInvalid(SimError):
    kind = "LaunchConfigInvalid"


class OutOfBounds(SimError):
    kind = "OutOfBounds"


class DataRace(SimError):
    kind = "DataRace"


class BarrierDivergence(SimError):
    kind = "BarrierDivergence"


class NestingLimit(SimError):
    kind = "NestingLimit"
