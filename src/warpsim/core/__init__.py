"""Virtual GPU machine: launch geometry, memory, the engine, access analysis, race tracking, metrics and recording."""

from .access import bank_conflict_degree, coalesce_count
from .config import LaunchConfig, ceil_div
from .engine import (
    GlobalView,
    KernelContext,
    SharedView,
    Simulator,
    block_batchable,
    launch_kernel,
)
from .errors import (
    BarrierDivergence,
    DataRace,
    LaunchConfigInvalid,
    NestingLimit,
    OutOfBounds,
    SimError,
    ThreadCoord,
)
from .memory import Buffer, DeviceMemory
from .metrics import KernelCounters, MetricsReport
from .observe import AccessRecord, BranchRecord, Recorder

__all__ = [
    "AccessRecord",
    "BarrierDivergence",
    "BranchRecord",
    "Buffer",
    "DataRace",
    "DeviceMemory",
    "GlobalView",
    "KernelContext",
    "KernelCounters",
    "LaunchConfig",
    "LaunchConfigInvalid",
    "MetricsReport",
    "NestingLimit",
    "OutOfBounds",
    "Recorder",
    "SharedView",
    "SimError",
    "Simulator",
    "ThreadCoord",
    "bank_conflict_degree",
    "block_batchable",
    "ceil_div",
    "coalesce_count",
    "launch_kernel",
]
