"""Virtual GPU machine: launch geometry, memory, metrics, and the engine."""

from .access import bank_conflict_degree, coalesce_count
from .config import LaunchConfig, ceil_div
from .engine import (
    BranchRecord,
    GlobalView,
    KernelContext,
    Recorder,
    SharedView,
    Simulator,
    barrier_sync,
    device_launch,
    launch_kernel,
    structured_if,
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
from .memory import AccessRecord, Buffer, DeviceMemory
from .metrics import KernelCounters, MetricsReport

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
    "barrier_sync",
    "ceil_div",
    "coalesce_count",
    "device_launch",
    "launch_kernel",
    "structured_if",
]
