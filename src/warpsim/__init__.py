"""warpsim: a deterministic SIMT virtual GPU and parallel-primitives library.

The machine executes kernels in 32-wide lockstep warps and accounts for
divergence, memory coalescing, shared-memory bank conflicts, barriers, data
races, and device-side child launches. On top of it sit reference parallel
primitives with step-table traces, a host-side stream/engine timeline
scheduler, and memory-hierarchy cost models.
"""

from . import kernels, memperf, streams
from .core import (
    BarrierDivergence,
    Buffer,
    DataRace,
    DeviceMemory,
    KernelContext,
    LaunchConfig,
    LaunchConfigInvalid,
    MetricsReport,
    NestingLimit,
    OutOfBounds,
    Recorder,
    SimError,
    Simulator,
    ThreadCoord,
    bank_conflict_degree,
    barrier_sync,
    coalesce_count,
    device_launch,
    launch_kernel,
    structured_if,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierDivergence",
    "Buffer",
    "DataRace",
    "DeviceMemory",
    "KernelContext",
    "LaunchConfig",
    "LaunchConfigInvalid",
    "MetricsReport",
    "NestingLimit",
    "OutOfBounds",
    "Recorder",
    "SimError",
    "Simulator",
    "ThreadCoord",
    "bank_conflict_degree",
    "barrier_sync",
    "coalesce_count",
    "device_launch",
    "kernels",
    "launch_kernel",
    "structured_if",
    "memperf",
    "streams",
]
