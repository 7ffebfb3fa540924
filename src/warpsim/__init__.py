"""warpsim: a deterministic SIMT virtual GPU and parallel-primitives library.

The machine executes kernels in 32-wide lockstep warps and accounts for
divergence, memory coalescing, shared-memory bank conflicts, barriers, data
races, and device-side child launches. On top of it sit reference parallel
primitives with step-table traces, a host-side stream/engine timeline
scheduler, and memory-hierarchy cost models.

The public names load on first use (PEP 562): ``import warpsim`` loads
neither numpy nor the engine, and neither do ``warpsim.streams`` and
``warpsim.memperf``, which the host models need alone.
"""

from importlib import import_module

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
    "coalesce_count",
    "kernels",
    "launch_kernel",
    "memperf",
    "streams",
]


def __getattr__(name: str):
    """A public name on its first use: a submodule, or a name of ``warpsim.core`` kept here once found."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in ("kernels", "memperf", "streams"):
        return import_module(f".{name}", __name__)  # importing a submodule binds it here
    return globals().setdefault(name, getattr(import_module(".core", __name__), name))


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
