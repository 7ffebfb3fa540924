"""Memory-hierarchy cost models.

Three simulators: an exact LRU cache, a static-vs-dynamic shared-L3
partitioning comparison, and a disk/RAM/VRAM staging estimator for the
batch-wise data flow of a training loop. All level parameters are abstract
time units; the shipped default profile encodes only the qualitative
fastest-to-slowest ordering.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from typing import Any, Iterable, Optional, Sequence

from .rules import is_number, real, whole


class SpecInvalid(ValueError):
    pass


LEVEL_NAMES = ("Registers", "L1", "L2", "L3", "RAM", "VRAM", "SSD", "HDD", "External")
DISK_LEVELS = ("SSD", "HDD", "External")
MAX_BATCH_VISITS = 1 << 18  # epochs x batches of one training flow: about 1 s of estimate_training_flow


@dataclass(frozen=True)
class MemoryLevelSpec:
    name: str
    latency: float  # time units per access
    bandwidth: float  # bytes per time unit
    capacity: float  # bytes

    def __post_init__(self):
        if self.name not in LEVEL_NAMES:
            raise SpecInvalid(f"unknown level name {self.name!r}, expected one of {LEVEL_NAMES}")
        for key in ("latency", "bandwidth", "capacity"):
            real(f"level {self.name}: {key}", getattr(self, key), SpecInvalid)
        if not (self.latency >= 0 and self.bandwidth > 0 and self.capacity > 0):  # NaN too
            raise SpecInvalid(f"level {self.name}: parameters must be positive")
        if math.isinf(self.latency):
            raise SpecInvalid(f"level {self.name}: latency must be finite")


@dataclass
class HierarchySpec:
    """Levels ordered fastest to slowest; validated to pyramid shape."""

    levels: list[MemoryLevelSpec]

    def __post_init__(self):
        self.levels = list(self.levels)
        for faster, slower in zip(self.levels, self.levels[1:]):
            for axis, worse in (("latency", "lower latency"), ("capacity", "smaller capacity")):
                if getattr(slower, axis) < getattr(faster, axis):
                    raise SpecInvalid(f"pyramid violation: {slower.name} is below {faster.name} but has {worse}")

    def first(self, names: Sequence[str]) -> Optional[MemoryLevelSpec]:
        """The level of the first of ``names`` that the hierarchy holds (in the order of ``names``), or None."""
        return next((lv for name in names for lv in self.levels if lv.name == name), None)

    def level(self, name: str) -> MemoryLevelSpec:
        lv = self.first((name,))
        if lv is None:
            raise SpecInvalid(f"hierarchy has no level named {name!r}")
        return lv

    @classmethod
    def from_json(cls, data: Sequence[dict]) -> "HierarchySpec":
        if not isinstance(data, (list, tuple)) or not all(isinstance(d, dict) for d in data):
            raise SpecInvalid("hierarchy must be a JSON array of level objects")
        for i, d in enumerate(data):
            missing = [key for key in ("name", "latency", "bandwidth", "capacity") if key not in d]
            if missing:
                raise SpecInvalid(f"hierarchy[{i}] is missing {', '.join(missing)}")
        params = ("latency", "bandwidth", "capacity")
        return cls([MemoryLevelSpec(str(d["name"]), *(real(f"hierarchy[{i}] {k}", d[k], SpecInvalid) for k in params))
                    for i, d in enumerate(data)])

    def to_json(self) -> list[dict]:
        return [asdict(lv) for lv in self.levels]


def default_hierarchy() -> HierarchySpec:
    """Qualitative default profile: every number is configuration, not fact."""
    gib = 1 << 30
    return HierarchySpec(
        [
            MemoryLevelSpec("Registers", 1, 1 << 40, 4 << 10),
            MemoryLevelSpec("L1", 2, 1 << 38, 64 << 10),
            MemoryLevelSpec("L2", 4, 1 << 36, 1 << 20),
            MemoryLevelSpec("L3", 8, 1 << 34, 32 << 20),
            MemoryLevelSpec("RAM", 100, 1 << 32, 16 * gib),
            MemoryLevelSpec("VRAM", 120, 1 << 32, 24 * gib),
            MemoryLevelSpec("SSD", 100_000, 1 << 28, 1 << 40),
            MemoryLevelSpec("HDD", 1_000_000, 1 << 26, 4 << 40),
            MemoryLevelSpec("External", 10_000_000, 1 << 24, 1 << 50),
        ]
    )


# ----------------------------------------------------------------------
# LRU cache

@dataclass
class CacheModel:
    """LRU cache, empty at first; ``state`` maps each resident key to its size, least recently used first."""

    capacity_lines: int
    state: "OrderedDict[int, int]" = field(default_factory=OrderedDict, init=False)
    used: int = field(default=0, init=False)

    def __post_init__(self):
        if not is_number(self.capacity_lines):
            raise SpecInvalid(f"capacity_lines must be a number, got {self.capacity_lines!r}")
        if not self.capacity_lines >= 0:  # NaN too
            raise SpecInvalid(f"capacity_lines must be non-negative, got {self.capacity_lines}")

    def access(self, line: int, size: int = 1) -> bool:
        """True on a hit. A miss evicts from the LRU end until ``size`` fits, unless it exceeds the capacity."""
        if line in self.state:
            self.state.move_to_end(line)
            return True
        if size <= self.capacity_lines:
            used = self.used + size
            while used > self.capacity_lines:
                used -= self.state.popitem(last=False)[1]
            self.state[line] = size
            self.used = used
        return False


def simulate_cache(trace: Iterable[int], cache: CacheModel) -> tuple[int, int]:
    """Run a line-address trace through the cache; returns (hits, misses)."""
    hits = misses = 0
    for line in trace:
        if line < 0:
            raise SpecInvalid(f"negative line address {line}")
        if cache.access(line):
            hits += 1
        else:
            misses += 1
    return hits, misses


# ----------------------------------------------------------------------
# shared L3 partitioning

@dataclass(frozen=True)
class L3Config:
    total_lines: int
    cores: int
    policy: str  # "static" | "dynamic"

    def __post_init__(self):
        for name in ("total_lines", "cores"):
            object.__setattr__(self, name, whole(name, getattr(self, name), SpecInvalid))
        if self.cores < 1:
            raise SpecInvalid("cores must be >= 1")
        if self.total_lines < 0:
            raise SpecInvalid("total_lines must be non-negative")
        if self.policy not in ("static", "dynamic"):
            raise SpecInvalid(f"unknown policy {self.policy!r}")


def simulate_l3(traces: Sequence[Sequence[int]], cfg: L3Config) -> list[tuple[int, int]]:
    """Per-core (hits, misses) under round-robin interleaving of the traces.

    Static: each core owns an isolated LRU of floor(total/cores) lines.
    Dynamic: all cores contend for one shared LRU of the full size.
    """
    if len(traces) != cfg.cores:
        raise SpecInvalid(f"expected {cfg.cores} traces, got {len(traces)}")
    if cfg.policy == "static":
        access = [CacheModel(cfg.total_lines // cfg.cores).access for _ in range(cfg.cores)]
    else:
        access = [CacheModel(cfg.total_lines).access] * cfg.cores
    hits = [0] * cfg.cores
    ended = object()  # fills a shorter trace's steps
    cores = range(cfg.cores)
    for step in zip_longest(*traces, fillvalue=ended):
        for core in cores:
            line = step[core]
            if line is ended:
                continue
            if line < 0:
                raise SpecInvalid(f"negative line address {line}")
            if access[core](line):
                hits[core] += 1
    return [(h, len(trace) - h) for h, trace in zip(hits, traces)]


# ----------------------------------------------------------------------
# training data-flow estimator

@dataclass
class TrainingFlowSpec:
    dataset_bytes: int
    batch_bytes: int
    epochs: int
    hierarchy: HierarchySpec = field(default_factory=default_hierarchy)
    vram_capacity: Optional[float] = None
    ram_capacity: Optional[float] = None

    def __post_init__(self):
        self.dataset_bytes, self.batch_bytes, self.epochs = (
            whole(name, getattr(self, name), SpecInvalid) for name in ("dataset_bytes", "batch_bytes", "epochs")
        )
        if self.dataset_bytes <= 0 or self.batch_bytes <= 0:
            raise SpecInvalid("dataset_bytes and batch_bytes must be positive")
        if self.epochs < 1:
            raise SpecInvalid("epochs must be >= 1")
        if self.vram_capacity is None:
            self.vram_capacity = self.hierarchy.level("VRAM").capacity
        if self.ram_capacity is None:
            self.ram_capacity = self.hierarchy.level("RAM").capacity
        for name in ("vram_capacity", "ram_capacity"):
            _capacity(name, getattr(self, name))
        if self.batch_bytes > self.vram_capacity:
            raise SpecInvalid(
                f"batch_bytes={self.batch_bytes} exceeds vram_capacity={self.vram_capacity}; "
                f"batches must fit device memory"
            )
        visits = self.epochs * -(-self.dataset_bytes // self.batch_bytes)
        if visits > MAX_BATCH_VISITS:
            raise SpecInvalid(
                f"epochs={self.epochs} over dataset_bytes={self.dataset_bytes} in batches of "
                f"batch_bytes={self.batch_bytes} make {visits} batch visits, more than the cap of {MAX_BATCH_VISITS}"
            )
        # A visit stages at most one batch from disk and one from RAM, each the level the estimate reads;
        # a missing level fails there.
        worst = 0.0
        for level in (self.hierarchy.first(DISK_LEVELS), self.hierarchy.first(("RAM",))):
            if level is not None:
                worst += level.latency + self.batch_bytes / level.bandwidth
        if not math.isfinite(visits * worst):
            raise SpecInvalid(
                f"staging batch_bytes={self.batch_bytes} from disk and RAM in {visits} batch visits "
                f"takes a time that is not finite"
            )

    @classmethod
    def from_json(cls, data: Any) -> "TrainingFlowSpec":
        """Build a spec from its parsed JSON: {"dataset_bytes": ..., "batch_bytes": ..., "epochs": ..., ...}."""
        if not isinstance(data, dict):
            raise SpecInvalid("a training-flow spec must be a JSON object")
        missing = [key for key in ("dataset_bytes", "batch_bytes", "epochs") if key not in data]
        if missing:
            raise SpecInvalid(f"training-flow spec is missing {', '.join(missing)}")
        hierarchy = (
            HierarchySpec.from_json(data["hierarchy"])
            if "hierarchy" in data
            else default_hierarchy()
        )
        return cls(
            dataset_bytes=data["dataset_bytes"],
            batch_bytes=data["batch_bytes"],
            epochs=data["epochs"],
            hierarchy=hierarchy,
            vram_capacity=data.get("vram_capacity"),
            ram_capacity=data.get("ram_capacity"),
        )


def _capacity(name: str, value: Any) -> None:
    """A capacity is a finite number of bytes (no integer past float range), at least 0 (a RAM may hold no batch)."""
    try:
        finite = not math.isinf(real(name, value))
    except ValueError:  # not a number, or past float range
        finite = False
    if not finite:
        raise SpecInvalid(f"{name} must be a finite number of bytes, got {value!r}")
    if not value >= 0:  # NaN too
        raise SpecInvalid(f"capacity must be non-negative, got {value} for {name}")


@dataclass
class StageCost:
    stage: str
    transferred_bytes: int
    time: float


@dataclass
class EpochCost:
    epoch: int
    disk_to_ram_bytes: int
    ram_to_vram_bytes: int
    time: float
    stages: list[StageCost] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "disk_to_ram_bytes": self.disk_to_ram_bytes,
            "ram_to_vram_bytes": self.ram_to_vram_bytes,
            "time": self.time,
            "stages": [
                {"stage": s.stage, "bytes": s.transferred_bytes, "time": s.time}
                for s in self.stages
            ],
        }


@dataclass
class FlowReport:
    epochs: list[EpochCost]
    total_time: float

    def to_json(self) -> dict[str, Any]:
        return {"epochs": [e.to_json() for e in self.epochs], "total_time": self.total_time}


def estimate_training_flow(spec: TrainingFlowSpec) -> FlowReport:
    """Per-epoch staging cost of streaming batches disk -> RAM -> VRAM.

    A batch transfer is skipped when the batch is still resident at the
    destination (an LRU of each capacity, charging a batch its bytes); the
    stage cost is latency + bytes / bandwidth of the source level.
    """
    disk = spec.hierarchy.first(DISK_LEVELS)
    if disk is None:
        raise SpecInvalid(f"hierarchy needs a disk level ({', '.join(DISK_LEVELS)})")
    ram = spec.hierarchy.level("RAM")
    n_batches = -(-spec.dataset_bytes // spec.batch_bytes)
    sizes = [spec.batch_bytes] * n_batches
    sizes[-1] = spec.dataset_bytes - spec.batch_bytes * (n_batches - 1)

    ram_set = CacheModel(spec.ram_capacity)
    vram_set = CacheModel(spec.vram_capacity)
    epochs: list[EpochCost] = []
    total = 0.0
    for epoch in range(1, spec.epochs + 1):
        cost = EpochCost(epoch, 0, 0, 0.0)
        for batch, size in enumerate(sizes):
            if vram_set.access(batch, size):
                continue
            if not ram_set.access(batch, size):
                t = disk.latency + size / disk.bandwidth
                cost.stages.append(StageCost("disk_to_ram", size, t))
                cost.disk_to_ram_bytes += size
                cost.time += t
            t = ram.latency + size / ram.bandwidth
            cost.stages.append(StageCost("ram_to_vram", size, t))
            cost.ram_to_vram_bytes += size
            cost.time += t
        total += cost.time
        epochs.append(cost)
    return FlowReport(epochs, total)
