"""The virtual GPU machine.

Kernels are plain Python functions ``kernel(ctx, *args)`` executed once per
block in data-parallel lockstep: every per-thread value is a numpy array with
one slot per thread of the block, and every context operation (memory access,
structured branch, barrier, arithmetic) is one simulated instruction executed
by all currently active lanes at once. Warps of a block therefore advance
round-robin one structured step at a time, in ascending warp order, which is
the fixed reference schedule; blocks run in ascending linear block id.

Control flow that should be visible to the machine must go through
``ctx.if_``: it masks lanes, serializes both paths, and records divergence.
Plain Python branches on uniform values are allowed; per-lane data-dependent
branching has no direct expression, which is what keeps execution lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .access import (
    DEFAULT_BANK_COUNT,
    DEFAULT_BANK_WIDTH_BYTES,
    DEFAULT_SEGMENT_BYTES,
    _warp_bank_extra_cycles,
    _warp_segment_total,
)
from .config import DEFAULT_MAX_THREADS_PER_BLOCK, LaunchConfig, ceil_div
from .errors import (
    BarrierDivergence,
    DataRace,
    LaunchConfigInvalid,
    NestingLimit,
    OutOfBounds,
    SimError,
)
from .memory import AccessRecord, Buffer, DeviceMemory
from .metrics import KernelCounters, MetricsReport

LaneValue = Union[int, float, np.ndarray]

_NO_TID = np.int64(-1)
_NO_BLOCK = np.iinfo(np.int64).max  # above every block: "no block yet"
_COST_MEMO_KEY_BYTES = 4 << 20  # a cost memo whose keys would pass this starts over


class _Idx3(NamedTuple):
    x: Any
    y: Any
    z: Any


class _RaceTrack:
    """Conflict bookkeeping for one address space, reused for a whole launch.

    Interval state (reset at barriers and block starts) answers "did another
    thread of this block touch this address since the last barrier"; the
    cross-block state persists for the whole grid because barriers never
    synchronize distinct blocks. Blocks run in ascending order, so another
    block touched an address before block b exactly when the first block to
    touch it is below b: the cross-block state is that first block per
    address, one array for reads and one for writes.

    Reads are buffered and only materialized into per-address state when a
    write to the same space arrives, which keeps read-only traffic (the
    common case) cheap. Interval reads wait for a store in the interval;
    cross-block reads wait for the grid's first store, then fold as they
    come. Cross-block reads that pile up past the buffer length fold early,
    so the list never holds more addresses than the buffer has elements. The
    arrays are allocated on the first fold or store, so a buffer that is
    only read never has the writer-side ones.

    A reset costs what was touched, not the buffer length. Every address an
    interval wrote into the interval arrays is kept on an undo list, and
    ``reset_interval`` restores only those entries. A track that sibling
    child grids reuse (``undo_cross``) likewise lists the addresses its
    cross-block arrays took, and ``start_grid`` restores them before the
    next grid; a top-level track sees only one grid and lists none.
    """

    def __init__(self, length: int, cross_block: bool, undo_cross: bool):
        self.length = length
        self.undo_cross = undo_cross
        self.pending_reads: list[tuple[np.ndarray, np.ndarray]] = []
        self.interval_writes = 0
        self.touched: list[np.ndarray] = []  # undo list of the interval arrays
        self.cross_reads: list[tuple[np.ndarray, int]] = []  # (addresses, block) not yet folded
        self.cross_read_count = 0  # addresses on cross_reads
        self.cross_touched: list[np.ndarray] = []  # undo list of the cross-block arrays
        self.writer1: Optional[np.ndarray] = None  # interval arrays, from the first store
        self.rb_block1: Optional[np.ndarray] = None  # first block to read, from the first fold
        self.w_block1: Optional[np.ndarray] = None  # first block to write, from the first store
        self.start_grid(cross_block)

    def start_grid(self, cross_block: bool) -> None:
        """Forget what the previous grid recorded and track a new one."""
        self.reset_interval()
        self.cross_reads.clear()
        self.cross_read_count = 0
        if self.cross_touched:
            idx = np.concatenate(self.cross_touched)
            self.rb_block1[idx] = _NO_BLOCK
            if self.w_block1 is not None:
                self.w_block1[idx] = _NO_BLOCK
            self.cross_touched.clear()
        self.first_store_block = _NO_BLOCK
        self.cross_block = cross_block

    def reset_interval(self) -> None:
        self.pending_reads.clear()
        self.interval_writes = 0
        if self.touched:
            idx = np.concatenate(self.touched)
            self.reader1[idx] = _NO_TID
            self.reader_multi[idx] = False
            self.writer1[idx] = _NO_TID
            self.writer_multi[idx] = False
            self.writer_max[idx] = _NO_TID
            self.touched.clear()

    def read_cross(self, addrs: np.ndarray, block: int) -> None:
        """Record that ``block`` read ``addrs``; folds once the grid has stored."""
        self.cross_reads.append((addrs, block))
        self.cross_read_count += addrs.size
        if self.first_store_block != _NO_BLOCK or self.cross_read_count > self.length:
            self.fold_cross_reads()

    def fold_cross_reads(self) -> None:
        """Fold the deferred cross-block reads into the first-reader array."""
        if self.rb_block1 is None:
            self.rb_block1 = np.full(self.length, _NO_BLOCK)
        # Each block's reads are one run of the list, and a later block
        # never lowers the first reader.
        for b, run in groupby(self.cross_reads, key=itemgetter(1)):
            addrs = np.concatenate([a for a, _ in run])
            self.rb_block1[addrs] = np.minimum(self.rb_block1[addrs], b)
            if self.undo_cross:
                self.cross_touched.append(addrs)
        self.cross_reads.clear()
        self.cross_read_count = 0

    def begin_store(self) -> None:
        """Allocate the writer-side arrays if needed, then fold in pending reads."""
        if self.writer1 is None:
            self.reader1 = np.full(self.length, _NO_TID)
            self.reader_multi = np.zeros(self.length, dtype=bool)
            self.writer1 = np.full(self.length, _NO_TID)
            self.writer_multi = np.zeros(self.length, dtype=bool)
            self.writer_max = np.full(self.length, _NO_TID)
        if self.cross_block:
            if self.w_block1 is None:
                self.w_block1 = np.full(self.length, _NO_BLOCK)
            self.fold_cross_reads()
        for addrs, tids in self.pending_reads:
            u_addr, rep, dup = _distinct(addrs, tids)
            cur = self.reader1[u_addr]
            self.reader_multi[u_addr] |= dup | ((cur != _NO_TID) & (cur != rep))
            self.reader1[u_addr] = np.where(cur == _NO_TID, rep, cur)
            self.touched.append(u_addr)
        self.pending_reads.clear()


def _distinct(addrs: np.ndarray, tids: np.ndarray) -> tuple[np.ndarray, np.ndarray, Any]:
    """Distinct addresses, the thread of each one's first lane, and which repeat.

    Lane addresses usually ascend strictly; then ``np.unique`` would be the
    identity, so the sort is skipped and the repeat mask is a scalar False.
    ``addrs`` is the engine's own array, never one the kernel holds, so the
    ascending case may return it as is.
    """
    if bool((addrs[1:] > addrs[:-1]).all()):
        return addrs, tids, np.False_
    u_addr, first_idx, counts = np.unique(addrs, return_index=True, return_counts=True)
    return u_addr, tids[first_idx], counts > 1


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


class _CostMemo(dict):
    """Cost by access pattern for one launch tree; why the key is exact is in README.

    A key is the space, on a partial mask the warp ids, and the lane byte
    addresses less the first active lane's rounded down to the space's period,
    the arrays as bytes. ``key_bytes`` counts the array bytes of all keys.
    """

    key_bytes = 0

    def add(self, key: tuple, cost: int, nbytes: int) -> None:
        if self.key_bytes + nbytes > _COST_MEMO_KEY_BYTES:
            self.clear()
            self.key_bytes = 0
        self[key] = cost
        self.key_bytes += nbytes


class _LaunchState:
    """Mutable state shared by every block of one grid at one nesting depth."""

    def __init__(self, sim: "Simulator", mem: DeviceMemory, metrics: MetricsReport, mode: str, depth: int,
                 recorder: Optional[Recorder] = None, cost_memo: Optional[_CostMemo] = None):
        self.sim = sim
        self.mem = mem
        self.metrics = metrics
        self.mode = mode
        self.depth = depth
        self.recorder = recorder
        self.cost_memo = _CostMemo() if cost_memo is None else cost_memo  # one per launch tree
        self.multi_block = True  # refined per grid before blocks run
        self.tracks: dict[str, _RaceTrack] = {}
        self.shared_track: Optional[_RaceTrack] = None
        self._child: Optional[_LaunchState] = None

    def begin_grid(self, config: LaunchConfig) -> None:
        """Reset the tracks an earlier grid at this depth left, for ``config``."""
        self.multi_block = config.blocks_per_grid > 1
        for t in self.tracks.values():
            t.start_grid(self.multi_block)
        if self.shared_track is None or self.shared_track.length != config.shared_mem_bytes:
            self.shared_track = _RaceTrack(config.shared_mem_bytes, cross_block=False, undo_cross=False)

    def track_for(self, buf: Buffer) -> _RaceTrack:
        t = self.tracks.get(buf.name)
        if t is None or t.length != len(buf):
            t = _RaceTrack(len(buf), cross_block=self.multi_block, undo_cross=self.depth > 0)
            self.tracks[buf.name] = t
        return t

    def reset_intervals(self) -> None:
        self.shared_track.reset_interval()
        for t in self.tracks.values():
            t.reset_interval()

    def child(self) -> "_LaunchState":
        """The state of every child grid launched from this grid's blocks.

        Sibling child grids run one after another, so they share one state
        and its race tracks, which ``begin_grid`` resets for each. A child
        grid's accesses are checked against each other only: conflicts
        between a parent and its child are outside the checked model (the
        child completes before the parent's next step).
        """
        if self._child is None:
            self._child = _LaunchState(
                self.sim, self.mem, self.metrics, self.mode, self.depth + 1, self.recorder, self.cost_memo
            )
        return self._child

    def release(self) -> None:
        """Drop the race state and cost memo of this depth and every deeper one."""
        self.tracks.clear()
        self.shared_track = None
        self.cost_memo = None
        if self._child is not None:
            self._child.release()
            self._child = None


class GlobalView:
    """Kernel-side handle to a global buffer, indexable by lane arrays."""

    space = "global"
    byte_offset = 0

    def __init__(self, ctx: "KernelContext", buffer: Buffer):
        self._ctx = ctx
        self.buffer = buffer
        self.name = buffer.name
        self.data = buffer.data
        self.element_width = buffer.element_width

    def __getitem__(self, idx: LaneValue) -> np.ndarray:
        return self._ctx._access(self, idx, None)

    def __setitem__(self, idx: LaneValue, value: LaneValue) -> None:
        self._ctx._access(self, idx, value)


class SharedView:
    """One typed allocation inside the block's shared memory region."""

    space = "shared"

    def __init__(self, ctx: "KernelContext", name: str, length: int, dtype, byte_offset: int, element_width: int):
        self._ctx = ctx
        self.name = name
        self.data = np.zeros(length, dtype=dtype)
        self.byte_offset = byte_offset
        self.element_width = element_width

    def __len__(self) -> int:
        return int(self.data.size)

    def __getitem__(self, idx: LaneValue) -> np.ndarray:
        return self._ctx._access(self, idx, None)

    def __setitem__(self, idx: LaneValue, value: LaneValue) -> None:
        self._ctx._access(self, idx, value)


class KernelContext:
    """Per-block execution context handed to kernel functions."""

    def __init__(
        self,
        state: _LaunchState,
        config: LaunchConfig,
        block_linear: int,
        kernel_name: str,
    ):
        self._state = state
        self._sim = state.sim
        self._kernel_counters: Optional[KernelCounters] = None  # resolved on the first count
        self.config = config
        self.kernel_name = kernel_name
        self.block_linear = block_linear

        linear, tx, ty, tz, self.warp, self.lane, all_active = config.lanes
        T = config.threads_per_block
        self.nthreads = T
        self.warp_count = ceil_div(T, config.warp_size)

        self.block_idx = _Idx3(*config.block_coords(block_linear))
        self.block_dim = _Idx3(*config.block_dim)
        self.grid_dim = _Idx3(*config.grid_dim)
        self.thread_idx = _Idx3(tx, ty, tz)
        self.global_id = block_linear * T + linear
        self.gx = self.block_idx.x * self.block_dim.x + tx
        self.gy = self.block_idx.y * self.block_dim.y + ty
        self.gz = self.block_idx.z * self.block_dim.z + tz
        for a in (self.global_id, self.gx, self.gy, self.gz):
            a.flags.writeable = False  # the engine's thread ids, which a kernel must not edit in place

        # (mask, active lane count) per open branch; the block is all active at first.
        self._mask_stack: list[tuple[np.ndarray, int]] = [(all_active, T)]
        self._shared_offset = 0
        self.step = 0

    # ------------------------------------------------------------------
    # lane helpers

    @property
    def active(self) -> np.ndarray:
        return self._mask_stack[-1][0]

    def _lanes(self, value: LaneValue, dtype=None) -> np.ndarray:
        arr = np.asarray(value)
        if arr.ndim == 0:
            arr = np.full(self.nthreads, arr[()])
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        if arr.shape != (self.nthreads,):
            raise ValueError(f"lane value has shape {arr.shape}, expected ({self.nthreads},)")
        return arr

    def _counters(self) -> KernelCounters:
        """This kernel's entry in the launch's per-kernel counters."""
        if self._kernel_counters is None:
            self._kernel_counters = self._state.metrics.counters(self.kernel_name)
        return self._kernel_counters

    def _err_kw(self, gids: Sequence[int], buffer: Optional[str] = None) -> dict:
        return {
            "threads": [self.config.thread_coord(g) for g in gids],
            "buffer": buffer,
            "step": self.step,
            "kernel": self.kernel_name,
        }

    # ------------------------------------------------------------------
    # shared memory allocation

    def shared_array(self, length: int, dtype=np.int64, element_width: int = DEFAULT_BANK_WIDTH_BYTES) -> SharedView:
        """Carve a typed array out of the block's shared region.

        Contents are zero at block start and never visible to other blocks.
        """
        nbytes = int(length) * element_width
        if self._shared_offset + nbytes > self.config.shared_mem_bytes:
            raise LaunchConfigInvalid(
                f"shared allocation of {nbytes} bytes exceeds shared_mem_bytes="
                f"{self.config.shared_mem_bytes} (offset {self._shared_offset})",
                kernel=self.kernel_name,
            )
        view = SharedView(
            self,
            f"shared@{self._shared_offset}",
            int(length),
            dtype,
            self._shared_offset,
            element_width,
        )
        self._shared_offset += nbytes
        return view

    # ------------------------------------------------------------------
    # memory instructions

    def _access(
        self, view: Union[GlobalView, SharedView], idx: LaneValue, value: Optional[LaneValue]
    ) -> Optional[np.ndarray]:
        """One memory instruction of the active lanes; ``value is None`` is a load.

        Only the cost and the race bookkeeping depend on the address space:
        global memory counts coalesced segments and tracks element indices,
        shared memory counts bank conflicts and tracks byte offsets.
        """
        data = view.data
        act, n_active = self._mask_stack[-1]
        if not n_active:
            return None if value is not None else np.zeros(self.nthreads, dtype=data.dtype)
        full = n_active == self.nthreads
        ei = self._lanes(idx, np.int64)
        if full:
            tids, warp_ids = self.global_id, self.warp
        else:
            ei, tids, warp_ids = ei[act], self.global_id[act], self.warp[act]
        if ei.view(np.uint64).max() >= data.size:  # a negative index views as 2**63 or more
            first = int(np.argmax((ei < 0) | (ei >= data.size)))
            noun = "buffer" if view.space == "global" else "shared array"
            raise OutOfBounds(
                f"index {int(ei[first])} outside {noun} {view.name!r} of length {data.size}",
                **self._err_kw([int(tids[first])], view.name),
            )
        byte_addrs = ei * view.element_width
        if view.byte_offset:
            byte_addrs += view.byte_offset

        sim, state = self._sim, self._state
        is_global = view.space == "global"
        period = sim.segment_bytes if is_global else sim.bank_width_bytes
        norm = byte_addrs - int(byte_addrs[0]) // period * period
        key = (view.space, norm.tobytes()) if full else (view.space, warp_ids.tobytes(), norm.tobytes())
        cost = state.cost_memo.get(key)
        if cost is None:
            if is_global:
                cost = _warp_segment_total(warp_ids, byte_addrs, sim.segment_bytes)
            else:
                cost = _warp_bank_extra_cycles(warp_ids, byte_addrs, sim.bank_count, sim.bank_width_bytes)
            state.cost_memo.add(key, cost, norm.nbytes if full else 2 * norm.nbytes)
        counters = self._counters()
        if is_global:
            state.metrics.global_transactions += cost
            counters.global_transactions += cost
            track = state.track_for(view.buffer)
            addrs = ei.copy() if ei is idx else ei  # the race tracker keeps it; the kernel may change its own
        else:
            state.metrics.bank_conflict_extra_cycles += cost
            counters.bank_conflict_extra_cycles += cost
            track, addrs = state.shared_track, byte_addrs

        result: Optional[np.ndarray] = None
        if value is None:
            self._race_read(track, addrs, tids, view.name)
            if full:
                result = data[ei]
            else:
                result = np.zeros(self.nthreads, dtype=data.dtype)
                result[act] = data[ei]
        else:
            vals = self._lanes(value)
            if not full:
                vals = vals[act]
            vals = vals.astype(data.dtype, copy=False)
            eff = self._race_write(track, addrs, tids, view.name)
            data[ei[eff]] = vals[eff]
        if state.recorder is not None:
            state.recorder.accesses.append(
                AccessRecord(
                    kernel=self.kernel_name,
                    block=self.block_linear,
                    step=self.step,
                    space=view.space,
                    kind="read" if value is None else "write",
                    buffer=view.name,
                    width=view.element_width,
                    warp_ids=warp_ids,
                    lanes=tids,
                    addresses=byte_addrs,
                    values=None if value is None else vals.copy(),  # the kernel may change its own array
                )
            )
        self.step += 1
        return result

    # ------------------------------------------------------------------
    # race bookkeeping (addresses are element indices for global buffers,
    # byte offsets for shared memory; both are per-launch address spaces)

    def _race_fail(self, name: str, addr: int, tid_a: int, tid_b: int) -> None:
        msg = f"conflicting accesses to {name!r} address {addr} without an intervening barrier"
        if self._state.mode == "strict":
            offenders = [tid_a] if tid_b < 0 or tid_b == tid_a else [tid_a, tid_b]
            raise DataRace(msg, **self._err_kw(offenders, name))
        self._state.mem.race_warnings.append(
            f"{msg} (threads {tid_a} and {tid_b}, kernel {self.kernel_name}, block {self.block_linear}, step {self.step})"
        )

    def _race_read(self, track: _RaceTrack, addrs: np.ndarray, tids: np.ndarray, name: str) -> None:
        b = self.block_linear
        if track.interval_writes:
            w1 = track.writer1[addrs]
            conflict = (w1 != _NO_TID) & ((w1 != tids) | track.writer_multi[addrs])
            if conflict.any():
                i = int(np.argmax(conflict))
                self._race_fail(name, int(addrs[i]), int(tids[i]), int(w1[i]))
        if track.first_store_block < b:  # another block of this grid stored here
            conflict = track.w_block1[addrs] < b
            if conflict.any():
                i = int(np.argmax(conflict))
                self._race_fail(name, int(addrs[i]), int(tids[i]), -1)

        track.pending_reads.append((addrs, tids))
        if track.cross_block:
            track.read_cross(addrs, b)

    def _race_write(self, track: _RaceTrack, addrs: np.ndarray, tids: np.ndarray, name: str) -> np.ndarray:
        """Check a store instruction; returns the per-lane apply mask.

        In permissive mode conflicting writes resolve in ascending global id
        order: a lane's write lands only if no higher-id thread already wrote
        this address in the current interval.
        """
        track.begin_store()
        b = self.block_linear
        u_addr, rep, dup = _distinct(addrs, tids)

        r1 = track.reader1[addrs]
        w1 = track.writer1[addrs]
        conflict = (r1 != _NO_TID) & ((r1 != tids) | track.reader_multi[addrs])
        conflict |= (w1 != _NO_TID) & ((w1 != tids) | track.writer_multi[addrs])
        if track.cross_block:
            conflict |= track.rb_block1[addrs] < b
            conflict |= track.w_block1[addrs] < b
        if conflict.any():
            i = int(np.argmax(conflict))
            other = int(w1[i]) if w1[i] != _NO_TID else int(r1[i])
            self._race_fail(name, int(addrs[i]), int(tids[i]), other)
        if dup.any():
            dup_addr = u_addr[np.argmax(dup)]
            peers = np.flatnonzero(addrs == dup_addr)
            self._race_fail(name, int(dup_addr), int(tids[peers[0]]), int(tids[peers[1]]))

        eff = track.writer_max[addrs] <= tids

        cur = track.writer1[u_addr]
        track.writer_multi[u_addr] |= dup | ((cur != _NO_TID) & (cur != rep))
        track.writer1[u_addr] = np.where(cur == _NO_TID, rep, cur)
        if dup.any():
            np.maximum.at(track.writer_max, addrs, tids)
        else:
            track.writer_max[addrs] = np.maximum(track.writer_max[addrs], tids)
        track.touched.append(u_addr)
        track.interval_writes += 1
        if track.cross_block:
            track.w_block1[u_addr] = np.minimum(track.w_block1[u_addr], b)
            track.first_store_block = min(track.first_store_block, b)
            if track.undo_cross:
                track.cross_touched.append(u_addr)
        return eff

    # ------------------------------------------------------------------
    # control flow

    def if_(
        self,
        predicate: LaneValue,
        then_branch: Callable[[], None],
        else_branch: Optional[Callable[[], None]] = None,
    ) -> None:
        """Structured branch: then-lanes run first, else-lanes second.

        Records one divergence event per warp whose active lanes disagree on
        the predicate. A barrier inside either branch while the mask is
        partial raises BarrierDivergence.
        """
        pred = self._lanes(predicate).astype(bool)
        act = self.active
        t_mask = act & pred
        f_mask = act & ~pred

        W = self.warp_count
        t_cnt = np.bincount(self.warp[t_mask], minlength=W)
        f_cnt = np.bincount(self.warp[f_mask], minlength=W)
        diverged = int(((t_cnt > 0) & (f_cnt > 0)).sum())
        if diverged:
            self._state.metrics.divergence_events += diverged
            self._counters().divergence_events += diverged
        true_counts, false_counts = t_cnt.tolist(), f_cnt.tolist()
        if self._state.recorder is not None:
            self._state.recorder.branches.append(
                BranchRecord(self.kernel_name, self.block_linear, self.step, tuple(true_counts), tuple(false_counts))
            )
        self.step += 1

        n_true = sum(true_counts)
        if n_true:
            self._mask_stack.append((t_mask, n_true))
            try:
                then_branch()
            finally:
                self._mask_stack.pop()
        n_false = sum(false_counts)
        if else_branch is not None and n_false:
            self._mask_stack.append((f_mask, n_false))
            try:
                else_branch()
            finally:
                self._mask_stack.pop()

    def where(self, predicate: LaneValue, a: LaneValue, b: LaneValue) -> np.ndarray:
        """Predicated select: every lane follows one path, no divergence."""
        return np.where(self._lanes(predicate).astype(bool), self._lanes(a), self._lanes(b))

    def barrier(self) -> None:
        """Block-wide synchronization point.

        Legal only when every thread of the block is active; lanes masked off
        by a divergent branch can never arrive, which is the deadlock this
        error models.
        """
        act, n_active = self._mask_stack[-1]
        if n_active != self.nthreads:
            missing = int(np.argmin(act))
            gid = int(self.global_id[missing])
            raise BarrierDivergence(
                "barrier under a partial mask: some threads of the block cannot reach it",
                **self._err_kw([gid]),
            )
        self._state.metrics.barriers_executed += 1
        self._counters().barriers_executed += 1
        self._state.reset_intervals()
        if self._state.recorder is not None:
            self._state.recorder.barriers.append((self.kernel_name, self.block_linear, self.step))
        self.step += 1

    # ------------------------------------------------------------------
    # instrumented per-lane arithmetic (each call is one thread step per
    # active lane; masked lanes compute nothing and yield 0)

    def _arith(self, a: LaneValue, b: LaneValue, op: Callable) -> np.ndarray:
        act, n_active = self._mask_stack[-1]
        av = self._lanes(a)
        bv = self._lanes(b)
        self._state.metrics.thread_steps += n_active
        self._counters().thread_steps += n_active
        if n_active == self.nthreads:
            return op(av, bv)
        out = np.zeros(self.nthreads, dtype=np.result_type(av, bv))
        out[act] = op(av[act], bv[act])
        return out

    def add(self, a: LaneValue, b: LaneValue) -> np.ndarray:
        return self._arith(a, b, np.add)

    def sub(self, a: LaneValue, b: LaneValue) -> np.ndarray:
        return self._arith(a, b, np.subtract)

    def mul(self, a: LaneValue, b: LaneValue) -> np.ndarray:
        return self._arith(a, b, np.multiply)

    def floordiv(self, a: LaneValue, b: LaneValue) -> np.ndarray:
        return self._arith(a, b, np.floor_divide)

    # ------------------------------------------------------------------
    # dynamic parallelism

    def launch(
        self,
        kernel: Callable,
        grid_dim,
        block_dim,
        args: Sequence = (),
        shared_mem_bytes: int = 0,
        name: Optional[str] = None,
    ) -> None:
        """Launch a child grid from every active lane, in ascending id order.

        Each child grid runs to completion before the launching thread's next
        step; its metrics fold into the current report.
        """
        launchers = self.global_id[self.active].tolist()
        first = launchers[:1]  # the checks below hold for every launcher or none: name the first
        cfg = LaunchConfig(grid_dim, block_dim, shared_mem_bytes, self.config.warp_size)
        if self._state.depth + 1 >= self._sim.max_nesting_depth:
            raise NestingLimit(
                f"child launch at depth {self._state.depth + 1} reaches the nesting limit "
                f"of {self._sim.max_nesting_depth}",
                **self._err_kw(first),
            )
        try:
            cfg.validate(self._sim.max_threads_per_block)
        except LaunchConfigInvalid as e:
            raise LaunchConfigInvalid(f"invalid child launch config: {e.args[0]}", **self._err_kw(first)) from e
        child_args = tuple(a.buffer if isinstance(a, GlobalView) else a for a in args)
        _check_owned(self._state.mem, child_args, lambda: self._err_kw(first))
        for _ in launchers:
            self._state.metrics.child_launches += 1
            self._counters().child_launches += 1
            self._sim._run_grid(kernel, cfg, child_args, self._state.child(), name or kernel.__name__)
        self.step += 1


def _check_owned(mem: DeviceMemory, args: Sequence, err_kw: Callable[[], dict] = dict) -> None:
    """Reject a ``Buffer`` that ``mem`` did not allocate: it would share a same-named buffer's race track."""
    for a in args:
        if isinstance(a, Buffer) and mem.buffers.get(a.name) is not a:
            raise SimError(f"buffer {a.name!r} does not belong to this DeviceMemory", **err_kw())


class Simulator:
    """A virtual GPU. Instances are independent and hold no launch state."""

    def __init__(
        self,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        bank_count: int = DEFAULT_BANK_COUNT,
        bank_width_bytes: int = DEFAULT_BANK_WIDTH_BYTES,
        max_threads_per_block: int = DEFAULT_MAX_THREADS_PER_BLOCK,
        max_nesting_depth: int = 2,
    ):
        for name, value in (
            ("segment_bytes", segment_bytes),
            ("bank_count", bank_count),
            ("bank_width_bytes", bank_width_bytes),
        ):
            if value < 1:
                raise ValueError(f"{name}={value} must be positive")
        self.segment_bytes = segment_bytes
        self.bank_count = bank_count
        self.bank_width_bytes = bank_width_bytes
        self.max_threads_per_block = max_threads_per_block
        self.max_nesting_depth = max_nesting_depth

    def launch(
        self,
        kernel: Callable,
        config: LaunchConfig,
        mem: DeviceMemory,
        args: Sequence = (),
        *,
        name: Optional[str] = None,
        mode: str = "strict",
        metrics: Optional[MetricsReport] = None,
        recorder: Optional[Recorder] = None,
    ) -> MetricsReport:
        """Run one grid to completion; deterministic for identical inputs.

        ``mode`` is "strict" (conflicting unsynchronized accesses abort the
        launch) or "permissive" (they are logged on ``mem.race_warnings`` and
        writes resolve in ascending global thread id order). A ``recorder``
        collects the accesses, branches and barriers of the grid and its
        child grids; attaching one changes no result, counter or error.
        """
        if mode not in ("strict", "permissive"):
            raise ValueError(f"unknown race mode {mode!r}")
        config.validate(self.max_threads_per_block)
        _check_owned(mem, args)
        mem.race_warnings.clear()
        report = metrics if metrics is not None else MetricsReport()
        state = _LaunchState(self, mem, report, mode, 0, recorder)
        try:
            self._run_grid(kernel, config, tuple(args), state, name or kernel.__name__)
        finally:
            # A kernel's closures can hold its context in a reference cycle
            # that would keep the race arrays alive until the cyclic
            # collector runs.
            state.release()
        return report

    def _run_grid(
        self,
        kernel: Callable,
        config: LaunchConfig,
        args: tuple,
        state: _LaunchState,
        kernel_name: str,
    ) -> None:
        state.begin_grid(config)
        for block_linear in range(config.blocks_per_grid):
            state.reset_intervals()
            ctx = KernelContext(state, config, block_linear, kernel_name)
            bound = tuple(GlobalView(ctx, a) if isinstance(a, Buffer) else a for a in args)
            kernel(ctx, *bound)


def launch_kernel(
    kernel: Callable,
    config: LaunchConfig,
    mem: DeviceMemory,
    args: Sequence = (),
    **kwargs,
) -> MetricsReport:
    """Convenience wrapper: run one launch on a fresh default Simulator."""
    return Simulator().launch(kernel, config, mem, args, **kwargs)


def structured_if(
    ctx: KernelContext,
    warp_predicates: LaneValue,
    then_branch: Callable[[], None],
    else_branch: Optional[Callable[[], None]] = None,
) -> None:
    """Free-function form of ``ctx.if_`` for kernels written in that style."""
    ctx.if_(warp_predicates, then_branch, else_branch)


def barrier_sync(ctx: KernelContext) -> None:
    """Free-function form of ``ctx.barrier``."""
    ctx.barrier()


def device_launch(
    ctx: KernelContext,
    kernel: Callable,
    grid_dim,
    block_dim,
    args: Sequence = (),
    shared_mem_bytes: int = 0,
) -> None:
    """Free-function form of ``ctx.launch``."""
    ctx.launch(kernel, grid_dim, block_dim, args, shared_mem_bytes)
