"""The virtual GPU machine.

Kernels are plain Python functions ``kernel(ctx, *args)`` executed once per
block in data-parallel lockstep: every per-thread value is a numpy array with
one slot per thread of the block, and every context operation (memory access,
structured branch, barrier, arithmetic) is one simulated instruction executed
by all currently active lanes at once. Warps of a block therefore advance
round-robin one structured step at a time, in ascending warp order, which is
the fixed reference schedule; blocks run in ascending linear block id.

A kernel marked ``@block_batchable`` runs consecutive blocks as one group:
one context whose lanes are the blocks' threads side by side. Its results,
counters and errors equal a run block by block, which is how a group that
raises anything is replayed (README, "Batched blocks"). A block or group
counts into its own context and adds the counts to the report when it ends:
a block always, a group only if it runs through.

Control flow that should be visible to the machine must go through
``ctx.if_``: it masks lanes, serializes both paths, and records divergence.
Plain Python branches on uniform values are allowed; per-lane data-dependent
branching has no direct expression, which is what keeps execution lockstep.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from ..rules import is_int
from . import access
from .access import DEFAULT_BANK_COUNT, DEFAULT_BANK_WIDTH_BYTES, DEFAULT_SEGMENT_BYTES
from .config import DEFAULT_MAX_THREADS_PER_BLOCK, LaunchConfig, _Idx3
from .errors import (
    BarrierDivergence,
    DataRace,
    LaunchConfigInvalid,
    NestingLimit,
    OutOfBounds,
    SimError,
    _RunAlone,
)
from .memory import Buffer, DeviceMemory
from .metrics import KernelCounters, MetricsReport
from .observe import Recorder
from .race import _RaceTrack

LaneValue = Union[int, float, np.ndarray]

_STAMP_MAX = int(np.iinfo(np.int64).max)
_GROUP_LANES = 16384  # lanes of one group of a batchable kernel's blocks (README, "Batched blocks")
_LOAD = object()  # the value of a load, which no store can pass


def block_batchable(kernel: Callable) -> Callable:
    """Mark ``kernel`` as safe to run many blocks per call; see README, "Batched blocks"."""
    kernel.block_batchable = True
    return kernel


class _LaunchState:
    """Mutable state shared by every block of one grid at one nesting depth."""

    def __init__(self, sim: "Simulator", mem: DeviceMemory, metrics: MetricsReport, mode: str, depth: int,
                 observer: Any = None):
        self.sim = sim
        self.mem = mem
        self.metrics = metrics
        self.mode = mode
        self.depth = depth
        self.observer = observer  # what ``Simulator.launch`` got as ``recorder``: its hooks see every instruction
        # A word of the current interval is stamp (shared_stamp in shared memory) + a group-local
        # thread id, below it + stride; the block stamp of a block or group is grid_stamp + its
        # last block id, below every earlier grid's.
        self.stamp = self.shared_stamp = self.stride = self.grid_stamp = 0
        self.tracks: dict[Union[str, int], _RaceTrack] = {}  # global buffer name or shared byte offset
        self.configs: dict = {}  # per child geometry and per raw one of plain ints: a config with its lane arrays
        self.undo: Optional[list] = None  # (array, indices, old values) per store of a running group
        self._child: Optional[_LaunchState] = None

    def group_blocks(self, kernel: Callable, config: LaunchConfig) -> int:
        """How many consecutive blocks of ``config`` one call of ``kernel`` runs.

        Only a marked kernel batches, and only in strict mode without an
        observer: a permissive warning and an observed access name one block.
        """
        if self.mode != "strict" or self.observer is not None or not getattr(kernel, "block_batchable", False):
            return 1
        return max(1, min(_GROUP_LANES // config.threads_per_block, config.blocks_per_grid))

    def run_grid(self, kernel: Callable, config: LaunchConfig, args: tuple, kernel_name: str) -> None:
        """Run the blocks of ``config`` with new block stamps, replaying a failed group block by block.

        The tracks of earlier grids at this depth stay.
        """
        blocks = config.blocks_per_grid
        width = self.group_blocks(kernel, config)
        self.stride = max(self.stride, width * config.threads_per_block)
        self.grid_stamp -= blocks
        for first in range(0, blocks, width):
            n = min(width, blocks - first)
            if not self.run_group(kernel, config, args, kernel_name, first, n):
                for block_linear in range(first, first + n):
                    self.run_group(kernel, config, args, kernel_name, block_linear, 1)

    def run_group(self, kernel: Callable, config: LaunchConfig, args: tuple, kernel_name: str,
                  first: int, blocks: int) -> bool:
        """One call of ``kernel`` over ``blocks`` consecutive blocks from ``first`` on, in one interval.

        A block alone adds its counts to the report even if it raises. A group
        adds them only if it runs through; else it undoes its stores and
        returns False. Its race words need no undoing: interval words go stale
        with the next group start, and its block stamp is that of its last
        block, never below the stamp of a block its replay runs (README).
        """
        self.new_interval()
        ctx = KernelContext(self, config, first, kernel_name, blocks)
        self.undo = [] if blocks > 1 else None
        try:
            kernel(ctx, *(GlobalView(ctx, a) if isinstance(a, Buffer) else a for a in args))
        except (Exception, _RunAlone):
            if blocks == 1:
                self.metrics.add(kernel_name, ctx._kernel_counters)
                raise
            for data, idx, old in reversed(self.undo):
                data[idx] = old
            return False
        finally:
            self.undo = None
        self.metrics.add(kernel_name, ctx._kernel_counters)
        return True

    def new_interval(self, shared_only: bool = False) -> None:
        """Start a barrier interval: every word stamped before is stale from here on.

        A barrier in a group starts one for shared memory only: global memory
        keeps one interval per group (README, "Batched blocks").
        """
        self.shared_stamp += self.stride
        if not shared_only:
            self.stamp = self.shared_stamp
        if self.shared_stamp + self.stride > _STAMP_MAX or self.grid_stamp < -_STAMP_MAX:
            raise SimError("launch has more blocks or barrier intervals than 64-bit race stamps can number")

    def track_for(self, view: "_View") -> _RaceTrack:
        """The track of a global buffer, keyed by name, or of a shared array, keyed by byte offset."""
        key = view.name if view.space == "global" else view.byte_offset
        t = self.tracks.get(key)
        if t is None or t.length != view.data.size:
            t = self.tracks[key] = _RaceTrack(view.data.size, self.mode == "permissive")
        return t

    def child(self) -> "_LaunchState":
        """The state of every child grid launched from this grid's blocks.

        Sibling child grids run one after another, so they share one state
        and its race tracks, which new stamps make fresh for each. A child
        grid's accesses are checked against each other only: conflicts
        between a parent and its child are outside the checked model (the
        child completes before the parent's next step).
        """
        if self._child is None:
            self._child = _LaunchState(self.sim, self.mem, self.metrics, self.mode, self.depth + 1, self.observer)
        return self._child

    def release(self) -> None:
        """Drop the race state and lane arrays of this depth and every deeper one."""
        self.tracks.clear()
        self.configs.clear()
        if self._child is not None:
            self._child.release()
            self._child = None


class _View:
    """A kernel-side array: indexing it with lane arrays is one memory instruction."""

    def __getitem__(self, idx: LaneValue) -> np.ndarray:
        return self._ctx._access(self, idx, _LOAD)

    def __setitem__(self, idx: LaneValue, value: LaneValue) -> None:
        self._ctx._access(self, idx, value)


class GlobalView(_View):
    """Kernel-side handle to a global buffer, indexable by lane arrays."""

    space = "global"
    byte_offset = 0

    def __init__(self, ctx: "KernelContext", buffer: Buffer):
        self._ctx = ctx
        self.buffer = buffer
        self.name = buffer.name
        self.data = buffer.data
        self.length = buffer.data.size
        self.element_width = buffer.element_width


class SharedView(_View):
    """One typed allocation inside the block's shared memory region.

    In a group each block has its own ``length`` cells: block offset b holds
    its element i at ``data[b * length + i]``.
    """

    space = "shared"

    def __init__(self, ctx: "KernelContext", length: int, dtype, byte_offset: int, element_width: int):
        self._ctx = ctx
        self.name = f"shared@{byte_offset}"
        self.length = length
        self.data = np.zeros(length * ctx._blocks, dtype=dtype)
        self.byte_offset = byte_offset
        self.element_width = element_width

    def __len__(self) -> int:
        return self.length


class _Mask:
    """One branch's lane mask and active count; ``select`` gathers its active lanes once for all its instructions.

    That is their indices ``sel`` (None for the full mask: the context's own arrays; a slice for one contiguous
    range, whose gathers are views), thread and warp ids, group block offsets, the memo key of the warp ids and,
    from ``if_``, the lanes per warp.
    """

    __slots__ = ("mask", "count", "sel", "tids", "warp_ids", "offset", "warp_key", "warp_counts")

    def __init__(self, mask: np.ndarray, count: int):
        self.mask, self.count, self.tids, self.warp_counts = mask, count, None, None

    def select(self, ctx: "KernelContext") -> "_Mask":
        if self.tids is None:
            if self.count == ctx.nthreads:  # a full mask's key leaves out the warp ids (README)
                self.sel, self.tids, self.warp_ids, self.offset, self.warp_key = (
                    None, ctx.global_id, ctx._warp_ids, ctx._offset, b"")
            else:
                sel = np.flatnonzero(self.mask)
                lo, hi = int(sel[0]), int(sel[-1]) + 1
                sel = self.sel = slice(lo, hi) if hi - lo == self.count else sel  # ascending: the ends decide
                self.tids, self.warp_ids = ctx.global_id[sel], ctx._warp_ids[sel]
                self.offset = ctx._offset[sel] if ctx._blocks > 1 else 0
                self.warp_key = self.warp_ids.tobytes()
        return self


class KernelContext:
    """Execution context handed to kernel functions: one block, or a group of consecutive blocks.

    In a group the lanes of ``blocks`` blocks sit side by side, block by
    block: ``nthreads`` and ``warp_count`` count the group's lanes and warps,
    ``thread_idx``, ``warp`` and ``lane`` repeat per block, and
    ``block_linear``, ``block_idx``, ``global_id`` and ``gx``/``gy``/``gz``
    hold each lane's own value. A single block keeps plain ints for its
    block coordinates.
    """

    def __init__(self, state: _LaunchState, config: LaunchConfig, block_linear: int, kernel_name: str, blocks: int = 1):
        self._state = state
        self._sim = state.sim
        self._kernel_counters: Optional[KernelCounters] = None  # created on the first count
        self.config = config
        self.kernel_name = kernel_name

        (linear, self.thread_idx, self.warp, self.lane, self._warp_ids, all_active, self.block_dim, self.grid_dim,
         self.warp_count, one_d, self._offset) = config.lanes(blocks)
        self._block_size = T = config.threads_per_block
        self.nthreads = linear.size
        self._blocks = blocks

        self._gid0 = block_linear * T
        # Global buffers also check conflicts between blocks, by the block
        # stamp of the last block (README, "Batched blocks").
        self._block_stamp = state.grid_stamp + block_linear + blocks - 1
        self.global_id = _read_only(self._gid0 + linear)
        self.block_linear = block_linear if blocks == 1 else _read_only(block_linear + self._offset)
        if one_d:  # x is the linear id, y and z are ty's and tz's 0s
            _, ty, tz = self.thread_idx
            self.block_idx = _Idx3(self.block_linear, *((0, 0) if blocks == 1 else (ty, tz)))
            self.gx, self.gy, self.gz = self.global_id, ty, tz
        else:
            coords = config.block_coords(block_linear if blocks == 1 else np.arange(block_linear, block_linear + blocks))
            self.block_idx = _Idx3(*(c if blocks == 1 else _read_only(np.repeat(c, T)) for c in coords))
            dims = zip(self.block_idx, config.block_dim, self.thread_idx)
            self.gx, self.gy, self.gz = (_read_only(b * d + t) for b, d, t in dims)

        # One entry per open branch; the group is all active at first.
        self._mask_stack = [_Mask(all_active, self.nthreads)]
        self._shared_offset = 0
        self.step = 0

    # ------------------------------------------------------------------
    # lane helpers

    @property
    def active(self) -> np.ndarray:
        return self._mask_stack[-1].mask

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
        """The counts of this block or group, created on the first count.

        ``_LaunchState.run_group`` adds them to the report when the block or
        group ends; a context that counted nothing adds no per-kernel entry.
        """
        if self._kernel_counters is None:
            self._kernel_counters = KernelCounters()
        return self._kernel_counters

    def _err_kw(self, gids: Sequence[int], buffer: Optional[str] = None) -> dict:
        return {"threads": [self.config.thread_coord(g) for g in gids], "buffer": buffer, "step": self.step,
                "kernel": self.kernel_name}

    # ------------------------------------------------------------------
    # shared memory allocation

    def shared_array(self, length: int, dtype=np.int64, element_width: int = DEFAULT_BANK_WIDTH_BYTES) -> SharedView:
        """Carve a typed array out of the block's shared region.

        Contents are zero at block start and never visible to other blocks.
        """
        if not (is_int(length) and is_int(element_width)):
            raise LaunchConfigInvalid(
                f"shared array of length={length}, element_width={element_width}: both must be integers",
                kernel=self.kernel_name,
            )
        length, element_width = int(length), int(element_width)  # no int64 wrap-around in nbytes
        if length < 0 or element_width < 1:
            raise LaunchConfigInvalid(
                f"shared array of length={length}, element_width={element_width}: "
                "the length must be >= 0 and the element width >= 1",
                kernel=self.kernel_name,
            )
        nbytes = length * element_width
        if self._shared_offset + nbytes > self.config.shared_mem_bytes:
            raise LaunchConfigInvalid(
                f"shared allocation of {nbytes} bytes exceeds shared_mem_bytes="
                f"{self.config.shared_mem_bytes} (offset {self._shared_offset})",
                kernel=self.kernel_name,
            )
        view = SharedView(self, length, dtype, self._shared_offset, element_width)
        self._shared_offset += nbytes
        return view

    # ------------------------------------------------------------------
    # memory instructions

    def _access(self, view: _View, idx: LaneValue, value: Any) -> Optional[np.ndarray]:
        """One memory instruction of the active lanes; ``value is _LOAD`` is a load, any other value a store.

        Only the cost and the race stamps depend on the address space: global
        memory counts coalesced segments, shared memory counts bank conflicts.
        Both track the element indices into ``view.data``, as a slice where
        they are a run ``lo, lo + d, ...``.
        """
        data = view.data
        m = self._mask_stack[-1].select(self)
        full, tids = m.sel is None, m.tids
        ei = self._lanes(idx, np.int64)
        if not full:
            ei = ei[m.sel]
        length = view.length
        run = _run(ei, idx is self.global_id and (full or type(m.sel) is slice))  # consecutive ids, selected by a slice
        # out of bounds; a negative index views as 2**63 or more
        if (run.start < 0 or run.stop > length) if run else ei.view(np.uint64).max() >= length:
            first = int(np.argmax((ei < 0) | (ei >= length)))
            noun = "buffer" if view.space == "global" else "shared array"
            raise OutOfBounds(f"index {int(ei[first])} outside {noun} {view.name!r} of length {length}",
                              **self._err_kw([int(tids[first])], view.name))
        width = view.element_width
        byte_addrs = None if run else ei * width + view.byte_offset
        first_byte = run.start * width + view.byte_offset if run else int(byte_addrs[0])
        pitch = run.step * width if run else width

        state = self._state
        cost = access.MEMO.cost(self._sim, view.space, m.warp_ids, m.warp_key, byte_addrs, first_byte, pitch,
                                length * width + view.byte_offset, self.config.warp_size, self._block_size)
        if view.space == "global":
            self._counters().global_transactions += cost
            block, stamp = self._block_stamp, state.stamp
        else:
            self._counters().bank_conflict_extra_cycles += cost
            block, stamp = None, state.shared_stamp
            if self._blocks > 1:  # each block's cells in its own region
                ei = ei + m.offset * length
                run = _run(ei)
        # the race tracker keeps the indices, and the kernel may change its own array in place: copy any ``ei`` that
        # may be that array or a view of it
        addrs = run or (ei.copy() if ei is idx or ei.base is not None else ei)
        track, shift = state.track_for(view), stamp - self._gid0  # global thread ids to stamped words
        fail = partial(self._race_fail, view, stamp)

        result: Optional[np.ndarray] = None
        if value is _LOAD:
            track.check_read(addrs, tids, stamp, shift, block, fail, state.undo is not None)
            got = data[addrs]
            if full:
                result = got.copy() if run else got
            else:
                result = np.zeros(self.nthreads, dtype=data.dtype)
                result[m.sel] = got
        else:
            vals = self._lanes(value)
            if not full:
                vals = vals[m.sel]
            vals = vals.astype(data.dtype, copy=False)
            eff = track.check_write(addrs, tids, stamp, shift, block, fail)
            # a lane applies unless a higher thread stored its address in the interval: in strict mode all do
            dst, src = (addrs, vals) if eff is None or eff.all() else (ei[eff], vals[eff])
            if state.undo is not None:
                state.undo.append((data, dst, data[dst].copy()))  # a run's old values are a view
            data[dst] = src
        if state.observer is not None:
            addresses = range(first_byte, first_byte + pitch * ei.size, pitch) if byte_addrs is None else byte_addrs
            state.observer.on_access(self, view, tids, m.warp_ids, addresses, None if value is _LOAD else vals)
        self.step += 1
        return result

    # ------------------------------------------------------------------
    # race reports (a track of ``race.py`` finds the conflicts, by index into
    # ``view.data``; errors and warnings name a shared element by byte offset)

    def _race_fail(self, view: _View, stamp: int, conflict: Any, addrs: Any, a: np.ndarray, b: Any) -> None:
        """Report the first lane of ``conflict``: thread ``a`` against thread ``b``, or another block.

        ``a`` and ``b`` hold stamped words per lane; a stale word in ``b``, or
        a stale scalar ``b``, stands for another block and reads as -1.
        """
        if not np.count_nonzero(conflict):
            return
        i = int(np.argmax(conflict))
        shift = stamp - self._gid0
        other = int(b if np.ndim(b) == 0 else b[i])
        tid_a, tid_b = int(a[i]) - shift, other - shift if other >= stamp else -1
        index = addrs.start + i * addrs.step if isinstance(addrs, slice) else int(addrs[i])
        address = index if view.space == "global" else view.byte_offset + index * view.element_width
        msg = f"conflicting accesses to {view.name!r} address {address} without an intervening barrier"
        if self._state.mode == "strict":
            raise DataRace(msg, **self._err_kw([tid_a] if tid_b < 0 else [tid_a, tid_b], view.name))
        self._state.mem.race_warnings.append(
            f"{msg} (threads {tid_a} and {tid_b}, kernel {self.kernel_name}, block {self.block_linear}, step {self.step})"
        )

    # ------------------------------------------------------------------
    # control flow

    def if_(self, predicate: LaneValue, then_branch: Callable[[], None],
            else_branch: Optional[Callable[[], None]] = None) -> None:
        """Structured branch: then-lanes run first, else-lanes second.

        Records one divergence event per warp whose active lanes disagree on
        the predicate. A predicate that holds on every active lane or on none
        splits no warp: it is not tallied per warp unless an observer is
        attached, and the path that runs keeps the parent's mask, with its
        selection and lane counts. A barrier inside either branch while the
        mask is partial raises BarrierDivergence.
        """
        pred = self._lanes(predicate).astype(bool)
        m = self._mask_stack[-1].select(self)
        taken = pred if m.sel is None else pred[m.sel]
        n_true = int(np.count_nonzero(taken))
        split = 0 < n_true < m.count
        observer = self._state.observer
        if split or observer is not None:
            if m.warp_counts is None:
                m.warp_counts = np.bincount(m.warp_ids, minlength=self.warp_count)
            t_cnt = np.bincount(m.warp_ids[taken], minlength=self.warp_count)
            f_cnt = m.warp_counts - t_cnt
            diverged = int(((t_cnt > 0) & (f_cnt > 0)).sum())
            if diverged:
                self._counters().divergence_events += diverged
            if observer is not None:
                observer.on_branch(self, t_cnt, f_cnt)
        self.step += 1
        for count, branch, then in ((n_true, then_branch, True), (m.count - n_true, else_branch, False)):
            if count and (then or branch is not None):
                self._mask_stack.append(_Mask(m.mask & (pred if then else ~pred), count) if split else m)
                try:
                    branch()
                finally:
                    self._mask_stack.pop()

    def where(self, predicate: LaneValue, a: LaneValue, b: LaneValue) -> np.ndarray:
        """Predicated select: every lane follows one path, no divergence."""
        return np.where(self._lanes(predicate).astype(bool), self._lanes(a), self._lanes(b))

    def barrier(self) -> None:
        """Block-wide synchronization point.

        Legal only when every thread of the block is active; lanes masked off
        by a divergent branch can never arrive, which is the deadlock this
        error models. In a group it counts one barrier per block and starts
        a new interval for shared memory only (README, "Batched blocks").
        """
        m = self._mask_stack[-1]
        if m.count != self.nthreads:
            missing = int(np.argmin(m.mask))
            gid = int(self.global_id[missing])
            raise BarrierDivergence(
                "barrier under a partial mask: some threads of the block cannot reach it",
                **self._err_kw([gid]),
            )
        self._counters().barriers_executed += self._blocks
        self._state.new_interval(shared_only=self._blocks > 1)
        if self._state.observer is not None:
            self._state.observer.on_barrier(self)
        self.step += 1

    # ------------------------------------------------------------------
    # instrumented per-lane arithmetic (each call is one thread step per
    # active lane; masked lanes compute nothing and yield 0)

    def _arith(self, a: LaneValue, b: LaneValue, op: Callable) -> np.ndarray:
        m = self._mask_stack[-1]
        av = self._lanes(a)
        bv = self._lanes(b)
        self._counters().thread_steps += m.count
        if m.count == self.nthreads:
            return op(av, bv)
        sel = m.select(self).sel
        out = np.zeros(self.nthreads, dtype=np.result_type(av, bv))
        out[sel] = op(av[sel], bv[sel])
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

    def launch(self, kernel: Callable, grid_dim, block_dim, args: Sequence = (), shared_mem_bytes: int = 0,
               name: Optional[str] = None) -> None:
        """Launch a child grid from every active lane, in ascending id order.

        Each child grid runs to completion before the launching thread's next
        step; its metrics fold into the current report. In a group it stops
        the group, whose blocks the engine then runs one by one.
        """
        if self._blocks > 1:
            raise _RunAlone
        launchers = self.global_id[self.active].tolist()
        first = launchers[:1]  # the checks below hold for every launcher or none: name the first
        if self._state.depth + 1 >= self._sim.max_nesting_depth:
            raise NestingLimit(
                f"child launch at depth {self._state.depth + 1} reaches the nesting limit "
                f"of {self._sim.max_nesting_depth}",
                **self._err_kw(first),
            )
        child = self._state.child()
        # a raw geometry of plain ints finds its config; True and 1.0 equal 1 but fail the check, so they build one
        key = (grid_dim, block_dim, shared_mem_bytes, self.config.warp_size)
        raw = all(type(v) is int or type(v) is tuple and all(type(w) is int for w in v) for v in key)
        cfg = child.configs.get(key) if raw else None
        if cfg is None:
            try:
                cfg = LaunchConfig(*key)
                cfg.validate(self._sim.max_threads_per_block)
            except LaunchConfigInvalid as e:
                raise LaunchConfigInvalid(f"invalid child launch config: {e.args[0]}", **self._err_kw(first)) from e
            cfg = child.configs.setdefault(cfg, cfg)  # an equal config already built its lane arrays
            if raw:
                child.configs[key] = cfg
        child_args = tuple(a.buffer if isinstance(a, GlobalView) else a for a in args)
        _check_owned(self._state.mem, child_args, lambda: self._err_kw(first))
        for _ in launchers:
            self._counters().child_launches += 1
            child.run_grid(kernel, cfg, child_args, name or kernel.__name__)
        self.step += 1


def _run(ei: np.ndarray, known: bool = False) -> Optional[slice]:
    """``slice(lo, hi + 1, d)`` if the ``n`` indices ``ei`` are ``lo, lo + d, ..., hi`` with ``d >= 1``, else None.

    ``known`` says they are ``lo, lo + 1, ...``. The ends fix ``d``; past two lanes the rest are checked once by a
    compare with ``arange``. ``access.MEMO`` keeps the bytes of each run that passed it, by ``(lo, n, d)``, which
    fix the run: indices with the same bytes are that run.
    """
    lo, n = int(ei[0]), ei.size
    if known or n == 1:
        return slice(lo, lo + n, 1)
    hi = int(ei[-1])
    d, r = divmod(hi - lo, n - 1)
    if d < 1 or r:
        return None
    if n > 2 and access.MEMO.get((lo, n, d)) != (got := ei.tobytes()):
        if np.count_nonzero(ei != np.arange(lo, hi + 1, d)):
            return None
        access.MEMO.add((lo, n, d), got, len(got))
    return slice(lo, hi + 1, d)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: one of the engine's ids, which a kernel must not edit in place."""
    a.flags.writeable = False
    return a


def _check_owned(mem: DeviceMemory, args: Sequence, err_kw: Callable[[], dict] = dict) -> None:
    """Reject a ``Buffer`` that ``mem`` did not allocate: it would share a same-named buffer's race track."""
    for a in args:
        if isinstance(a, Buffer) and mem.buffers.get(a.name) is not a:
            raise SimError(f"buffer {a.name!r} does not belong to this DeviceMemory", **err_kw())


class Simulator:
    """A virtual GPU. Instances are independent and hold no launch state."""

    def __init__(self, *, segment_bytes: int = DEFAULT_SEGMENT_BYTES, bank_count: int = DEFAULT_BANK_COUNT,
                 bank_width_bytes: int = DEFAULT_BANK_WIDTH_BYTES,
                 max_threads_per_block: int = DEFAULT_MAX_THREADS_PER_BLOCK, max_nesting_depth: int = 2):
        for name, value, int64 in (
            ("segment_bytes", segment_bytes, True),  # the access analysis computes with these in int64
            ("bank_count", bank_count, True),
            ("bank_width_bytes", bank_width_bytes, True),
            ("max_threads_per_block", max_threads_per_block, False),
            ("max_nesting_depth", max_nesting_depth, False),
        ):
            if not is_int(value):
                raise ValueError(f"{name}={value!r} must be an integer")
            if value < 1:
                raise ValueError(f"{name}={value} must be positive")
            if int64 and value >= 2**63:
                raise ValueError(f"{name}={value} must be below 2**63")
            setattr(self, name, int(value))

    def launch(self, kernel: Callable, config: LaunchConfig, mem: DeviceMemory, args: Sequence = (), *,
               name: Optional[str] = None, mode: str = "strict", metrics: Optional[MetricsReport] = None,
               recorder: Optional[Recorder] = None) -> MetricsReport:
        """Run one grid to completion; deterministic for identical inputs.

        ``mode`` is "strict" (conflicting unsynchronized accesses abort the
        launch) or "permissive" (they are logged on ``mem.race_warnings`` and
        writes resolve in ascending global thread id order). A ``recorder``
        observes the grid and its child grids: a ``Recorder``, or any object
        with its hooks ``on_access``, ``on_branch`` and ``on_barrier``, which
        the engine calls at each memory instruction, structured branch and
        barrier. Attaching one changes no result, counter or error. A
        kernel marked ``block_batchable`` may run several blocks per call,
        with the same results, counters and errors (README).
        """
        if mode not in ("strict", "permissive"):
            raise ValueError(f"unknown race mode {mode!r}")
        config.validate(self.max_threads_per_block)
        _check_owned(mem, args)
        mem.race_warnings.clear()
        report = metrics if metrics is not None else MetricsReport()
        state = _LaunchState(self, mem, report, mode, 0, recorder)
        try:
            state.run_grid(kernel, config, tuple(args), name or kernel.__name__)
        finally:
            # A kernel's closures can hold its context in a reference cycle
            # that would keep the race arrays alive until the cyclic
            # collector runs.
            state.release()
        return report


def launch_kernel(kernel: Callable, config: LaunchConfig, mem: DeviceMemory, args: Sequence = (),
                  **kwargs) -> MetricsReport:
    """Convenience wrapper: run one launch on a fresh default Simulator."""
    return Simulator().launch(kernel, config, mem, args, **kwargs)
