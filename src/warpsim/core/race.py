"""Race tracking: the conflict state of one global buffer or shared array, as stamped words.

The engine owns the stamps and turns each conflict a track reports into a
``DataRace`` or a permissive warning.
"""

from __future__ import annotations

from math import gcd
from typing import Any, Callable, Optional

import numpy as np

from .errors import _RunAlone

_STALE = np.int64(-1)  # below every interval stamp: "no thread"
_MEETS = 8  # the most earlier accesses of an interval that a run is tested against


class _RaceTrack:
    """Conflict bookkeeping for one address space, reused for a whole launch.

    Per address, interval state keeps the first writer, the first writer
    distinct from it, the same pair for readers and the highest writer, each
    as a word ``stamp + group-local thread id``. The stamp of a global
    buffer is ``_LaunchState.stamp``, raised at each group start; that of
    shared memory is ``_LaunchState.shared_stamp``, raised at each group start
    and barrier. A raised stamp lies past every earlier word, so a word below
    it means "no thread". Cross-block state keeps the lowest block stamp to
    read and to write each address. A block or group's is its last block's,
    and blocks run in ascending order, so a word below it is an earlier
    block's; a grid's block stamps lie below every earlier grid's, so
    ``np.minimum`` takes a stale one for "no block yet". Nothing is reset.

    Reads wait until a store to the space needs them: interval reads for a
    store in the interval that may meet them, cross-block reads for the next
    store. Interval reads also stop waiting before they would outnumber the
    array's elements: they are folded, except those of a group that can
    replay, which are forgotten; a store in a forgotten interval raises
    ``_RunAlone`` before it changes a word, and the group's blocks run again
    one by one. Cross-block reads are folded once they outnumber the elements.
    Arrays are allocated on first use, so a buffer that is only read never has
    the writer-side ones, and only a track whose conflicting stores land
    (``resolve``, in permissive mode) uses the highest writer.

    A store of a run leaves the interval's reads waiting and gathers no
    interval word when none of the interval's accesses can meet it: no read
    is folded yet, and each earlier store and waiting read is the same run
    by the same lanes or a run with no common index (``_apart``); a load of a
    run skips the writer words on the same test against the stores. Every
    interval word at its addresses is then its own lane's, so the verdict and
    the thread a conflict names are those of the full check, and waiting
    reads fold, in order, at the first store that may meet them.

    A check takes the active lanes' indices into the array (an index array,
    or a slice for a run ``lo, lo + d, ...`` with ``d >= 1``), their global
    thread ids, the interval ``stamp``, the ``shift`` from ids to words and
    the ``block`` stamp (None where blocks cannot conflict); a load also
    takes whether its group can replay. Before it changes a word it calls
    ``fail(conflict, addrs, a, b)``: per lane of ``conflict``, word ``a``
    against ``b`` (stale: a block).
    """

    def __init__(self, length: int, resolve: bool):
        self.length = length
        self.resolve = resolve
        self.stamp = 0  # the interval of the state below
        self.pending_reads: list[tuple] = []  # (addresses, global thread ids)
        self.pending_count = 0  # addresses on pending_reads
        self.stores: list[tuple] = []  # (run or None, global thread ids), up to _MEETS + 1
        self.folded = self.forgot = False  # whether reads were folded, or forgotten
        self.cross_reads: list[tuple] = []  # (addresses, block stamp) not yet folded
        self.cross_read_count = 0  # addresses on cross_reads
        self.reader1 = self.writer1 = self.rb_block1 = self.w_block1 = None  # arrays, from the first fold or store

    def enter(self, stamp: int) -> None:
        """Make ``stamp`` the interval of the track: the reads and stores of an earlier one are stale."""
        if self.stamp != stamp:
            self.stamp, self.pending_reads, self.pending_count, self.stores = stamp, [], 0, []
            self.folded = self.forgot = False

    def check_read(self, addrs: Any, tids: np.ndarray, stamp: int, shift: int, block: Optional[int],
                   fail: Callable, replay: bool) -> None:
        """Check a load against this interval's writers, then other blocks' stores; then let it wait.

        Before the waiting reads of the interval would outnumber the elements,
        they are folded, or forgotten with the interval's later reads if the
        group can ``replay``. Cross-block reads outlive a group: they are
        folded, never forgotten, as soon as they outnumber the elements.
        """
        self.enter(stamp)
        if self.stores and not _apart(addrs, tids, self.stores):
            st = tids + shift
            other = _other(self.writer1, self.writer2, addrs, st)
            fail(other >= stamp, addrs, st, other)
        if block is not None and self.w_block1 is not None:
            fail(self.w_block1[addrs] < block, addrs, tids + shift, _STALE)
        if self.pending_count + tids.size > self.length:
            if replay:
                self.pending_reads, self.pending_count, self.forgot = [], 0, True
            else:
                self.note_reads(shift)
        if not self.forgot:
            self.pending_reads.append((addrs, tids))
            self.pending_count += tids.size
        if block is not None:
            self.cross_reads.append((addrs, block))
            self.cross_read_count += tids.size
            if self.cross_read_count > self.length:
                self.fold_cross_reads()

    def check_write(self, addrs: Any, tids: np.ndarray, stamp: int, shift: int, block: Optional[int],
                    fail: Callable) -> Optional[np.ndarray]:
        """Check a store, then note it; returns the per-lane apply mask, or None if every lane applies.

        A conflict names the earliest other writer in the interval, else the
        earliest other reader. In a resolving track a lane's write lands only
        if no higher-id thread wrote the address in the interval, so
        conflicting writes resolve in ascending global id order.
        """
        self.enter(stamp)
        if self.forgot:
            raise _RunAlone
        if self.writer1 is None:
            self.writer1, self.writer2, self.writer_max = (np.zeros(self.length, dtype=np.int64) for _ in range(3))
        if block is not None:
            if self.w_block1 is None:
                self.w_block1 = np.zeros(self.length, dtype=np.int64)
            self.fold_cross_reads()
        st = tids + shift
        clear = not self.folded and _apart(addrs, tids, self.stores + self.pending_reads)
        if clear:  # no other thread's word of the interval at these addresses
            u_addr, rep, nxt, other, seen = addrs, st, _STALE, _STALE, False
        else:
            self.note_reads(shift)
            u_addr, rep, nxt = (addrs, st, _STALE) if isinstance(addrs, slice) else _distinct(addrs, st)
            seen = bool(self.stores)  # only then can a writer word be of this interval
            other = _other(self.writer1, self.writer2, addrs, st) if seen else _STALE
            if self.folded:  # and only then a reader word
                other = np.where(other >= stamp, other, _other(self.reader1, self.reader2, addrs, st))
        if block is not None or not clear:
            conflict = other >= stamp
            if block is not None:
                conflict = conflict | (self.w_block1[addrs] < block)
                if self.rb_block1 is not None:  # some block's reads are folded
                    conflict |= self.rb_block1[addrs] < block
            fail(conflict, addrs, st, other)
        if isinstance(nxt, np.ndarray):  # two lanes of this store to one address
            fail(nxt >= stamp, u_addr, rep, nxt)

        eff = None
        if self.resolve:
            eff = self.writer_max[addrs] <= st
            _fold(np.maximum, self.writer_max, addrs, st)
        _note(self.writer1, self.writer2, u_addr, rep, nxt, stamp, seen)
        if len(self.stores) <= _MEETS:
            self.stores.append((addrs if isinstance(addrs, slice) else None, tids))
        if block is not None:
            _fold(np.minimum, self.w_block1, addrs, block)
        return eff

    def fold_cross_reads(self) -> None:
        """Fold the deferred cross-block reads into the first-reader array, allocated by the first fold."""
        for addrs, block in self.cross_reads:
            if self.rb_block1 is None:
                self.rb_block1 = np.zeros(self.length, dtype=np.int64)
            _fold(np.minimum, self.rb_block1, addrs, block)
        self.cross_reads.clear()
        self.cross_read_count = 0

    def note_reads(self, shift: int) -> None:
        """Fold the pending reads into the reader arrays (``shift`` stamps their ids)."""
        for addrs, tids in self.pending_reads:
            if self.reader1 is None:
                self.reader1, self.reader2 = (np.zeros(self.length, dtype=np.int64) for _ in range(2))
            self.folded = True
            st = tids + shift
            run = isinstance(addrs, slice)
            _note(self.reader1, self.reader2, *((addrs, st, _STALE) if run else _distinct(addrs, st)), self.stamp)
        self.pending_reads.clear()
        self.pending_count = 0


def _apart(addrs: Any, tids: np.ndarray, accesses: list) -> bool:
    """Whether the run ``addrs`` of lanes ``tids`` meets no other thread's word of ``accesses``, (run, lanes) each.

    Exact, in O(1) a pair: either the same run by the same lanes (each lane
    meets its own word), or two runs with no common index, by range or by
    residue (the GCD test). An index array, or more than ``_MEETS`` accesses,
    is not tested: it may meet one.
    """
    if not isinstance(addrs, slice) or len(accesses) > _MEETS:
        return False
    for run, lanes in accesses:
        if not isinstance(run, slice):
            return False
        if (run != addrs or lanes is not tids) and max(run.start, addrs.start) < min(run.stop, addrs.stop) \
                and (run.start - addrs.start) % gcd(run.step, addrs.step) == 0:
            return False
    return True


def _fold(ufunc: np.ufunc, words: np.ndarray, addrs: Any, values: Any) -> None:
    """``ufunc.at(words, addrs, values)``; in place on the view of a run, whose addresses are distinct."""
    if isinstance(addrs, slice):
        view = words[addrs]
        ufunc(view, values, out=view)
    else:
        ufunc.at(words, addrs, values)


def _distinct(addrs: np.ndarray, st: np.ndarray) -> tuple[np.ndarray, np.ndarray, Any]:
    """Distinct addresses with the stamps of their first and second lanes (stale for a single lane).

    Lane addresses are usually distinct, and often ascend; then the second
    stamps are one stale scalar. Addresses that never descend skip the sort:
    the lanes of each address already follow one another in lane order.
    ``addrs`` is the engine's own array, never one the kernel holds, so the
    strictly ascending case may return it as is.
    """
    if bool((addrs[1:] >= addrs[:-1]).all()):
        a, s = addrs, st
    else:
        order = np.argsort(addrs, kind="stable")
        a, s = addrs[order], st[order]
    new = a[1:] != a[:-1]
    if new.all():
        return a, s, _STALE
    head = np.flatnonzero(np.concatenate(([True], new)))
    # per lane, the stamp of the next lane if that lane has the same address
    second = np.concatenate((np.where(new, _STALE, s[1:]), [_STALE]))
    return a[head], s[head], second[head]


def _note(first: np.ndarray, second: np.ndarray, addrs, rep, nxt, stamp: int, seen: bool = True) -> None:
    """Record distinct ``addrs`` accessed by lanes stamped ``rep`` (and ``nxt``) in a pair of interval arrays.

    ``seen`` False says that the pair holds no other thread's word of the interval at ``addrs``."""
    if seen:
        f = first[addrs]
        fresh = f >= stamp
        if np.count_nonzero(fresh):
            first[addrs] = np.where(fresh, f, rep)
            s = second[addrs]
            second[addrs] = np.where(s >= stamp, s, np.where(fresh & (f != rep), rep, nxt))
            return
    # the interval's first accesses to all of them: a second word is stale where the first one is
    first[addrs] = rep
    if isinstance(nxt, np.ndarray):
        second[addrs] = nxt


def _other(first: np.ndarray, second: np.ndarray, addrs: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Per lane, the stamp of the earliest other thread in a pair of interval arrays, or a stale word."""
    f = first[addrs]
    return np.where(f == st, second[addrs], f)
