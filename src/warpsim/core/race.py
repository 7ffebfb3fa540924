"""Race tracking: the conflict state of one global buffer or shared array, as stamped words.

The engine owns the stamps and turns each conflict a track reports into a
``DataRace`` or a permissive warning.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from .errors import _RunAlone

_STALE = np.int64(-1)  # below every interval stamp: "no thread"


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
    store in the interval, cross-block reads for the next store. They
    also stop waiting before they would outnumber the array's elements: they
    are folded, except interval reads of a group that can replay, which are
    forgotten; a store in a forgotten interval raises ``_RunAlone`` before it
    changes a word, and the group's blocks run again one by one. Arrays are
    allocated on first use, so a buffer that is only read never has the
    writer-side ones, and only a track whose conflicting stores land
    (``resolve``, in permissive mode) uses the highest writer.

    A check takes the active lanes' indices into the array (an index array,
    or a slice for a run ``lo, lo + d, ...`` with ``d >= 1``), their global
    thread ids, the interval ``stamp``, the ``shift`` from ids to words and
    the ``block`` stamp (None where blocks cannot conflict); a load also
    takes whether its group can replay.
    Before it changes a word it calls ``fail(conflict, addrs, a, b)``: per
    lane of ``conflict``, word ``a`` against ``b`` (stale: a block).
    """

    def __init__(self, length: int, resolve: bool):
        self.length = length
        self.resolve = resolve
        self.pending_reads: list[tuple] = []  # (addresses, global thread ids)
        self.pending_count = 0  # addresses on pending_reads
        self.pending_stamp = self.store_stamp = 0  # the intervals of the pending reads and of the last store
        self.forgot_stamp = 0  # the last interval whose reads were forgotten
        self.last_run, self.last_tids = None, None  # (interval, slice) and thread ids of the last run read noted
        self.cross_reads: list[tuple] = []  # (addresses, block stamp) not yet folded
        self.cross_read_count = 0  # addresses on cross_reads
        self.reader1 = self.writer1 = self.rb_block1 = self.w_block1 = None  # arrays, from the first fold or store

    def check_read(self, addrs: Any, tids: np.ndarray, stamp: int, shift: int, block: Optional[int],
                   fail: Callable, replay: bool) -> None:
        """Check a load: conflicts with this interval's writers, then with other blocks' stores."""
        if self.store_stamp == stamp:
            st = tids + shift
            other = _other(self.writer1, self.writer2, addrs, st)
            fail(other >= stamp, addrs, st, other)
        if block is not None and self.w_block1 is not None:
            fail(self.w_block1[addrs] < block, addrs, tids + shift, _STALE)
        self.defer_read(addrs, tids, stamp, shift, block, replay)

    def check_write(self, addrs: Any, tids: np.ndarray, stamp: int, shift: int, block: Optional[int],
                    fail: Callable) -> Optional[np.ndarray]:
        """Check a store, then note it; returns the per-lane apply mask, or None if every lane applies.

        A conflict names the earliest other writer in the interval, else the
        earliest other reader. In a resolving track a lane's write lands only
        if no higher-id thread wrote the address in the interval, so
        conflicting writes resolve in ascending global id order.
        """
        if self.forgot_stamp == stamp:
            raise _RunAlone
        st = tids + shift
        self.begin_store(stamp, shift, block is not None)
        u_addr, rep, nxt = (addrs, st, _STALE) if isinstance(addrs, slice) else _distinct(addrs, st)
        seen = self.store_stamp == stamp  # only then can a writer word be of this interval
        other = _other(self.writer1, self.writer2, addrs, st) if seen else _STALE
        if self.pending_stamp == stamp:  # and only then a reader word
            other = np.where(other >= stamp, other, _other(self.reader1, self.reader2, addrs, st))
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
        self.store_stamp = stamp
        if block is not None:
            _fold(np.minimum, self.w_block1, addrs, block)
        return eff

    def defer_read(self, addrs: Any, tids: np.ndarray, stamp: int, shift: int, block: Optional[int],
                   replay: bool) -> None:
        """Buffer a read of this interval and, given a block stamp, of the grid.

        Before the waiting reads of the interval would outnumber the elements,
        they are folded, or forgotten with the interval's later reads if the
        group can ``replay``. Cross-block reads outlive a group: always folded.
        """
        if self.pending_stamp != stamp:
            self.pending_reads, self.pending_count, self.pending_stamp = [], 0, stamp
        if self.pending_count + tids.size > self.length:
            if replay:
                self.pending_reads, self.pending_count, self.forgot_stamp = [], 0, stamp
            else:
                self.note_reads(stamp, shift)
        if self.forgot_stamp != stamp:
            self.pending_reads.append((addrs, tids))
            self.pending_count += tids.size
        if block is not None:
            if self.cross_read_count + tids.size > self.length:
                self.fold_cross_reads()
            self.cross_reads.append((addrs, block))
            self.cross_read_count += tids.size
            if self.cross_read_count > self.length:
                self.fold_cross_reads()

    def fold_cross_reads(self) -> None:
        """Fold the deferred cross-block reads into the first-reader array, allocated by the first fold."""
        if not self.cross_reads:
            return
        if self.rb_block1 is None:
            self.rb_block1 = np.zeros(self.length, dtype=np.int64)
        for addrs, block in self.cross_reads:
            _fold(np.minimum, self.rb_block1, addrs, block)
        self.cross_reads.clear()
        self.cross_read_count = 0

    def note_reads(self, stamp: int, shift: int) -> None:
        """Note the pending reads of interval ``stamp`` in the reader arrays (``shift`` stamps their ids)."""
        if self.reader1 is None:
            self.reader1, self.reader2 = np.zeros(self.length, dtype=np.int64), np.zeros(self.length, dtype=np.int64)
        if self.pending_stamp == stamp:
            for addrs, tids in self.pending_reads:
                run = isinstance(addrs, slice)
                if run and self.last_run == (stamp, addrs) and self.last_tids is tids:
                    continue  # the lanes of the last run noted read it again: it holds their words already
                st = tids + shift
                _note(self.reader1, self.reader2, *((addrs, st, _STALE) if run else _distinct(addrs, st)), stamp)
                if run:
                    self.last_run, self.last_tids = (stamp, addrs), tids
        self.pending_reads.clear()
        self.pending_count = 0

    def begin_store(self, stamp: int, shift: int, cross_block: bool) -> None:
        """Allocate the writer-side arrays if needed, then fold in pending reads."""
        if self.writer1 is None:
            self.writer1, self.writer2, self.writer_max = (np.zeros(self.length, dtype=np.int64) for _ in range(3))
        if cross_block:
            if self.w_block1 is None:
                self.w_block1 = np.zeros(self.length, dtype=np.int64)
            self.fold_cross_reads()
        self.note_reads(stamp, shift)


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

    ``seen`` False says that the pair holds no word of the interval yet."""
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
