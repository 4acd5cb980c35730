"""Replicated write-ahead log manager: the §5 storage API.

Implements the three log verbs the paper's case studies are built on,
over either group implementation (HyperLoop or Naïve-RDMA):

* :meth:`ReplicatedLog.append` — ``Append(log record)``: serialize a
  redo record and replicate it into every replica's WAL ring with
  gWRITE(+gFLUSH), the replicated tail pointer right behind it.
* :meth:`ReplicatedLog.execute_and_advance` —
  ``ExecuteAndAdvance()``: process the record at the head, issuing a
  gMEMCPY (+gFLUSH) per entry to copy it from the log into the
  database area on all replicas, then advance the replicated head
  with a gWRITE (§5, "Log Processing"). :meth:`ReplicatedLog.drain`
  does the same for every pending record at once.
* :meth:`ReplicatedLog.truncate` — drop everything up to a logical
  offset by advancing the head (log truncation after a checkpoint).

Group ops are *posted, then waited for* (``group.submit``), and what
the hardware already orders is not waited for twice. The rule: **ops
on the same primitive chain of one group execute and ack in post
order** (one RC queue pair per chain), **ops on different chains are
unordered**. So a record and the header whose tail covers it go out
back to back on the gWRITE chain and cost one round trip, a record's
gMEMCPYs go out back to back and cost one more, and only the
cross-chain dependencies wait for an ack: gMEMCPY after the record's,
head advance after the gMEMCPYs'. ``append_beside``/``drain`` let a
caller's own ops (the §5 lock and unlock gCAS) share those waits.

The client keeps an authoritative local copy of the region (the
group's ``client_region``), so record contents never need to be read
back over the network. Its ``head``/``tail``/``next_lsn`` are
authoritative too and survive a failover unchanged, so ``tail`` moves
only once the whole chain has acked the record and its header — and
every header write happens under the WAL mutex, because one posted
behind an in-flight append's would carry the old tail.
"""

from __future__ import annotations

import struct
from typing import Generator, Iterator, List, Optional, Sequence, Tuple

from ..core.chain import GMEMCPY, GWRITE, OpSpec
from ..hw.cpu import Task
from ..sim import Resource
from .wal import ENTRY_SIZE, HEADER_SIZE, LogRecord, RegionLayout, WRAP_MAGIC, scan_records

__all__ = ["ReplicatedLog"]


class ReplicatedLog:
    """Client-side manager of a replicated WAL + database region.

    Parameters
    ----------
    group:
        A :class:`~repro.core.group.HyperLoopGroup` or
        :class:`~repro.baseline.naive.NaiveGroup` whose region is at
        least ``layout.region_size`` bytes.
    layout:
        The region layout (WAL size, DB size).
    """

    def __init__(self, group, layout: RegionLayout):
        if layout.region_size > group.region_size:
            raise ValueError(
                f"layout needs {layout.region_size} bytes, "
                f"group region is {group.region_size}"
            )
        self.group = group
        self.layout = layout
        self.head = 0  # logical offsets, monotonic
        self.tail = 0
        self.next_lsn = 0
        # Appends and head advances are serialized, as in any WAL
        # implementation (RocksDB holds a mutex across log writes);
        # concurrent application threads queue here.
        self._mutex = Resource(group.sim, capacity=1, name="wal.mutex")
        self._write_header_local()

    # -- local mirror helpers ----------------------------------------------------

    def _write_header_local(self, tail: Optional[int] = None) -> None:
        if tail is None:
            tail = self.tail
        self.group.write_local(
            self.layout.head_offset, struct.pack("<QQ", self.head, tail)
        )

    def _scan_pending(self) -> Iterator[Tuple[int, LogRecord]]:
        """Lazy scan of ``[head, tail)`` over a zero-copy view of the
        local mirror's WAL area; consume it before the next yield."""
        layout = self.layout
        raw = self.group.client_region.read_view(layout.wal_offset, layout.wal_size)
        return scan_records(raw, self.head, self.tail, layout.wal_size)

    def pending_records(self) -> List[Tuple[int, LogRecord]]:
        """Un-executed records ``[head, tail)`` from the local mirror."""
        return list(self._scan_pending())

    def head_record(self) -> Optional[Tuple[int, LogRecord]]:
        """``(logical_offset, record)`` at the head, ``None`` if nothing
        is pending. Decodes one record however many are pending."""
        return next(self._scan_pending(), None)

    # -- the three verbs ------------------------------------------------------------

    def append(self, task: Task, changes: List[Tuple[int, bytes]]) -> Generator:
        """Replicate one redo record; returns its :class:`LogRecord`.

        ``changes`` are ``(db_offset, data)`` pairs. Durability
        follows the group's ``durable`` setting (gFLUSH interleaved).
        """
        record, _ = yield from self.append_beside(task, changes, ())
        return record

    def append_beside(
        self, task: Task, changes: List[Tuple[int, bytes]], ops: Sequence[OpSpec]
    ) -> Generator:
        """:meth:`append` with ``ops`` posted behind the record and
        awaited in the same round trip (the §5 recipe posts its lock
        gCAS here). Returns ``(record, [result of each op])``."""
        # Pair acquire/release on one object: failover may swap
        # self._mutex while an appender is parked on a dead chain's
        # ack, and its eventual unwind must release the mutex it took.
        mutex = self._mutex
        yield from task.wait(mutex.acquire())
        try:
            return (yield from self._append_locked(task, changes, ops))
        finally:
            mutex.release()

    def _append_locked(
        self, task: Task, changes: List[Tuple[int, bytes]], ops: Sequence[OpSpec]
    ) -> Generator:
        record = LogRecord.make(self.next_lsn, changes)
        raw = record.serialize()
        layout = self.layout
        if len(raw) > layout.wal_size // 2:
            raise ValueError("record too large for the WAL ring")
        room = layout.contiguous_room(self.tail)
        skip = room if len(raw) > room else 0
        start = self.tail + skip
        new_tail = start + len(raw)
        if new_tail - self.head > layout.wal_size:
            raise RuntimeError(
                "WAL full: execute_and_advance/truncate has not kept up"
            )
        # [Wrap marker,] record and the header whose tail covers it go
        # out back to back: the gWRITE chain executes in post order on
        # every replica, so no replica ever holds the new tail without
        # the record under it.
        posts = []
        if skip:
            # Stamp a wrap marker and skip to the ring start.
            marker_offset = layout.wal_position(self.tail)
            self.group.write_local(marker_offset, struct.pack("<I", WRAP_MAGIC))
            posts.append(OpSpec(GWRITE, offset=marker_offset, size=4))
        offset = layout.wal_position(start)
        self.group.write_local(offset, raw)
        posts.append(OpSpec(GWRITE, offset=offset, size=len(raw)))
        posts.append(self._header_op(tail=new_tail))
        results = yield from self._post_and_wait(task, [*posts, *ops])
        # The client's tail never covers bytes the whole chain has not
        # acked: failover keeps head/tail/next_lsn and rebuilds the
        # mirror from a survivor, which may hold none of what an
        # appender abandoned on the dead chain's ack had in flight.
        self.tail = new_tail
        self.next_lsn += 1
        return record, results[len(posts) :]

    def execute_and_advance(self, task: Task) -> Generator:
        """Execute the record at the head on all replicas; returns it
        (or ``None`` if the log is empty)."""
        # Local capture for the same reason as append(): release the
        # mutex actually acquired even if failover swapped self._mutex.
        mutex = self._mutex
        yield from task.wait(mutex.acquire())
        try:
            head = self.head_record()
            if head is None:
                return None
            yield from self._execute_locked(task, [head], ())
            return head[1]
        finally:
            mutex.release()

    def drain(self, task: Task, beside: Sequence[OpSpec] = ()) -> Generator:
        """Execute every pending record in order, advancing the head
        once. ``beside`` ops are posted with the head advance and
        awaited in the same round trip (the §5 recipe posts its unlock
        gCAS here). Returns ``(records executed, [result of each op])``.
        """
        if self.head == self.tail and not beside:
            return 0, []
        mutex = self._mutex
        yield from task.wait(mutex.acquire())
        try:
            pending = self.pending_records()
            results = yield from self._execute_locked(task, pending, beside)
            return len(pending), results
        finally:
            mutex.release()

    def _execute_locked(
        self, task: Task, records: List[Tuple[int, LogRecord]], beside: Sequence[OpSpec]
    ) -> Generator:
        layout = self.layout
        copies = []
        for logical, record in records:
            src = layout.wal_position(logical) + HEADER_SIZE
            for entry in record.entries:
                src += ENTRY_SIZE
                dst = layout.db_position(entry.db_offset)
                # Keep the client's mirror in sync (it is the source of
                # truth for rebuilding after replica failures).
                self.group.write_local(dst, entry.data)
                copies.append(
                    OpSpec(GMEMCPY, src_offset=src, dst_offset=dst, size=entry.length)
                )
                src += entry.length
        # The copies share the gMEMCPY chain (ordered among themselves)
        # but the head advance rides the gWRITE chain: it is posted
        # only after every copy's ack.
        yield from self._post_and_wait(task, copies)
        posts = []
        if records:
            logical, record = records[-1]
            self.head = logical + record.serialized_size
            posts.append(self._header_op())
        results = yield from self._post_and_wait(task, [*posts, *beside])
        return results[len(posts) :]

    def truncate(self, task: Task, up_to: Optional[int] = None) -> Generator:
        """Advance the head past executed records (≤ ``up_to``,
        default: everything)."""
        # Under the mutex like every header write: an append in flight
        # has staged a tail this header must not post behind and undo.
        mutex = self._mutex
        yield from task.wait(mutex.acquire())
        try:
            target = self.tail if up_to is None else up_to
            if not self.head <= target <= self.tail:
                raise ValueError(
                    f"truncate target {target} outside [{self.head}, {self.tail}]"
                )
            self.head = target
            yield from self._post_and_wait(task, [self._header_op()])
        finally:
            mutex.release()

    def _header_op(self, tail: Optional[int] = None) -> OpSpec:
        """Stage the head and ``tail`` (default: the current one)
        locally; returns the gWRITE replicating them."""
        self._write_header_local(tail)
        return OpSpec(GWRITE, offset=self.layout.head_offset, size=16)

    def _post_and_wait(self, task: Task, ops: Sequence[OpSpec]) -> Generator:
        """Post ``ops`` back to back, wait once for all their acks;
        returns their results in post order."""
        if not ops:
            return []
        acks = []
        for op in ops:
            acks.append((yield from self.group.submit(task, op)))
        yield from task.wait(self.group.sim.all_of(acks))
        return [ack.value for ack in acks]

    # -- recovery ---------------------------------------------------------------------

    @staticmethod
    def recover_replica(group, layout: RegionLayout, replica: int) -> List[LogRecord]:
        """Read a replica's durable state and return the un-executed
        records its WAL holds — what a recovery protocol would replay.

        Reads head/tail from the replica's (NVM) header, then scans
        its WAL area. Records that were torn by a power failure are
        excluded by the magic/bounds checks.
        """
        header = group.read_replica(replica, layout.head_offset, 16)
        head, tail = struct.unpack("<QQ", header)
        raw = group.read_replica(replica, layout.wal_offset, layout.wal_size)
        return [record for _, record in scan_records(raw, head, tail, layout.wal_size)]
