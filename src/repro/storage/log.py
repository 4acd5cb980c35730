"""Replicated write-ahead log manager: the §5 storage API.

Implements the three log verbs the paper's case studies are built on,
over either group implementation (HyperLoop or Naïve-RDMA):

* :meth:`ReplicatedLog.append` — ``Append(log record)``: serialize a
  redo record, replicate it into every replica's WAL ring with
  gWRITE(+gFLUSH), then advance the replicated tail pointer.
* :meth:`ReplicatedLog.execute_and_advance` —
  ``ExecuteAndAdvance()``: process the record at the head entry by
  entry, issuing a gMEMCPY (+gFLUSH) per entry to copy it from the
  log into the database area on all replicas, then advance the
  replicated head with a gWRITE (§5, "Log Processing").
* :meth:`ReplicatedLog.truncate` — drop everything up to a logical
  offset by advancing the head (log truncation after a checkpoint).

The client keeps an authoritative local copy of the region (the
group's ``client_region``), so record contents never need to be read
back over the network.
"""

from __future__ import annotations

import struct
from typing import Generator, Iterator, List, Optional, Tuple

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

    def _write_header_local(self) -> None:
        self.group.write_local(
            self.layout.head_offset, struct.pack("<QQ", self.head, self.tail)
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
        # Pair acquire/release on one object: failover may swap
        # self._mutex while an appender is parked on a dead chain's
        # ack, and its eventual unwind must release the mutex it took.
        mutex = self._mutex
        yield from task.wait(mutex.acquire())
        try:
            record = yield from self._append_locked(task, changes)
        finally:
            mutex.release()
        return record

    def _append_locked(self, task: Task, changes: List[Tuple[int, bytes]]) -> Generator:
        record = LogRecord.make(self.next_lsn, changes)
        raw = record.serialize()
        if len(raw) > self.layout.wal_size // 2:
            raise ValueError("record too large for the WAL ring")
        room = self.layout.contiguous_room(self.tail)
        if len(raw) > room:
            # Stamp a wrap marker and skip to the ring start.
            marker_offset = self.layout.wal_position(self.tail)
            self.group.write_local(marker_offset, struct.pack("<I", WRAP_MAGIC))
            yield from self.group.gwrite(task, marker_offset, 4)
            self.tail += room
        if self.tail + len(raw) - self.head > self.layout.wal_size:
            raise RuntimeError(
                "WAL full: execute_and_advance/truncate has not kept up"
            )
        offset = self.layout.wal_position(self.tail)
        self.group.write_local(offset, raw)
        yield from self.group.gwrite(task, offset, len(raw))
        self.tail += len(raw)
        self.next_lsn += 1
        yield from self._replicate_header(task)
        return record

    def execute_and_advance(self, task: Task) -> Generator:
        """Execute the record at the head on all replicas; returns it
        (or ``None`` if the log is empty)."""
        # Local capture for the same reason as append(): release the
        # mutex actually acquired even if failover swapped self._mutex.
        mutex = self._mutex
        yield from task.wait(mutex.acquire())
        try:
            record = yield from self._execute_locked(task)
        finally:
            mutex.release()
        return record

    def _execute_locked(self, task: Task) -> Generator:
        head = self.head_record()
        if head is None:
            return None
        logical, record = head
        for entry in record.entries:
            src = self.layout.wal_position(logical) + self._entry_data_offset(
                record, entry
            )
            dst = self.layout.db_position(entry.db_offset)
            # Keep the client's mirror in sync (it is the source of
            # truth for rebuilding after replica failures).
            self.group.write_local(
                dst, self.group.client_region.read(src, entry.length)
            )
            yield from self.group.gmemcpy(task, src, dst, entry.length)
        self.head = logical + record.serialized_size
        yield from self._replicate_header(task)
        return record

    def truncate(self, task: Task, up_to: Optional[int] = None) -> Generator:
        """Advance the head past executed records (≤ ``up_to``,
        default: everything)."""
        target = self.tail if up_to is None else up_to
        if not self.head <= target <= self.tail:
            raise ValueError(f"truncate target {target} outside [{self.head}, {self.tail}]")
        self.head = target
        yield from self._replicate_header(task)

    def _replicate_header(self, task: Task) -> Generator:
        self._write_header_local()
        yield from self.group.gwrite(task, self.layout.head_offset, 16)

    @staticmethod
    def _entry_data_offset(record: LogRecord, entry) -> int:
        """Byte offset of an entry's data inside the serialized record."""
        cursor = HEADER_SIZE
        for candidate in record.entries:
            cursor += ENTRY_SIZE
            if candidate is entry:
                return cursor
            cursor += candidate.length
        raise ValueError("entry not in record")

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
