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

Appends are **group-committed**, leader/follower as in RocksDB's
write path. An appender queues its record at the WAL mutex and then
takes the mutex; whoever gets it with its record still unwritten is
the *leader* and writes everything queued behind it as well: the
records laid out back to back from ``tail`` (consecutive LSNs, each
with its own header and CRC, a wrap marker where one does not fit the
contiguous room), adjacent ones merged into one gWRITE, then one
header whose tail covers the batch, then every member's ``beside``
ops — posted back to back, one ack wait. A *follower* that reaches
the mutex finds its record written and returns. A batch is whatever
queued while the previous one was in flight, so there is nothing to
tune — no batch size, no linger timer — and a lone appender is a batch
of one that posts exactly ``[marker,] record, header, beside ops``.
The durability point does not move: an append returns only after its
record and a header whose tail covers it are gWRITE(+gFLUSH)ed on
every replica. A batch stops at the first waiter that is not an
appender (``drain``, ``truncate``, :meth:`ReplicatedLog.cut`), so
whoever holds the mutex sees a log in which every record under
``tail`` has been handed back to its appender.

The client keeps an authoritative local copy of the region (the
group's ``client_region``), so record contents never need to be read
back over the network. Its ``head``/``tail``/``next_lsn`` are
authoritative too and survive a failover unchanged, so ``tail`` and
``next_lsn`` move only once the whole chain has acked the whole batch
and its header — and every header write happens under the WAL mutex,
because one posted behind an in-flight append's would carry the old
tail.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Deque, Generator, Iterator, List, Optional, Sequence, Tuple

from ..core.chain import GMEMCPY, GWRITE, OpSpec
from ..hw.cpu import Task
from ..obs.trace import TRACER
from ..sim import Resource
from .wal import ENTRY_SIZE, HEADER_SIZE, LogRecord, RegionLayout, WRAP_MAGIC, scan_records

__all__ = ["ReplicatedLog"]


class _Append:
    """One append queued at the WAL mutex. The leader that writes it
    fills in ``result`` — ``(record, beside results)`` — or ``error``."""

    __slots__ = ("changes", "ops", "result", "error")

    def __init__(self, changes: List[Tuple[int, bytes]], ops: Sequence[OpSpec]):
        self.changes = changes
        self.ops = ops
        self.result: Optional[Tuple[LogRecord, list]] = None
        self.error: Optional[Exception] = None

    @property
    def settled(self) -> bool:
        return self.result is not None or self.error is not None


class _Gate:
    """The WAL mutex and, in the order they queued at it, its takers:
    an :class:`_Append` per appender, ``None`` for anyone else."""

    __slots__ = ("mutex", "queue")

    def __init__(self, sim):
        self.mutex = Resource(sim, capacity=1, name="wal.mutex")
        self.queue: Deque[Optional[_Append]] = deque()


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
        # concurrent application threads queue here, and the appenders
        # among them ride one leader's write.
        self._gate = _Gate(group.sim)
        self._write_header_local()

    def rebind(self, new_group) -> None:
        """Point the log at the group a failover built.

        ``head``/``tail``/``next_lsn`` stay: they cover exactly what
        the dead chain acked. The mutex and its queue are replaced
        wholesale — a leader parked forever on the dead chain's ack
        holds the old mutex, and its batch and whoever queued behind
        it are zombies whose records ``tail`` never covered.
        """
        self.group = new_group
        self._gate = _Gate(new_group.sim)

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

    # -- the WAL mutex -------------------------------------------------------------

    def _enter(self, task: Task, entry: Optional[_Append] = None) -> Generator:
        """Queue at the WAL mutex and take it; returns the gate whose
        mutex the caller releases.

        Acquire and release pair on one captured gate: failover may
        swap ``self._gate`` while the holder is parked on a dead
        chain's ack, and its eventual unwind must release the mutex it
        took. A non-appender queues ``None``, which ends the batch of
        any leader ahead of it: the mutex is FIFO, so everything ahead
        of a taker in the queue is gone by the time it is granted.
        """
        gate = self._gate
        gate.queue.append(entry)
        yield from task.wait(gate.mutex.acquire())
        if gate is not self._gate:
            # A zombie's unwind released the dead chain's mutex to us:
            # pass it on and touch nothing of the rebound log.
            gate.mutex.release()
            raise RuntimeError("the WAL was rebound while this task waited for it")
        if entry is None:
            gate.queue.popleft()
        return gate

    def cut(self, task: Task) -> Generator:
        """Wait out the appends ahead of the caller; returns
        ``(last LSN, tail)`` of a consistent cut.

        Every record below the returned tail has been handed back to
        its appender, which has run on to its next yield, and nothing
        above it has been written — true until the caller next yields
        (a checkpoint snapshots its in-memory state in that step).
        """
        gate = yield from self._enter(task)
        gate.mutex.release()
        return self.next_lsn - 1, self.tail

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
        entry = _Append(changes, ops)
        gate = yield from self._enter(task, entry)
        try:
            if not entry.settled:
                yield from self._lead(task, gate.queue)
        finally:
            gate.mutex.release()
        if entry.error is not None:
            raise entry.error
        return entry.result

    def _lead(self, task: Task, queue: Deque[Optional[_Append]]) -> Generator:
        """Write the run of appends at the front of ``queue`` — the
        caller's first — as one batch and settle every member."""
        batch = []
        while queue and queue[0] is not None:
            batch.append(queue.popleft())
        try:
            yield from self._write_batch(task, batch)
        except BaseException as exc:
            # Nobody stays parked on a batch that will not be acked,
            # and nothing of it is under the tail.
            if isinstance(exc, Exception):
                error = exc
            else:  # the leader's generator was closed under it
                error = RuntimeError("WAL append abandoned by the leader of its batch")
            for member in batch:
                if not member.settled:
                    member.error = error
            raise

    def _write_batch(self, task: Task, batch: List[_Append]) -> Generator:
        """Lay ``batch`` out from the tail, post it with one header
        and every member's ops, wait once, then move the tail."""
        layout = self.layout
        group = self.group
        tail, lsn = self.tail, self.next_lsn
        extents: List[List[int]] = []  # [region offset, size], adjacent runs merged
        written = []

        def stage(offset: int, data: bytes) -> None:
            group.write_local(offset, data)
            if extents and extents[-1][0] + extents[-1][1] == offset:
                extents[-1][1] += len(data)
            else:
                extents.append([offset, len(data)])

        for member in batch:
            record = LogRecord.make(lsn, member.changes)
            raw = record.serialize()
            if len(raw) > layout.wal_size // 2:
                member.error = ValueError("record too large for the WAL ring")
                continue
            room = layout.contiguous_room(tail)
            skip = room if len(raw) > room else 0
            start = tail + skip
            if start + len(raw) - self.head > layout.wal_size:
                # Judged against the tail the batch has reached so
                # far; nothing of this member is staged.
                member.error = RuntimeError(
                    "WAL full: execute_and_advance/truncate has not kept up"
                )
                continue
            if skip:
                # Stamp a wrap marker and skip to the ring start.
                stage(layout.wal_position(tail), struct.pack("<I", WRAP_MAGIC))
            stage(layout.wal_position(start), raw)
            tail = start + len(raw)
            lsn += 1
            written.append((member, record))
        if not written:
            return
        # [Wrap marker,] records and the header whose tail covers them
        # go out back to back: the gWRITE chain executes in post order
        # on every replica, so no replica ever holds the new tail
        # without every record under it.
        posts = [OpSpec(GWRITE, offset=offset, size=size) for offset, size in extents]
        posts.append(self._header_op(tail=tail))
        cursor = len(posts)
        for member, _ in written:
            posts.extend(member.ops)
        results = yield from self.post_and_wait(task, posts)
        if TRACER.enabled:
            TRACER.count("wal.batches")
            TRACER.count("wal.records", len(written))
        # The client's tail never covers bytes the whole chain has not
        # acked: failover keeps head/tail/next_lsn and rebuilds the
        # mirror from a survivor, which may hold none of what a leader
        # abandoned on the dead chain's ack had in flight.
        self.tail = tail
        self.next_lsn = lsn
        for member, record in written:
            member.result = (record, results[cursor : cursor + len(member.ops)])
            cursor += len(member.ops)

    def execute_and_advance(self, task: Task) -> Generator:
        """Execute the record at the head on all replicas; returns it
        (or ``None`` if the log is empty)."""
        gate = yield from self._enter(task)
        try:
            head = self.head_record()
            if head is None:
                return None
            yield from self._execute_locked(task, [head], ())
            return head[1]
        finally:
            gate.mutex.release()

    def drain(self, task: Task, beside: Sequence[OpSpec] = ()) -> Generator:
        """Execute every pending record in order, advancing the head
        once. ``beside`` ops are posted with the head advance and
        awaited in the same round trip (the §5 recipe posts its unlock
        gCAS here). Returns ``(records executed, [result of each op])``.
        """
        if self.head == self.tail and not beside:
            return 0, []
        gate = yield from self._enter(task)
        try:
            pending = self.pending_records()
            results = yield from self._execute_locked(task, pending, beside)
            return len(pending), results
        finally:
            gate.mutex.release()

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
        yield from self.post_and_wait(task, copies)
        posts = []
        if records:
            logical, record = records[-1]
            self.head = logical + record.serialized_size
            posts.append(self._header_op())
        results = yield from self.post_and_wait(task, [*posts, *beside])
        return results[len(posts) :]

    def truncate(self, task: Task, up_to: Optional[int] = None) -> Generator:
        """Advance the head past executed records (≤ ``up_to``,
        default: everything)."""
        # Under the mutex like every header write: an append in flight
        # has staged a tail this header must not post behind and undo.
        gate = yield from self._enter(task)
        try:
            target = self.tail if up_to is None else up_to
            if not self.head <= target <= self.tail:
                raise ValueError(
                    f"truncate target {target} outside [{self.head}, {self.tail}]"
                )
            self.head = target
            yield from self.post_and_wait(task, [self._header_op()])
        finally:
            gate.mutex.release()

    def _header_op(self, tail: Optional[int] = None) -> OpSpec:
        """Stage the head and ``tail`` (default: the current one)
        locally; returns the gWRITE replicating them."""
        self._write_header_local(tail)
        return OpSpec(GWRITE, offset=self.layout.head_offset, size=16)

    def post_and_wait(self, task: Task, ops: Sequence[OpSpec]) -> Generator:
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
