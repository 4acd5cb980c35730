"""Replicated write-ahead log manager: the §5 storage API.

Implements the three log verbs the paper's case studies are built on,
over either group implementation (HyperLoop or Naïve-RDMA):

* :meth:`ReplicatedLog.append` — ``Append(log record)``: serialize a
  redo record and replicate it into every replica's WAL ring with
  gWRITE(+gFLUSH). Nothing else is written: no tail pointer is
  stored, the durable log ends wherever a scan from the head stops.
* :meth:`ReplicatedLog.execute_and_advance` —
  ``ExecuteAndAdvance()``: process the record at the head, issuing a
  gMEMCPY (+gFLUSH) per entry to copy it from the log into the
  database area on all replicas, then advance the replicated head
  with a gWRITE (§5, "Log Processing") that the next post carries.
  :meth:`ReplicatedLog.drain` does the same for every pending record
  at once. :meth:`ReplicatedLog.append_executed` appends a record and
  executes it in one post: its DB images go out as gWRITEs behind it
  on the same chain. Its posting half,
  :meth:`ReplicatedLog.post_executed`, returns with the WAL mutex held
  until the caller waits, so a caller may post to other logs first;
  it posts no more than the group's flow window takes without waiting.
* :meth:`ReplicatedLog.truncate` — drop everything up to a logical
  offset by advancing the head (log truncation after a checkpoint),
  and wait for the header: ``truncate(task, up_to=log.head)`` makes
  an owed head advance durable.

The 16-byte WAL header holds ``(head, LSN at head)`` and is written
only where the head moves. Recovery, the replicas' sync and the
client's own view of the pending records all use one scan
(:func:`~repro.storage.wal.scan_records`): from the head, following
wrap markers, up to the first record that is torn or unwritten, is not
the next LSN, or lies more than one lap past the head.

Group ops are *posted, then waited for* (``group.submit``), and what
the hardware already orders is not waited for twice. The rule: **ops
on the same primitive chain of one group execute and ack in post
order** (one RC queue pair per chain), **ops on different chains are
unordered**. So a batch of records goes out back to back on the gWRITE
chain and costs one round trip, a record's gMEMCPYs go out back to
back and cost one more, and only the cross-chain dependencies wait for
an ack: gMEMCPY after the record's, head advance after the gMEMCPYs'.
``append_beside``/``drain`` let a caller's own ops (the §5 lock and
unlock gCAS) share those waits. ``append_executed`` needs no second
wait: its images ride the record's own chain, so no replica executes
one before it holds the record.

The head advance is not waited for at all unless a caller's ops ride
with it. Once the gMEMCPYs (or images) are acked, every replica's DB
holds the records; the header only tells a *recovering* replica where
redo may start, and redo is idempotent. So it is *owed*: one rule
covers it and the zombie scrub below — **gWRITEs the log owes go out
ahead of the ops of the next post under the WAL mutex** (``_owed``; a
post or wait that fails owes them again). The next record therefore lands on
every replica behind the header that frees its room, and a replica's
header is at most one executed batch behind the client's: redo from
it re-applies at most that batch, byte for byte. A txn install
(``append_executed``) is one ack wait of ``[(the owed header,) 1 + n]``
gWRITEs.

Appends are **group-committed**, leader/follower as in RocksDB's
write path. An appender queues its record at the WAL mutex and then
takes the mutex; whoever gets it with its record still unwritten is
the *leader* and writes everything queued behind it as well: the
records laid out back to back from ``tail`` (consecutive LSNs, each
with its own header and CRC, a wrap marker where one does not fit the
contiguous room), adjacent ones merged into one gWRITE, then every
member's ``beside`` ops — posted back to back, one ack wait. A
*follower* that reaches the mutex finds its record written and
returns. A batch is whatever queued while the previous one was in
flight, so there is nothing to tune — no batch size, no linger timer —
and a lone appender is a batch of one that posts exactly ``[owed
gWRITEs,] [marker,] record, beside ops``. An append returns only after
its record is gWRITE(+gFLUSH)ed on every replica. A batch stops at the
first waiter that is not an appender (``drain``, ``truncate``,
:meth:`ReplicatedLog.cut`), so whoever holds the mutex sees a log in
which every record under ``tail`` has been handed back to its
appender.

The client keeps an authoritative local copy of the region (the
group's ``client_region``), so record contents never need to be read
back over the network. Its ``head``/``tail``/``next_lsn`` are
authoritative too and survive a failover unchanged, so ``tail`` and
``next_lsn`` move only once the whole chain has acked the whole batch.
Records past ``tail`` that a failed batch, or a dead chain's leader,
left on the replicas are *zombies*: they are zeroed in the mirror at
once (:meth:`ReplicatedLog.rebind` for a failover) and on the
replicas by the next post under the WAL mutex. Otherwise a fresh
record with a zombie's LSN could end exactly where the zombie's next
record begins, and the scan would resurrect that record.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Deque, Generator, Iterator, List, Optional, Sequence, Tuple

from ..core.chain import GMEMCPY, GWRITE, OpSpec
from ..hw.cpu import Task
from ..obs.trace import TRACER
from ..sim import Resource
from .wal import (
    ENTRY_SIZE,
    HEADER_SIZE,
    WAL_HEADER,
    WRAP_MAGIC,
    LogRecord,
    RegionLayout,
    scan_records,
)

__all__ = ["ReplicatedLog"]


class _Append:
    """One append queued at the WAL mutex, executed or not, and once
    posted the handle that holds the mutex (``gate``) until
    :meth:`wait`. The leader that writes it fills in ``result`` —
    ``(record, beside results)`` — or ``error``; a leader's own entry
    keeps its ``batch``, laid out as ``plan``, the ``owed`` gWRITEs it
    carries, the ``acks`` of the ops it posted and the ops the group's
    flow window held back (``unposted``)."""

    __slots__ = ("changes", "ops", "execute", "result", "error", "log", "gate", "batch",
                 "plan", "owed", "acks", "unposted")

    def __init__(
        self, changes: List[Tuple[int, bytes]], ops: Sequence[OpSpec], execute: bool
    ):
        self.changes = changes
        self.ops = ops
        self.execute = execute
        self.result: Optional[Tuple[LogRecord, list]] = None
        self.error: Optional[Exception] = None
        self.batch: List[_Append] = []
        self.owed: List[OpSpec] = []
        self.acks: list = []
        self.unposted: Deque[OpSpec] = deque()

    @property
    def settled(self) -> bool:
        return self.result is not None or self.error is not None

    @property
    def last_ack(self):
        """The ack of the last op posted so far, ``None`` if none was.
        An executed append posts gWRITEs only, on one chain that acks
        in post order, so this one fires last."""
        return self.acks[-1] if self.acks else None

    def post_more(self, task: Task) -> Generator:
        """Post the unposted ops back to back while the group's flow
        window takes them without waiting, and at least one; the rest
        go out from the next ``post_more`` or ``wait``. So a caller
        with posts on several logs never parks inside one whose chain
        stopped acking. Returns the append."""
        group, unposted = self.log.group, self.unposted
        try:
            while unposted:
                self.acks.append((yield from group.submit(task, unposted.popleft())))
                if unposted and group.would_wait(unposted[0]):
                    break
        except BaseException as exc:
            self.log._abandon(self, exc)
            self.gate.mutex.release()
            raise
        return self

    def wait(self, task: Task) -> Generator:
        """Post the rest, wait for the acks, settle the log and every
        member, release the mutex; returns ``result`` or raises
        ``error``."""
        log = self.log
        try:
            if self.acks or self.unposted:
                try:
                    for op in self.unposted:
                        self.acks.append((yield from log.group.submit(task, op)))
                    self.unposted.clear()
                    results = yield from log.group.wait(task, self.acks)
                except BaseException as exc:
                    log._abandon(self, exc)
                    raise
                log._settle(self, results[len(self.owed) :])
        finally:
            self.gate.mutex.release()
            # The leader is a member of its own batch and plan: a cycle
            # that only the garbage collector would reclaim.
            self.batch, self.plan = [], ()
        if self.error is not None:
            raise self.error
        return self.result


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
        A :class:`~repro.core.base.GroupBase` group that runs every
        primitive (HyperLoop or Naïve) whose region is at least
        ``layout.region_size`` bytes.
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
        self.head_lsn = 0  # LSN of the record at head
        self.tail = 0
        self.next_lsn = 0
        # Appends and head advances are serialized, as in any WAL
        # implementation (RocksDB holds a mutex across log writes);
        # concurrent application threads queue here, and the appenders
        # among them ride one leader's write.
        self._gate = _Gate(group.sim)
        # gWRITEs the next post under the mutex carries ahead of its
        # own ops: zeroed zombie records (see :meth:`rebind`) and the
        # header of the last head advance.
        self._owed: List[OpSpec] = []
        self._write_header_local()

    def rebind(self, new_group) -> None:
        """Point the log at the group a failover built.

        ``head``/``tail``/``next_lsn`` stay: they cover exactly what
        the dead chain acked. The mutex and its queue are replaced
        wholesale — a leader parked forever on the dead chain's ack
        holds the old mutex, and its batch and whoever queued behind
        it are zombies whose records ``tail`` never covered. The new
        mirror is a survivor's image, which may hold some of them:
        they are zeroed there now and on the replicas by the first
        post under the new mutex (:meth:`_scrub_zombies`).
        """
        self.group = new_group
        self._gate = _Gate(new_group.sim)
        self._owed = self._scrub_zombies()

    # -- local mirror helpers ----------------------------------------------------

    def _write_header_local(self) -> None:
        self.group.write_local(
            self.layout.head_offset, WAL_HEADER.pack(self.head, self.head_lsn)
        )

    def _scan_mirror(
        self, start: int, lsn: int, end: Optional[int] = None
    ) -> Iterator[Tuple[int, LogRecord]]:
        """Lazy scan of the local mirror's WAL area (a zero-copy view;
        consume it before the next yield)."""
        layout = self.layout
        raw = self.group.client_region.read_view(layout.wal_offset, layout.wal_size)
        return scan_records(raw, start, lsn, layout.wal_size, end)

    def _scan_pending(self) -> Iterator[Tuple[int, LogRecord]]:
        """Lazy scan of ``[head, tail)`` of the local mirror."""
        return self._scan_mirror(self.head, self.head_lsn, self.tail)

    def _scrub_zombies(self) -> List[OpSpec]:
        """Zero in the mirror every record a scan finds past ``tail``
        — never acked, so a zombie — and return the gWRITEs that zero
        it on the replicas. Posted first on the gWRITE chain, they land
        before any new record. If the mirror's header is not the
        client's (a head advance lost with the dead chain), the header
        gWRITE rides with them."""
        layout, group = self.layout, self.group
        extents: List[List[int]] = []
        for logical, record in self._scan_mirror(
            self.tail, self.next_lsn, self.head + layout.wal_size
        ):
            offset = layout.wal_position(logical)
            if extents and sum(extents[-1]) == offset:
                extents[-1][1] += record.serialized_size
            else:
                extents.append([offset, record.serialized_size])
        ops = []
        for offset, size in extents:
            group.write_local(offset, bytes(size))
            ops.append(OpSpec(GWRITE, offset=offset, size=size))
        header = WAL_HEADER.pack(self.head, self.head_lsn)
        if group.client_region.read(layout.head_offset, WAL_HEADER.size) != header:
            ops.append(self._header_op())
        return ops

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

    def _post_locked(self, task: Task, ops: Sequence[OpSpec]) -> Generator:
        """:meth:`post_and_wait` from under the WAL mutex, carrying the
        owed ops ahead of ``ops``. A post that raises owes them again
        (unless a rebind took the log elsewhere meanwhile): a refused
        post may not have sent them, and re-sending is harmless."""
        gate = self._gate
        owed, self._owed = self._owed, []
        try:
            results = yield from self.post_and_wait(task, [*owed, *ops])
        except BaseException:
            if gate is self._gate:
                self._owed[:0] = owed
            raise
        return results[len(owed) :]

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
        record, _ = yield from self._append(task, _Append(changes, (), execute=False))
        return record

    def append_beside(
        self, task: Task, changes: List[Tuple[int, bytes]], ops: Sequence[OpSpec]
    ) -> Generator:
        """:meth:`append` with ``ops`` posted behind the record and
        awaited in the same round trip (the §5 recipe posts its lock
        gCAS here). Returns ``(record, [result of each op])``."""
        return (yield from self._append(task, _Append(changes, ops, execute=False)))

    def append_executed(self, task: Task, changes: List[Tuple[int, bytes]]) -> Generator:
        """:meth:`append` that also executes the record, in the same
        post and the same ack wait: each change's DB image goes out as
        a gWRITE behind the record. Ops on one chain execute in post
        order, so every replica holds the record before any image it
        covers, and redo from it stays idempotent. Once acked, the
        head moves past the record and its advance is owed to the next
        post. Records already pending (a failover's) are drained first,
        so none of them lands over an image. A post that fails may
        leave images on some replicas beside a zombie record that the
        next post scrubs. :meth:`post_executed`, then its wait; returns
        the :class:`LogRecord`."""
        posted = yield from self.post_executed(task, changes)
        record, _ = yield from posted.wait(task)
        return record

    def post_executed(self, task: Task, changes: List[Tuple[int, bytes]]) -> Generator:
        """The posting half of :meth:`append_executed`: take the WAL
        mutex, lay the batch out, post ``[owed header,] record,
        images`` and return the append, whose ``wait`` settles it and
        releases the mutex (the caller may post elsewhere first)."""
        return (yield from self._post(task, _Append(changes, (), execute=True)))

    def _append(self, task: Task, entry: _Append) -> Generator:
        return (yield from (yield from self._post(task, entry)).wait(task))

    def _post(self, task: Task, entry: _Append) -> Generator:
        """Take the WAL mutex; unless another leader wrote ``entry``
        meanwhile, post the run of appends at the front of the gate's
        queue — the caller's first, and all executed or none — as one
        batch. Returns ``entry``."""
        entry.log = self
        entry.gate = gate = yield from self._enter(task, entry)
        if entry.settled:
            return entry
        queue, batch = gate.queue, entry.batch
        while queue and queue[0] is not None and queue[0].execute == entry.execute:
            batch.append(queue.popleft())
        try:
            yield from self._post_batch(task, entry)
        except BaseException as exc:
            self._abandon(entry, exc)
            gate.mutex.release()
            raise
        return (yield from entry.post_more(task))

    def _abandon(self, posted: _Append, exc: BaseException) -> None:
        """Nobody stays parked on a batch that will not be acked, and
        nothing of it is under the tail. Unless a rebind took the log
        elsewhere, what its post carried is owed again and what of it
        reached the replicas is a zombie the next post zeroes."""
        if posted.gate is self._gate:
            self._owed[:0] = posted.owed
            self._owed += self._scrub_zombies()
        if isinstance(exc, Exception):
            error = exc
        else:  # the leader's generator was closed under it
            error = RuntimeError("WAL append abandoned by the leader of its batch")
        for member in posted.batch:
            if not member.settled:
                member.error = error

    def _post_batch(self, task: Task, posted: _Append) -> Generator:
        """Lay ``posted``'s batch out from the tail and queue its ops
        to post: the owed ones, the records, the images (an executed
        batch) and every member's ops. The wait (:meth:`_settle`)
        moves the tail, and the head past an executed batch."""
        batch = posted.batch
        execute = batch[0].execute
        if execute and self.head != self.tail:
            yield from self._execute_locked(task, self.pending_records(), ())
        layout = self.layout
        group = self.group
        tail, lsn = self.tail, self.next_lsn
        extents: List[List[int]] = []  # [region offset, size], adjacent runs merged
        images: List[OpSpec] = []
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
            if execute:
                for offset, data in member.changes:
                    dst = layout.db_position(offset)
                    group.write_local(dst, data)
                    images.append(OpSpec(GWRITE, offset=dst, size=len(data)))
            tail = start + len(raw)
            lsn += 1
            written.append((member, record))
        if not written:
            return
        # [Wrap marker,] records, images, then the beside ops: the
        # records are durable once acked, and the scan from the head
        # finds them.
        posts = [OpSpec(GWRITE, offset=offset, size=size) for offset, size in extents]
        posts += images
        posted.plan = (written, tail, lsn, len(posts))
        for member, _ in written:
            posts.extend(member.ops)
        posted.owed, self._owed = self._owed, []
        posted.unposted.extend((*posted.owed, *posts))

    def _settle(self, posted: _Append, results: list) -> None:
        """``posted``'s batch is acked: hand each member its record and
        the results of its ops."""
        written, tail, lsn, cursor = posted.plan
        if TRACER.enabled:
            TRACER.count("wal.batches")
            TRACER.count("wal.records", len(written))
        # The client's tail never covers bytes the whole chain has not
        # acked: failover keeps head/tail/next_lsn and rebuilds the
        # mirror from a survivor, which may hold none of what a leader
        # abandoned on the dead chain's ack had in flight.
        self.tail = tail
        self.next_lsn = lsn
        if posted.execute:
            self.head, self.head_lsn = tail, lsn
            self._owe_header()
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
        once. The head advance is owed to the next post; ``beside`` ops
        are that post, awaited in one round trip with the header ahead
        of them (the §5 recipe posts its unlock gCAS here). Whatever is
        owed goes out even with nothing pending. Returns ``(records
        executed, [result of each op])``.
        """
        if self.head == self.tail and not beside and not self._owed:
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
        # but the head advance rides the gWRITE chain: it is owed only
        # after every copy's ack, and goes out with the next post.
        yield from self._post_locked(task, copies)
        if records:
            logical, record = records[-1]
            self.head = logical + record.serialized_size
            self.head_lsn = record.lsn + 1
            self._owe_header()
        return (yield from self._post_locked(task, beside)) if beside else []

    def truncate(self, task: Task, up_to: Optional[int] = None) -> Generator:
        """Advance the head past executed records (≤ ``up_to``,
        default: everything) and wait for the header, with whatever
        else is owed."""
        # Under the mutex like every header write: the head's LSN is
        # read off the records under the tail.
        gate = yield from self._enter(task)
        try:
            target = self.tail if up_to is None else up_to
            if not self.head <= target <= self.tail:
                raise ValueError(
                    f"truncate target {target} outside [{self.head}, {self.tail}]"
                )
            self.head_lsn = self._lsn_at(target)
            self.head = target
            self._owe_header()
            yield from self._post_locked(task, ())
        finally:
            gate.mutex.release()

    def _lsn_at(self, offset: int) -> int:
        """LSN of the record that follows logical ``offset``, which
        must be the head or the end of a record under the tail."""
        if offset == self.tail:
            return self.next_lsn
        if offset == self.head:
            return self.head_lsn
        for logical, record in self._scan_pending():
            if logical + record.serialized_size == offset:
                return record.lsn + 1
        raise ValueError(f"truncate target {offset} is not a record boundary")

    def _header_op(self) -> OpSpec:
        """Stage ``(head, head_lsn)`` locally; returns the gWRITE
        replicating them."""
        self._write_header_local()
        return OpSpec(GWRITE, offset=self.layout.head_offset, size=WAL_HEADER.size)

    def _owe_header(self) -> None:
        """Stage the head locally and owe its gWRITE (once)."""
        op = self._header_op()
        if op not in self._owed:
            self._owed.append(op)

    def post_and_wait(self, task: Task, ops: Sequence[OpSpec]) -> Generator:
        """Post ``ops`` back to back, wait once for all their acks;
        returns their results in post order."""
        if not ops:
            return []
        acks = []
        for op in ops:
            acks.append((yield from self.group.submit(task, op)))
        return (yield from self.group.wait(task, acks))

    # -- recovery ---------------------------------------------------------------------

    def reload(self, task: Task, replica: int = 0) -> Generator:
        """Coordinator crash recovery: rebuild the mirror's WAL from
        ``replica``'s durable copy (one-sided READs) and set
        ``head``/``tail``/``next_lsn`` to what a scan of it finds."""
        layout, group = self.layout, self.group
        header = yield from group.pread(task, replica, layout.head_offset, WAL_HEADER.size)
        chunk = 8192
        for offset in range(0, layout.wal_size, chunk):
            size = min(chunk, layout.wal_size - offset)
            data = yield from group.pread(task, replica, layout.wal_offset + offset, size)
            group.write_local(layout.wal_offset + offset, data)
        self.head, self.head_lsn = WAL_HEADER.unpack(header)
        self.tail, self.next_lsn = self.head, self.head_lsn
        for logical, record in self._scan_mirror(self.head, self.head_lsn):
            self.tail, self.next_lsn = logical + record.serialized_size, record.lsn + 1
        self._write_header_local()

    @staticmethod
    def recover_replica(group, layout: RegionLayout, replica: int) -> List[LogRecord]:
        """Read a replica's durable state and return the un-executed
        records its WAL holds — what a recovery protocol would replay.

        Reads ``(head, LSN at head)`` from the replica's (NVM) header
        and scans its WAL area from there: the log ends at the first
        record that is torn or unwritten (CRC, magic), not the next
        LSN, or more than one lap past the head.
        """
        header = group.read_replica(replica, layout.head_offset, WAL_HEADER.size)
        head, lsn = WAL_HEADER.unpack(header)
        raw = group.read_replica(replica, layout.wal_offset, layout.wal_size)
        return [record for _, record in scan_records(raw, head, lsn, layout.wal_size)]
