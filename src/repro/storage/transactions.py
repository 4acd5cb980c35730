"""Multi-key ACID transactions over a replicated region.

Packages the §5 recipe — wrLock, Append, ExecuteAndAdvance, wrUnlock —
into a transaction API with the four properties the paper's primitives
were designed to offload (§3.1):

* **Atomicity** — all of a transaction's changes ride in one WAL
  record; the record either deserializes completely (CRC) or not at
  all, and redo replay applies it entirely or leaves it pending.
* **Consistency / Isolation** — the group write lock (gCAS) blocks
  concurrent writers across every replica while a transaction's
  changes are applied; readers use per-replica read locks or lock-free
  validated reads.
* **Durability** — the record is gWRITE+gFLUSHed to every replica's
  NVM before execution begins; a crash after the append but before
  (or during) execution is repaired by redo recovery.

The recipe is three ack waits however many keys it writes, each a
batch of group ops posted back to back (see :mod:`repro.storage.log`
for the ordering rule that makes this safe):

1. record + header on the gWRITE chain, the lock gCAS beside them;
2. every entry's gMEMCPY;
3. the head-advance gWRITE, the unlock gCAS beside it.

A lock gCAS that loses on any replica (a reader or another writer
holds it) falls into :meth:`LockManager.wr_lock`'s undo-and-retry
loop; the record is already durable, exactly as when the lock was
taken after the append.

The coordinator may crash at any point; :meth:`recover` re-executes
whatever the durable log says is pending — redo is idempotent because
entries are plain byte copies. The windows: lock held, record not yet
durable → a stale lock and nothing to redo; record durable, copies
partial → redo; unlock durable before the head advance → the record
is pending with the lock free, and redo re-applies it.
"""

from __future__ import annotations

import struct
from typing import Generator, Optional, Sequence, Tuple

from ..hw.cpu import Task
from .locks import LockManager
from .log import ReplicatedLog
from .wal import RegionLayout

__all__ = ["TransactionManager"]


class TransactionManager:
    """Coordinator-side transactions on one replicated region.

    Parameters
    ----------
    group:
        HyperLoopGroup or NaiveGroup.
    layout:
        Region layout; transactions address the DB area by offset.
    writer_id:
        This coordinator's lock identity.
    """

    def __init__(self, group, layout: Optional[RegionLayout] = None, writer_id: int = 1):
        self.group = group
        self.layout = layout or RegionLayout(
            wal_size=group.region_size // 4,
            db_size=group.region_size - group.region_size // 4 - 128,
        )
        self.log = ReplicatedLog(group, self.layout)
        self.locks = LockManager(group, lock_offset=self.layout.lock_offset)
        self.writer_id = writer_id
        self.committed = 0
        self.aborted = 0

    # -- the transaction ----------------------------------------------------------

    def transact(
        self,
        task: Task,
        changes: Sequence[Tuple[int, bytes]],
        execute: bool = True,
    ) -> Generator:
        """Atomically apply ``(db_offset, data)`` changes everywhere.

        Returns the committed record's LSN. With ``execute=False`` the
        record is appended (durable, replicated) but left pending —
        eventual execution falls to a later transaction's
        :meth:`drain` or to recovery, which is the weaker-consistency
        mode §7 describes (log processing off the critical path).
        """
        if not changes:
            raise ValueError("a transaction needs at least one change")
        for offset, data in changes:
            if offset < 0 or offset + len(data) > self.layout.db_size:
                raise ValueError(f"change at {offset} outside the DB area")
        if not execute:
            record = yield from self.log.append(task, list(changes))
        else:
            # Wait 1 of 3: record and tail on the gWRITE chain, the
            # lock gCAS beside them on its own chain.
            record, (held,) = yield from self.log.append_beside(
                task, list(changes), [self.locks.lock_op(self.writer_id)]
            )
            yield from self.drain_locked(task, held)
        self.committed += 1
        return record.lsn

    def drain(self, task: Task) -> Generator:
        """Execute every pending record in order. Returns the count.

        Caller must hold the write lock (or be the recovery path with
        writes paused).
        """
        executed, _ = yield from self.log.drain(task)
        return executed

    def drain_locked(self, task: Task, held: Optional[list] = None) -> Generator:
        """wrLock, ExecuteAndAdvance everything pending, wrUnlock.
        Returns the count.

        ``held`` is the result map of a lock gCAS the caller already
        posted; if it lost anywhere, :meth:`LockManager.wr_lock` undoes
        it and retries. Waits 2 and 3 of the recipe: every pending
        entry's gMEMCPY back to back, then the head advance with the
        unlock gCAS beside it — if only the unlock lands before a
        crash, the record stays pending and redo re-applies it.
        """
        locks, writer_id = self.locks, self.writer_id
        yield from locks.wr_lock(task, writer_id, result=held)
        try:
            executed, (released,) = yield from self.log.drain(
                task, beside=[locks.unlock_op(writer_id)]
            )
        except GeneratorExit:
            # Abandoned mid-transaction (the chain died under us and
            # the parked task is being reclaimed). Unlocking requires
            # yielding, which a closing generator cannot do — the
            # failover path breaks the stale lock instead (see
            # VersionedGroupStore.recover).
            raise
        except BaseException:
            yield from locks.wr_unlock(task, writer_id)
            raise
        locks.check_unlocked(writer_id, released)
        return executed

    # -- reads ---------------------------------------------------------------------

    def read(
        self, task: Task, db_offset: int, size: int, replica: int = 0, lock: bool = False
    ) -> Generator:
        """One-sided read of committed state from a replica."""
        if db_offset < 0 or db_offset + size > self.layout.db_size:
            raise ValueError(f"read at {db_offset} outside the DB area")
        if lock:
            yield from self.locks.rd_lock(task, replica)
        try:
            data = yield from self.group.pread(
                task, replica, self.layout.db_position(db_offset), size
            )
        finally:
            if lock:
                yield from self.locks.rd_unlock(task, replica)
        return data

    def read_local(self, db_offset: int, size: int) -> bytes:
        """Read the coordinator's mirror (no network)."""
        return self.group.client_region.read(self.layout.db_position(db_offset), size)

    # -- recovery -------------------------------------------------------------------

    def recover(self, task: Task, from_replica: int = 0) -> Generator:
        """Coordinator crash recovery: redo the durable pending log.

        Reads the WAL state a replica holds in NVM, resets the local
        mirror to match, and re-executes every pending record. Safe to
        run repeatedly (redo is idempotent byte copies).
        """
        header = yield from self.group.pread(
            task, from_replica, self.layout.head_offset, 16
        )
        head, tail = struct.unpack("<QQ", header)
        # Rebuild the local WAL mirror from the replica's durable copy
        # so pending_records() sees what actually survived.
        chunk = 8192
        for offset in range(0, self.layout.wal_size, chunk):
            size = min(chunk, self.layout.wal_size - offset)
            data = yield from self.group.pread(
                task, from_replica, self.layout.wal_offset + offset, size
            )
            self.group.write_local(self.layout.wal_offset + offset, data)
        self.log.head, self.log.tail = head, tail
        pending = self.log.pending_records()
        self.log.next_lsn = (
            pending[-1][1].lsn + 1 if pending else self.log.next_lsn
        )
        self.log._write_header_local()
        # Break our own stale lock if the crash happened inside the
        # critical section (the lock word durably records our id).
        raw = yield from self.group.pread(
            task, from_replica, self.layout.lock_offset, 8
        )
        holder = int.from_bytes(raw, "little") & 0xFFFF_FFFF
        if holder == self.writer_id:
            yield from self.group.gcas(
                task, self.layout.lock_offset, holder, 0
            )
        return (yield from self.drain_locked(task))
