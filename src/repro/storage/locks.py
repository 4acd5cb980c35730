"""Group locking built on gCAS (§5, "Locking and Isolation").

The lock word (one 8-byte slot in the replicated region) encodes a
single-writer / multiple-reader lock::

    bits  0..31   writer id (0 = unlocked)
    bits 32..63   reader count

* :meth:`LockManager.wr_lock` — group-wide: a gCAS(0 → writer id) on
  every replica. If some replicas lose a race, the §4.2 undo protocol
  rolls back the partial acquisition (a second gCAS whose execute map
  selects exactly the replicas that succeeded) and retries.
* :meth:`LockManager.rd_lock` — per-replica: "unlike write locks,
  read locks are not group based and only the replica being read from
  needs to participate". Implemented as a gCAS with a single-replica
  execute map incrementing the reader count.

Readers block writers (wr_lock requires the whole word to be zero)
and a writer blocks readers; read locks on different replicas are
independent, which is what lets every replica serve consistent reads.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..core.chain import GCAS, OpSpec
from ..hw.cpu import Task

__all__ = ["LockManager", "LockTimeout"]

_READER_UNIT = 1 << 32
_WRITER_MASK = (1 << 32) - 1


class LockTimeout(RuntimeError):
    """Lock acquisition exceeded its retry budget."""


def _check_writer(writer_id: int) -> None:
    if not 0 < writer_id <= _WRITER_MASK:
        raise ValueError(f"writer id out of range: {writer_id}")


class LockManager:
    """Client-side lock operations for one replicated region."""

    def __init__(self, group, lock_offset: int = 0, retry_backoff_ns: int = 2_000):
        self.group = group
        self.lock_offset = lock_offset
        self.retry_backoff_ns = retry_backoff_ns
        self.acquisitions = 0
        self.conflicts = 0

    # -- write (group) locks ---------------------------------------------------------

    def lock_op(self, writer_id: int) -> OpSpec:
        """The gCAS that takes the group write lock for ``writer_id``
        (1..2^32-1). Post it beside other work and hand its result map
        to :meth:`wr_lock`, which undoes and retries if it lost."""
        _check_writer(writer_id)
        return OpSpec(GCAS, offset=self.lock_offset, compare=0, swap=writer_id)

    def unlock_op(self, writer_id: int) -> OpSpec:
        """The gCAS that releases ``writer_id``'s group write lock;
        judge its result map with :meth:`check_unlocked`."""
        return OpSpec(GCAS, offset=self.lock_offset, compare=writer_id, swap=0)

    def wr_lock(
        self,
        task: Task,
        writer_id: int,
        max_retries: int = 100,
        result: Optional[List[Optional[int]]] = None,
    ) -> Generator:
        """Acquire the group write lock for ``writer_id``.

        ``result`` is the result map of a :meth:`lock_op` the caller
        already posted (overlapped with other work): the first attempt
        judges it instead of paying its own round trip.
        """
        _check_writer(writer_id)
        attempts = 0
        while True:
            if result is None:
                result = yield from self.group.gcas(task, self.lock_offset, 0, writer_id)
            succeeded = [value == 0 for value in result]
            result = None
            if all(succeeded):
                self.acquisitions += 1
                return
            self.conflicts += 1
            if any(succeeded):
                # Partial acquisition: undo exactly where we won
                # (§4.2's execute-map undo flow).
                yield from self.group.gcas(
                    task, self.lock_offset, writer_id, 0, execute_map=succeeded
                )
            attempts += 1
            if attempts >= max_retries:
                raise LockTimeout(
                    f"wr_lock({writer_id}) failed after {attempts} attempts"
                )
            yield from task.sleep(self.retry_backoff_ns * min(attempts, 16))

    def wr_unlock(self, task: Task, writer_id: int) -> Generator:
        """Release the group write lock held by ``writer_id``."""
        result = yield from self.group.gcas(task, self.lock_offset, writer_id, 0)
        self.check_unlocked(writer_id, result)

    @staticmethod
    def check_unlocked(writer_id: int, result: List[Optional[int]]) -> None:
        """Raise unless an :meth:`unlock_op` found our id everywhere."""
        if any(value != writer_id for value in result):
            raise RuntimeError(
                f"wr_unlock({writer_id}): lock word was {result}, not ours"
            )

    # -- read (per-replica) locks -------------------------------------------------------

    def rd_lock(self, task: Task, replica: int, max_retries: int = 100) -> Generator:
        """Take a shared read lock on one replica."""
        execute_map = self._only(replica)
        attempts = 0
        while True:
            current = yield from self._read_lock_word(task, replica)
            if current & _WRITER_MASK == 0:
                result = yield from self.group.gcas(
                    task,
                    self.lock_offset,
                    current,
                    current + _READER_UNIT,
                    execute_map=execute_map,
                )
                if result[replica] == current:
                    self.acquisitions += 1
                    return
            self.conflicts += 1
            attempts += 1
            if attempts >= max_retries:
                raise LockTimeout(f"rd_lock(replica={replica}) failed")
            yield from task.sleep(self.retry_backoff_ns * min(attempts, 16))

    def rd_unlock(self, task: Task, replica: int, max_retries: int = 100) -> Generator:
        """Drop a shared read lock on one replica."""
        execute_map = self._only(replica)
        attempts = 0
        while True:
            current = yield from self._read_lock_word(task, replica)
            if current < _READER_UNIT:
                raise RuntimeError("rd_unlock without a read lock held")
            result = yield from self.group.gcas(
                task,
                self.lock_offset,
                current,
                current - _READER_UNIT,
                execute_map=execute_map,
            )
            if result[replica] == current:
                return
            attempts += 1
            if attempts >= max_retries:
                raise LockTimeout(f"rd_unlock(replica={replica}) failed")
            yield from task.sleep(self.retry_backoff_ns)

    # -- helpers ---------------------------------------------------------------------------

    def _only(self, replica: int) -> List[bool]:
        if not 0 <= replica < self.group.group_size:
            raise ValueError(f"no replica {replica}")
        return [index == replica for index in range(self.group.group_size)]

    def _read_lock_word(self, task: Task, replica: int) -> Generator:
        """One-sided READ of the lock word (pays the round trip)."""
        raw = yield from self.group.pread(task, replica, self.lock_offset, 8)
        return int.from_bytes(raw, "little")

    def _peek_lock_word(self, replica: int) -> int:
        raw = self.group.read_replica(replica, self.lock_offset, 8)
        return int.from_bytes(raw, "little")

    def holder(self, replica: int) -> int:
        """Current writer id on a replica (0 if none). Test hook."""
        return self._peek_lock_word(replica) & _WRITER_MASK

    def readers(self, replica: int) -> int:
        """Current reader count on a replica. Test hook."""
        return self._peek_lock_word(replica) >> 32
