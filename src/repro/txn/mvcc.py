"""Versioned key storage over one replica group's WAL path.

Each :class:`VersionedGroupStore` owns the keys placed on one
``HyperLoopGroup``. Durable state rides the existing §5 recipe — a
commit's writes for the group become one WAL record installed through
``TransactionManager.transact`` (gWRITE append with the gCAS group lock
beside it, gMEMCPY ExecuteAndAdvance, head advance with the gCAS unlock
beside it: three ack waits however many keys) — so every replicated-log
guarantee (atomic record application, redo idempotence, durability
before execution) carries over unchanged.

On top of that, the store keeps the *version chain* snapshot reads
need: an in-memory, coordinator-side history of committed versions per
key (the client is the transaction coordinator; its memory of what it
committed is authoritative, exactly like the replicated log's
client-side head/tail). Each key owns one fixed-size DB slot holding
the newest **installed** version as a self-describing record
(:func:`~repro.storage.encoding.encode_version_record`), so one-sided
replica reads can distinguish a visible version from a newer one — or
from an orphan left by a commit that installed durably but crashed
before publishing. Those reads have one form, many keys:
:meth:`VersionedGroupStore.post_durable` posts the keys' slots as one
READ batch and returns a :class:`DurableReads` to wait on, so a scan
can have every group's batch in flight before it waits for any;
``read_durable`` is the one-key case.

``rebind``/``recover`` are the failover half: after ``ChainRepair``
splices in a replacement, the store points its manager at the new
group, has the log replace its WAL mutex and append queue (the old
mutex may be held forever by a task parked on the dead chain's ack,
:meth:`ReplicatedLog.rebind`), breaks the stale group lock the
crashed commit may have left in the copied image, and drains pending
records so the ring cannot fill with orphans.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..hw.cpu import Task
from ..storage.encoding import decode_version_record, encode_version_record
from ..storage.transactions import TransactionManager

__all__ = ["Version", "VersionedGroupStore", "DurableReads", "SlotExhausted"]


class SlotExhausted(RuntimeError):
    """The group's DB area has no free slot for a new key."""


@dataclass(frozen=True)
class Version:
    """One committed version of a key."""

    commit_ts: int
    txid: int
    value: bytes


def _decode_slot(raw: bytes, key: bytes):
    decoded = decode_version_record(raw)
    if decoded is None or decoded[2] != key:
        return None
    return decoded


class DurableReads:
    """Slot reads in flight for a set of keys
    (:meth:`VersionedGroupStore.post_durable`).

    Holds the replica's read channel until :meth:`wait` has returned
    (or raised) or :meth:`abandon` gives it up; abandoning afterwards,
    or twice, does nothing.
    """

    __slots__ = ("_keys", "_slotted", "_posted")

    def __init__(self, keys: Sequence[bytes], slotted: List[bytes], posted):
        self._keys = keys
        self._slotted = slotted
        self._posted = posted  # None: no key has a slot, nothing in flight

    def wait(self, task: Task) -> Generator:
        """Collect the batch; returns ``{key: decoded record or None}``
        for every key asked for (see
        :meth:`VersionedGroupStore.read_durable` for ``None``)."""
        found = dict.fromkeys(self._keys)
        if self._posted is not None:
            raws = yield from self._posted.wait(task)
            for key, raw in zip(self._slotted, raws):
                found[key] = _decode_slot(raw, key)
        return found

    def abandon(self) -> None:
        if self._posted is not None:
            self._posted.abandon()


class VersionedGroupStore:
    """Versioned keys on one replica group.

    Parameters
    ----------
    manager:
        The group's :class:`~repro.storage.transactions.TransactionManager`;
        commit installs ride its ``transact``.
    slot_size:
        Bytes per key slot (version header + key + value must fit).
    """

    def __init__(
        self,
        manager: TransactionManager,
        slot_size: int = 256,
        name: str = "vstore",
    ):
        self.manager = manager
        self.slot_size = slot_size
        self.name = name
        # Mirror the sharded store's convention of reserving the final
        # 16 bytes of the DB area (the 2PC decision slot) so layouts
        # stay interchangeable.
        usable = manager.layout.db_size - 16
        self.n_slots = usable // slot_size
        if self.n_slots < 1:
            raise ValueError("DB area too small for a single version slot")
        self._slots: Dict[bytes, int] = {}  # key -> slot index
        self.versions: Dict[bytes, List[Version]] = {}  # ascending commit_ts
        # Ordered index over published keys: what snapshot scans walk.
        # Maintained at publish time (commits are serialized by the
        # coordinator latch, so insertion order is deterministic).
        self._ordered: List[bytes] = []
        self.installs = 0

    @property
    def group(self):
        return self.manager.group

    # -- placement ---------------------------------------------------------------

    def has_slot(self, key: bytes) -> bool:
        return key in self._slots

    def slot_offset(self, key: bytes) -> int:
        """DB offset of the key's slot, assigning one on first write.

        Assignment is sequential in first-write order — deterministic,
        because commits are serialized by the coordinator.
        """
        index = self._slots.get(key)
        if index is None:
            index = len(self._slots)
            if index >= self.n_slots:
                raise SlotExhausted(
                    f"{self.name}: {self.n_slots} slots exhausted at key {key!r}"
                )
            self._slots[key] = index
        return index * self.slot_size

    # -- commit path ---------------------------------------------------------------

    def install(
        self,
        task: Task,
        items: Sequence[Tuple[bytes, bytes]],
        commit_ts: int,
        txid: int,
    ) -> Generator:
        """Durably install a commit's writes for this group.

        One WAL record carries every slot update, so the group's
        changes apply atomically on all replicas. Visibility is
        separate: callers :meth:`publish` only after *every*
        participant group installed.
        """
        changes = []
        for key, value in items:
            record = encode_version_record(commit_ts, txid, key, value)
            if len(record) > self.slot_size:
                raise ValueError(
                    f"{self.name}: versioned record of {len(record)}B "
                    f"exceeds slot of {self.slot_size}B"
                )
            changes.append((self.slot_offset(key), record))
        yield from self.manager.transact(task, changes)
        self.installs += 1

    def publish(
        self, items: Sequence[Tuple[bytes, bytes]], commit_ts: int, txid: int
    ) -> None:
        """Make installed versions visible to snapshot reads.

        Synchronous (no yields): all of a transaction's versions
        appear atomically with respect to every other task. A key's
        first published version also enters the ordered key index —
        this is how an insert becomes scannable.
        """
        for key, value in items:
            chain = self.versions.setdefault(key, [])
            if not chain:
                insort(self._ordered, key)
            chain.append(Version(commit_ts, txid, value))

    # -- snapshot reads -----------------------------------------------------------

    def version_at(self, key: bytes, ts: int) -> Optional[Version]:
        """Newest published version visible at snapshot ``ts``."""
        chain = self.versions.get(key)
        if not chain:
            return None
        for version in reversed(chain):
            if version.commit_ts <= ts:
                return version
        return None

    def latest(self, key: bytes) -> Optional[Version]:
        """Newest published version of a key (any snapshot)."""
        chain = self.versions.get(key)
        return chain[-1] if chain else None

    def keys_from(self, start: bytes) -> Tuple[bytes, ...]:
        """Published keys ``>= start`` in ascending order, as of now.

        Returns a snapshot slice (a scan yields between key reads, and
        a commit publishing mid-scan must not shift the walk); keys
        whose only versions are newer than the caller's snapshot still
        appear — the caller must skip them, and note the rw edge they
        imply.
        """
        return tuple(self._ordered[bisect_left(self._ordered, start) :])

    def post_durable(
        self, task: Task, keys: Sequence[bytes], replica: int
    ) -> Generator:
        """Post one-sided reads of the keys' slots on a replica; returns
        the :class:`DurableReads` to ``wait`` on.

        The slots go out as one batch in slot order — load and commit
        assign a group's slots in key order, so a scan's keys are
        almost always one run of adjacent slots, which the reader
        fetches with a single READ. Keys never assigned a slot cost no
        network; a batch of only such keys takes no channel at all.
        """
        slots = self._slots
        slotted = sorted((key for key in keys if key in slots), key=slots.__getitem__)
        posted = None
        if slotted:
            position = self.manager.layout.db_position
            posted = yield from self.group.post_reads(
                task,
                replica,
                [(position(slots[key] * self.slot_size), self.slot_size) for key in slotted],
            )
        return DurableReads(keys, slotted, posted)

    def read_durable(self, task: Task, key: bytes, replica: int) -> Generator:
        """One-sided read of the key's slot from a replica: the one-key
        case of :meth:`post_durable`.

        Returns the decoded ``(commit_ts, txid, key, value)`` record,
        or ``None`` for an empty/torn slot, a slot the key was never
        assigned, or a record belonging to a different key (possible
        only through corruption — slots are never shared).
        """
        reads = yield from self.post_durable(task, [key], replica)
        return (yield from reads.wait(task))[key]

    def read_durable_offline(self, replica: int, key: bytes):
        """Test/invariant hook: decode a replica's slot without the sim."""
        index = self._slots.get(key)
        if index is None:
            return None
        raw = self.group.read_replica(
            replica, self.manager.layout.db_position(index * self.slot_size), self.slot_size
        )
        return _decode_slot(raw, key)

    # -- failover ------------------------------------------------------------------

    def rebind(self, new_group) -> None:
        """Point the store at the repaired group.

        The replicated log's client-side state (head/tail/next_lsn) is
        authoritative and survives — it covers exactly what the dead
        chain acked, not what a parked appender had in flight; the
        repair installed the full region image, so the new client
        mirror and replica WALs match it. What a commit parked on the
        dead chain's ack may hold forever — the WAL mutex and the
        appends queued at it — is :meth:`ReplicatedLog.rebind`'s to
        replace.
        """
        self.manager.group = new_group
        self.manager.log.rebind(new_group)
        self.manager.locks.group = new_group

    def recover(self, task: Task) -> Generator:
        """Post-repair cleanup: break our stale lock, drain the WAL.

        If the dead commit crashed inside the critical section, the
        image copied from the survivor has the group lock word set to
        our writer id — clear it, then execute whatever the client
        mirror says is pending (orphans included; readers ignore them
        by version metadata). Returns the number of records drained.
        """
        manager = self.manager
        raw = yield from self.group.pread(
            task, 0, manager.layout.lock_offset, 8
        )
        holder = int.from_bytes(raw, "little") & 0xFFFF_FFFF
        if holder == manager.writer_id:
            yield from self.group.gcas(task, manager.layout.lock_offset, holder, 0)
        return (yield from manager.drain_locked(task))

    def __repr__(self) -> str:
        return (
            f"<VersionedGroupStore {self.name} keys={len(self._slots)} "
            f"installs={self.installs}>"
        )
