"""Versioned key storage over one replica group's WAL path.

Each :class:`VersionedGroupStore` owns the keys placed on one
``HyperLoopGroup`` and its :class:`ReplicatedLog`: the writes of a
batch of commits become one WAL record, appended and executed in one
post — one ack wait of ``1 + n`` gWRITEs (the record, then each slot's
image behind it on the same chain; the head advance is owed and rides
ahead of the next install's record) however many keys and commits —
so every replicated-log guarantee (atomic record application, redo
idempotence, durability before execution) carries over unchanged. The
§5 recipe's group lock fences writers and locking readers from each
other; there are none here: a store's ``owner`` is its one coordinator
and only writer, with one install batch in flight in commit order,
and reads lock nothing.

The store is also its group's :class:`~repro.txn.certify.VersionIndex`,
the client-side version chains snapshot reads need (the client's
memory of what it committed is authoritative, like the replicated
log's head/tail). Each key owns one fixed-size DB slot holding the
newest **installed** version as a self-describing record
(:func:`~repro.storage.encoding.encode_version_record`), so one-sided
replica reads can distinguish a visible version from a newer one — or
from an orphan left by a commit that installed durably but crashed
before publishing, or by an install whose post failed after some of
its images landed. Those reads have one form, many keys:
:meth:`VersionedGroupStore.post_durable` posts the keys' slots as one
READ batch and returns the reader's ticket to wait on, so a scan can
have every group's batch in flight before it waits for any;
:func:`decode_durable` turns the bytes into records. A snapshot read
is the one-key case.

``rebind``/``recover`` are the failover half: after ``ChainRepair``
splices in a replacement, the store points its log at the new group,
which replaces its WAL mutex and append queue (the old mutex may be
held forever by a task parked on the dead chain's ack,
:meth:`ReplicatedLog.rebind`), drains pending records so the ring
cannot fill with orphans, and makes the head durable.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..hw.cpu import Task
from ..storage.encoding import decode_version_record, encode_version_record
from ..storage.log import ReplicatedLog
from ..storage.wal import LogRecord, RegionLayout
from .certify import VersionIndex

__all__ = ["VersionedGroupStore", "SlotExhausted", "decode_durable"]


class SlotExhausted(RuntimeError):
    """The group's DB area has no free slot for a new key."""


def _decode_slot(raw: bytes, key: bytes):
    decoded = decode_version_record(raw)
    if decoded is None or decoded[2] != key:
        return None
    return decoded


def decode_durable(
    keys: Sequence[bytes], raws: Sequence[bytes]
) -> Dict[bytes, Optional[tuple]]:
    """The slots a :meth:`VersionedGroupStore.post_durable` batch read,
    decoded: ``{key: (commit_ts, txid, key, value) or None}`` for the
    keys in the order the batch read them. ``None`` is an empty or torn
    slot, or a record of a different key (possible only through
    corruption — slots are never shared)."""
    return {key: _decode_slot(raw, key) for key, raw in zip(keys, raws)}


class VersionedGroupStore(VersionIndex):
    """Versioned keys on one replica group.

    Parameters
    ----------
    group:
        The replica group (HyperLoop or Naïve) the keys live on.
    slot_size:
        Bytes per key slot (version header + key + value must fit).
    """

    def __init__(
        self,
        group,
        slot_size: int = 256,
        name: str = "vstore",
    ):
        super().__init__()
        self.layout = RegionLayout.for_region(group.region_size)
        self.log = ReplicatedLog(group, self.layout)
        self.slot_size = slot_size
        self.name = name
        self.owner = None  # the one coordinator, which claims it at attach
        # The final 16 bytes of the DB area stay free: they are the
        # slot a durable commit decision will take when the 2PC marker
        # of ``storage/twophase.py`` joins this recipe (ROADMAP item 3).
        usable = self.layout.db_size - 16
        self.n_slots = usable // slot_size
        if self.n_slots < 1:
            raise ValueError("DB area too small for a single version slot")
        self._slots: Dict[bytes, int] = {}  # key -> slot index
        self.installs = 0  # commits installed, counted as each batch settles

    @property
    def group(self):
        return self.log.group

    # -- placement ---------------------------------------------------------------

    def has_slot(self, key: bytes) -> bool:
        return key in self._slots

    def slot_offset(self, key: bytes) -> int:
        """DB offset of the key's slot, assigning one on first write.

        Assignment is sequential in first-write order — deterministic,
        because the coordinator stages commits in commit order.
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

    def stage(
        self, items: Sequence[Tuple[bytes, bytes]], commit_ts: int, txid: int
    ) -> List[Tuple[int, bytes]]:
        """A commit's writes for this group as ``(db offset, version
        record)`` changes, assigning each new key its slot. Yields
        nowhere, so the coordinator stages at validation, in commit
        order."""
        changes = []
        for key, value in items:
            record = encode_version_record(commit_ts, txid, key, value)
            if len(record) > self.slot_size:
                raise ValueError(
                    f"{self.name}: versioned record of {len(record)}B "
                    f"exceeds slot of {self.slot_size}B"
                )
            changes.append((self.slot_offset(key), record))
        return changes

    def fits(self, staged: Sequence[List[Tuple[int, bytes]]]) -> bool:
        """Whether staged commits fit one WAL record together."""
        changes = [change for changes in staged for change in changes]
        size = LogRecord.make(0, changes).serialized_size
        return size <= self.layout.wal_size // 2

    def post_install(
        self, task: Task, staged: Sequence[List[Tuple[int, bytes]]]
    ) -> Generator:
        """Post the install of staged commits as one WAL record, in
        commit order (a later commit's write to a slot lands after an
        earlier one's): the group's changes apply atomically on all
        replicas, in one ack wait — the record and its slot images
        (:meth:`ReplicatedLog.post_executed`). Returns the append to
        ``wait`` on, which holds the WAL mutex until then. The head
        advance is owed: the next post on the log carries it ahead of
        its own ops. Visibility is separate: the certifier publishes a
        commit (:meth:`VersionIndex.publish`) once *every* participant
        installed it.
        """
        return (yield from self.log.post_executed(
            task, [change for changes in staged for change in changes]
        ))

    # -- durable reads -------------------------------------------------------------

    def post_durable(
        self, task: Task, keys: Sequence[bytes], replica: int
    ) -> Generator:
        """Post one-sided reads of the keys' slots on a replica; returns
        the keys in the order the batch reads them and the
        :class:`~repro.rdma.reader.PostedReads` to ``wait`` on, whose
        bytes :func:`decode_durable` decodes. Every key must have a
        slot (a published version has one).

        The slots go out as one batch in slot order — load and commit
        assign a group's slots in key order, so a scan's keys are
        almost always one run of adjacent slots, which the reader
        fetches with a single READ.
        """
        slots, size = self._slots, self.slot_size
        ordered = sorted(keys, key=slots.__getitem__)
        position = self.layout.db_position
        extents = [(position(slots[key] * size), size) for key in ordered]
        posted = yield from self.group.post_reads(task, replica, extents)
        return ordered, posted

    def read_durable_offline(self, replica: int, key: bytes):
        """Test/invariant hook: decode a replica's slot without the sim."""
        index = self._slots.get(key)
        if index is None:
            return None
        raw = self.group.read_replica(
            replica, self.layout.db_position(index * self.slot_size), self.slot_size
        )
        return _decode_slot(raw, key)

    # -- failover ------------------------------------------------------------------

    def rebind(self, new_group) -> None:
        """Point the store's log at the repaired group
        (:meth:`ReplicatedLog.rebind`: head/tail survive, the WAL mutex
        a parked commit may hold forever does not)."""
        self.log.rebind(new_group)

    def recover(self, task: Task) -> Generator:
        """Post-repair cleanup: execute whatever the client mirror says
        is pending (orphans included; readers ignore them by version
        metadata), post the zombie scrub :meth:`rebind` queued and make
        the head durable, so no replica is left with anything to redo.
        No lock to break: an install takes none. Returns the number of
        records drained."""
        executed, _ = yield from self.log.drain(task)
        yield from self.log.truncate(task, up_to=self.log.head)
        return executed

    def __repr__(self) -> str:
        return (
            f"<VersionedGroupStore {self.name} keys={len(self._slots)} "
            f"installs={self.installs}>"
        )
