"""Replicated document store (the §5.2 MongoDB case study).

The data path follows the paper's modified MongoDB exactly:

* every mutation is one :meth:`TransactionManager.transact
  <repro.storage.transactions.TransactionManager.transact>`: a journal
  (write-ahead log) record via ``Append`` (gWRITE + gFLUSH), then
  *executed* on all replicas via ``ExecuteAndAdvance`` (gMEMCPY per
  entry + head advance) under ``wrLock`` / ``wrUnlock`` so concurrent
  readers never observe a torn document (§5.2),
* reads are one-sided RDMA READs from a replica — lock-free by
  default, or guarded by a per-replica ``rdLock`` for sessions that
  need them.

The store lays out fixed-size document slots in the DB area, with the
directory (id → slot) kept by the front end. Document images are
self-validating (codec magic + length framing), which is what permits
the lock-free read mode the paper describes (detect & retry).
"""

from __future__ import annotations

import bisect
import struct
from typing import Dict, Generator, List, Optional, Sequence

from ..hw.cpu import Task
from ..sim import US
from .encoding import DocumentError, Value, decode_document, encode_document
from .transactions import TransactionManager
from .wal import RegionLayout

__all__ = ["ReplicatedDocStore", "DocStoreError"]

_SLOT_HEADER = struct.Struct("<IHI")  # magic, flags, image length
_SLOT_MAGIC = 0xD0C50107
_FLAG_TOMBSTONE = 0x1


class DocStoreError(RuntimeError):
    """Document-store level failures (full store, missing doc, ...)."""


class ReplicatedDocStore:
    """Document store over a replication group.

    Parameters
    ----------
    group:
        A :class:`~repro.core.base.GroupBase` group that runs every
        primitive (HyperLoop or Naïve).
    layout:
        Region layout; the DB area is carved into ``slot_size`` slots.
    slot_size:
        Bytes per document slot (header + encoded image).
    parse_ns:
        Front-end CPU per operation — query parsing, validation,
        translation. The paper measures this dominating what remains
        of MongoDB latency once replication is offloaded (§6.2).
    """

    READ_CPU_NS = 2_000
    INDEX_CPU_NS = 800

    def __init__(
        self,
        group,
        layout: Optional[RegionLayout] = None,
        slot_size: int = 1536,
        parse_ns: int = 60_000,
        writer_id: int = 1,
        indexes: Sequence[str] = (),
        name: str = "doc",
    ):
        self.group = group
        self.txn = TransactionManager(group, layout, writer_id)
        self.layout = self.txn.layout
        self.locks = self.txn.locks
        self.slot_size = slot_size
        self.parse_ns = parse_ns
        self.name = name
        self.n_slots = self.layout.db_size // slot_size
        if self.n_slots < 1:
            raise DocStoreError("DB area too small for a single slot")
        self._directory: Dict[bytes, int] = {}
        self._ordered_ids: List[bytes] = []
        self._free_slots: List[int] = list(range(self.n_slots - 1, -1, -1))
        self._indexes: Dict[str, Dict[Value, set]] = {
            field: {} for field in indexes
        }
        self.inserts = 0
        self.updates = 0
        self.reads = 0

    # -- slot helpers --------------------------------------------------------------

    def _slot_db_offset(self, slot: int) -> int:
        return slot * self.slot_size

    def _encode_slot(self, image: bytes, tombstone: bool = False) -> bytes:
        if _SLOT_HEADER.size + len(image) > self.slot_size:
            raise DocStoreError(
                f"document of {len(image)} bytes exceeds slot of {self.slot_size}"
            )
        flags = _FLAG_TOMBSTONE if tombstone else 0
        return _SLOT_HEADER.pack(_SLOT_MAGIC, flags, len(image)) + image

    @staticmethod
    def _decode_slot(raw: bytes) -> Optional[bytes]:
        """Returns the document image, or ``None`` for empty/tombstone.

        Raises :class:`DocumentError` on torn bytes — the integrity
        check lock-free readers rely on.
        """
        magic, flags, length = _SLOT_HEADER.unpack_from(raw, 0)
        if magic == 0 and flags == 0 and length == 0:
            return None
        if magic != _SLOT_MAGIC:
            raise DocumentError(f"bad slot magic {magic:#x}")
        if flags & _FLAG_TOMBSTONE:
            return None
        if _SLOT_HEADER.size + length > len(raw):
            raise DocumentError("slot image exceeds slot bounds")
        return bytes(raw[_SLOT_HEADER.size : _SLOT_HEADER.size + length])

    # -- mutations -----------------------------------------------------------------

    def insert(self, task: Task, doc_id: bytes, fields: Dict[str, Value]) -> Generator:
        """Insert a new document (durable + executed on all replicas)."""
        yield from task.compute(self.parse_ns)
        if doc_id in self._directory:
            raise DocStoreError(f"duplicate id {doc_id!r}")
        if not self._free_slots:
            raise DocStoreError("document store full")
        slot = self._free_slots.pop()
        fields = {"_id": doc_id, **fields}
        payload = self._encode_slot(encode_document(fields))
        yield from self.txn.transact(task, [(self._slot_db_offset(slot), payload)])
        self._directory[doc_id] = slot
        bisect.insort(self._ordered_ids, doc_id)
        yield from self._index_update(task, doc_id, None, fields)
        self.inserts += 1

    def update(self, task: Task, doc_id: bytes, fields: Dict[str, Value]) -> Generator:
        """Replace a document's fields (read-modify-write is
        :meth:`modify`)."""
        yield from task.compute(self.parse_ns)
        slot = self._require(doc_id)
        old_fields = self._local_document(doc_id)
        fields = {"_id": doc_id, **fields}
        payload = self._encode_slot(encode_document(fields))
        yield from self.txn.transact(task, [(self._slot_db_offset(slot), payload)])
        yield from self._index_update(task, doc_id, old_fields, fields)
        self.updates += 1

    def delete(self, task: Task, doc_id: bytes) -> Generator:
        """Delete a document (tombstone the slot)."""
        yield from task.compute(self.parse_ns)
        slot = self._require(doc_id)
        old_fields = self._local_document(doc_id)
        payload = self._encode_slot(b"", tombstone=True)
        yield from self.txn.transact(task, [(self._slot_db_offset(slot), payload)])
        del self._directory[doc_id]
        self._ordered_ids.remove(doc_id)
        self._free_slots.append(slot)
        yield from self._index_update(task, doc_id, old_fields, None)

    def _require(self, doc_id: bytes) -> int:
        slot = self._directory.get(doc_id)
        if slot is None:
            raise DocStoreError(f"no such document {doc_id!r}")
        return slot

    # -- reads -----------------------------------------------------------------------

    def read(
        self,
        task: Task,
        doc_id: bytes,
        replica: int = 0,
        lock: bool = False,
        max_retries: int = 8,
    ) -> Generator:
        """One-sided read of a document from a replica.

        Lock-free by default: torn images are detected by the codec
        framing and retried (the FaRM-style mode of §5.2). With
        ``lock=True``, a per-replica read lock brackets the READ so
        any replica can serve consistent reads under write load.
        """
        yield from task.compute(self.READ_CPU_NS)
        slot = self._require(doc_id)
        offset = self.layout.db_position(self._slot_db_offset(slot))
        if lock:
            yield from self.locks.rd_lock(task, replica)
        try:
            attempts = 0
            while True:
                raw = yield from self.group.pread(task, replica, offset, self.slot_size)
                try:
                    image = self._decode_slot(raw)
                    break
                except DocumentError:
                    attempts += 1
                    if attempts >= max_retries:
                        raise
                    yield from task.sleep(2 * US)
        finally:
            if lock:
                yield from self.locks.rd_unlock(task, replica)
        self.reads += 1
        if image is None:
            return None
        return decode_document(image)

    def read_local(self, task: Task, doc_id: bytes) -> Generator:
        """Read from the front end's own mirror (no network)."""
        yield from task.compute(self.READ_CPU_NS)
        slot = self._require(doc_id)
        offset = self.layout.db_position(self._slot_db_offset(slot))
        raw = self.group.client_region.read(offset, self.slot_size)
        image = self._decode_slot(raw)
        self.reads += 1
        return decode_document(image) if image is not None else None

    def scan(self, task: Task, start_id: bytes, count: int, replica: int = 0) -> Generator:
        """Ordered scan of up to ``count`` documents from ``start_id``.

        Reads each document one-sided from ``replica``.
        """
        yield from task.compute(self.parse_ns // 2)
        index = bisect.bisect_left(self._ordered_ids, start_id)
        ids = self._ordered_ids[index : index + count]
        documents = []
        for doc_id in ids:
            document = yield from self.read(task, doc_id, replica=replica)
            if document is not None:
                documents.append(document)
        return documents

    def modify(self, task: Task, doc_id: bytes, fields: Dict[str, Value]) -> Generator:
        """Read-modify-write (YCSB workload F's operation)."""
        current = yield from self.read(task, doc_id)
        if current is None:
            raise DocStoreError(f"modify of missing document {doc_id!r}")
        current.update(fields)
        current.pop("_id", None)
        yield from self.update(task, doc_id, current)

    # -- secondary indexes --------------------------------------------------------

    def _local_document(self, doc_id: bytes) -> Optional[Dict[str, Value]]:
        slot = self._directory.get(doc_id)
        if slot is None:
            return None
        offset = self.layout.db_position(self._slot_db_offset(slot))
        raw = self.group.client_region.read(offset, self.slot_size)
        image = self._decode_slot(raw)
        return decode_document(image) if image is not None else None

    def _index_update(
        self,
        task: Task,
        doc_id: bytes,
        old_fields: Optional[Dict[str, Value]],
        new_fields: Optional[Dict[str, Value]],
    ) -> Generator:
        if not self._indexes:
            return
        yield from task.compute(self.INDEX_CPU_NS)
        for field, mapping in self._indexes.items():
            old_value = old_fields.get(field) if old_fields else None
            new_value = new_fields.get(field) if new_fields else None
            if old_value == new_value:
                continue
            if old_value is not None and old_value in mapping:
                mapping[old_value].discard(doc_id)
                if not mapping[old_value]:
                    del mapping[old_value]
            if new_value is not None:
                mapping.setdefault(new_value, set()).add(doc_id)

    def create_index(self, task: Task, field: str) -> Generator:
        """Build a secondary index over ``field`` (front-end state,
        backfilled from the coordinator's mirror)."""
        if field in self._indexes:
            return
        mapping: Dict[Value, set] = {}
        yield from task.compute(
            self.INDEX_CPU_NS * max(len(self._directory), 1)
        )
        for doc_id in self._directory:
            document = self._local_document(doc_id)
            if document is not None and field in document:
                mapping.setdefault(document[field], set()).add(doc_id)
        self._indexes[field] = mapping

    def find(
        self,
        task: Task,
        field: str,
        value: Value,
        limit: int = 10,
        replica: int = 0,
    ) -> Generator:
        """Query by indexed field; documents come back via one-sided
        reads from ``replica`` (no replica CPU, like all reads)."""
        if field not in self._indexes:
            raise DocStoreError(f"no index on field {field!r}")
        yield from task.compute(self.READ_CPU_NS)
        doc_ids = sorted(self._indexes[field].get(value, ()))[:limit]
        documents = []
        for doc_id in doc_ids:
            document = yield from self.read(task, doc_id, replica=replica)
            if document is not None:
                documents.append(document)
        return documents

    # -- verification hooks ----------------------------------------------------------

    def peek_replica(self, replica: int, doc_id: bytes) -> Optional[Dict[str, Value]]:
        """Directly decode a document from a replica's memory (tests)."""
        slot = self._require(doc_id)
        offset = self.layout.db_position(self._slot_db_offset(slot))
        raw = self.group.read_replica(replica, offset, self.slot_size)
        image = self._decode_slot(raw)
        return decode_document(image) if image is not None else None

    def __len__(self) -> int:
        return len(self._directory)
