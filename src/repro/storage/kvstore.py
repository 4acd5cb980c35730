"""Replicated persistent key-value store (the §5.1 RocksDB case study).

Mirrors how the paper modifies RocksDB:

* All requests are served from an in-memory table on the front end
  (client); a durable, **replicated** write-ahead log provides
  persistence: every mutation is an ``Append`` — a gWRITE (+gFLUSH)
  of the serialized record into every replica's NVM.
* Replica CPUs never touch the write path. They wake periodically
  *off the critical path* to bring their in-memory snapshot in sync
  with the NVM log, so reads served from backups are eventually
  consistent (§5.1).
* Writer threads meet at the WAL mutex and are group-committed there
  (:mod:`repro.storage.log`): a put still returns only once its own
  record and a tail covering it are durable on every replica.
* A checkpoint serializes the memtable into the database area
  (replicated) and truncates the log to the cut the image was taken
  at, so puts may race it.

WAL records for the KV store carry serialized *operations* (put or
delete), replayed into memtables — the log-as-operations style
RocksDB uses — rather than raw byte patches.
"""

from __future__ import annotations

import bisect
import struct
from typing import Dict, Generator, List, Optional, Tuple

from ..core.chain import GWRITE, OpSpec
from ..hw.cpu import Task
from ..sim import MS, US
from .log import ReplicatedLog
from .wal import RegionLayout, scan_records

__all__ = ["ReplicatedKVStore", "decode_kv_op", "encode_kv_op"]

_OP_PUT = 1
_OP_DELETE = 2
_OP_HEADER = struct.Struct("<BHI")  # op, key length, value length
_CHECKPOINT_MAGIC = 0x434B5056  # "CKPV"


def encode_kv_op(op: int, key: bytes, value: bytes = b"") -> bytes:
    """Serialize one KV mutation for the WAL."""
    if len(key) > 0xFFFF:
        raise ValueError("key too long")
    return _OP_HEADER.pack(op, len(key), len(value)) + key + value


def decode_kv_op(raw: bytes) -> Tuple[int, bytes, bytes]:
    """Inverse of :func:`encode_kv_op`."""
    op, klen, vlen = _OP_HEADER.unpack_from(raw, 0)
    cursor = _OP_HEADER.size
    key = bytes(raw[cursor : cursor + klen])
    value = bytes(raw[cursor + klen : cursor + klen + vlen])
    return op, key, value


class _Memtable:
    """Sorted in-memory table (dict + sorted key list for scans)."""

    def __init__(self):
        self._data: Dict[bytes, bytes] = {}
        self._keys: List[bytes] = []

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: bytes) -> Optional[bytes]:
        return self._data.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        if key not in self._data:
            bisect.insort(self._keys, key)
        self._data[key] = value

    def delete(self, key: bytes) -> None:
        if key in self._data:
            del self._data[key]
            index = bisect.bisect_left(self._keys, key)
            del self._keys[index]

    def scan(self, start: bytes, count: int) -> List[Tuple[bytes, bytes]]:
        index = bisect.bisect_left(self._keys, start)
        keys = self._keys[index : index + count]
        return [(key, self._data[key]) for key in keys]

    def items(self) -> List[Tuple[bytes, bytes]]:
        return [(key, self._data[key]) for key in self._keys]

    def apply(self, op: int, key: bytes, value: bytes) -> None:
        if op == _OP_PUT:
            self.put(key, value)
        elif op == _OP_DELETE:
            self.delete(key)
        else:
            raise ValueError(f"bad kv op {op}")


class ReplicatedKVStore:
    """A RocksDB-like store over a replication group.

    Parameters
    ----------
    group:
        HyperLoopGroup or NaiveGroup. Its region must be at least
        ``layout.region_size``.
    layout:
        WAL/DB split of the region. The DB area must hold a full
        checkpoint of the working set.
    sync_interval:
        How often replica CPUs wake to replay new log records into
        their local memtables (off the critical path).
    """

    # CPU costs of the library code (a thin C++ library, not a server).
    PUT_CPU_NS = 2_000
    GET_CPU_NS = 1_200
    SCAN_CPU_NS_PER_ITEM = 150
    REPLAY_CPU_NS = 800

    def __init__(
        self,
        group,
        layout: Optional[RegionLayout] = None,
        sync_interval: int = 1 * MS,
        start_sync_tasks: bool = True,
        name: str = "kv",
    ):
        self.group = group
        self.layout = layout or RegionLayout(
            wal_size=group.region_size // 2,
            db_size=group.region_size // 2 - 128,
        )
        self.log = ReplicatedLog(group, self.layout)
        self.name = name
        self.sync_interval = sync_interval
        self.memtable = _Memtable()
        self.puts = 0
        self.deletes = 0
        self.checkpoint_lsn = -1
        self._replica_memtables: List[_Memtable] = [
            _Memtable() for _ in range(group.group_size)
        ]
        self._replica_synced: List[int] = [0] * group.group_size
        self._sync_tasks = []
        if start_sync_tasks:
            for index in range(group.group_size):
                task = group.replicas[index].os.spawn(
                    self._sync_body(index), name=f"{name}.r{index}.sync"
                )
                self._sync_tasks.append(task)

    # -- client operations -------------------------------------------------------

    def put(self, task: Task, key: bytes, value: bytes) -> Generator:
        """Insert or update; durable on all replicas when it returns."""
        yield from task.compute(self.PUT_CPU_NS + len(value) // 16)
        record = encode_kv_op(_OP_PUT, key, value)
        yield from self.log.append(task, [(0, record)])
        self.memtable.put(key, value)
        self.puts += 1

    def put_batch(self, task: Task, items: List[Tuple[bytes, bytes]]) -> Generator:
        """Atomically write several pairs in one WAL record.

        The RocksDB WriteBatch pattern: one replicated append covers
        the whole batch, amortizing the chain round trip — the batch
        is either entirely durable everywhere or not at all.
        """
        if not items:
            raise ValueError("empty batch")
        total = sum(len(value) for _, value in items)
        yield from task.compute(self.PUT_CPU_NS + total // 16)
        changes = [(0, encode_kv_op(_OP_PUT, key, value)) for key, value in items]
        yield from self.log.append(task, changes)
        for key, value in items:
            self.memtable.put(key, value)
        self.puts += len(items)

    def delete(self, task: Task, key: bytes) -> Generator:
        """Delete; durable on all replicas when it returns."""
        yield from task.compute(self.PUT_CPU_NS)
        record = encode_kv_op(_OP_DELETE, key)
        yield from self.log.append(task, [(0, record)])
        self.memtable.delete(key)
        self.deletes += 1

    def get(self, task: Task, key: bytes) -> Generator:
        """Read from the front end's authoritative memtable."""
        yield from task.compute(self.GET_CPU_NS)
        return self.memtable.get(key)

    def scan(self, task: Task, start: bytes, count: int) -> Generator:
        """Range scan from the front end's memtable."""
        yield from task.compute(self.GET_CPU_NS + self.SCAN_CPU_NS_PER_ITEM * count)
        return self.memtable.scan(start, count)

    def get_eventual(self, replica: int, key: bytes) -> Optional[bytes]:
        """Read a backup's (eventually consistent) memtable (§5.1:
        "reads from other replicas are eventually consistent")."""
        return self._replica_memtables[replica].get(key)

    # -- checkpoint / truncation ----------------------------------------------------

    def checkpoint(self, task: Task) -> Generator:
        """Dump the memtable into the DB area and truncate the log.

        This is the (coarse-grained, off-the-critical-path) analogue
        of RocksDB dumping the memtable and truncating the WAL. Puts
        may race it: the image and the truncation point are one cut —
        the memtable holds exactly the records below ``cut_tail`` —
        so a put that lands while the image is being written stays in
        the log behind it.
        """
        cut_lsn, cut_tail = yield from self.log.cut(task)
        items = self.memtable.items()
        blob = struct.pack("<IIq", _CHECKPOINT_MAGIC, len(items), cut_lsn)
        parts = [blob]
        for key, value in items:
            parts.append(struct.pack("<HI", len(key), len(value)) + key + value)
        image = b"".join(parts)
        if len(image) > self.layout.db_size:
            raise RuntimeError("checkpoint larger than the DB area")
        yield from task.compute(50 * US + len(image) // 8)
        # The chunks go out back to back on the gWRITE chain and are
        # waited for once; the truncating header is posted only after
        # the whole image is acked.
        base = self.layout.db_position(0)
        chunk = 8192
        writes = []
        for offset in range(0, len(image), chunk):
            piece = image[offset : offset + chunk]
            self.group.write_local(base + offset, piece)
            writes.append(OpSpec(GWRITE, offset=base + offset, size=len(piece)))
        yield from self.log.post_and_wait(task, writes)
        yield from self.log.truncate(task, up_to=cut_tail)
        self.checkpoint_lsn = cut_lsn

    # -- replica-side sync (off the critical path) --------------------------------------

    def _sync_body(self, index: int):
        def body(task: Task) -> Generator:
            while True:
                yield from task.sleep(self.sync_interval)
                applied = self.sync_replica(index)
                if applied:
                    yield from task.compute(self.REPLAY_CPU_NS * applied)

        return body

    def sync_replica(self, index: int) -> int:
        """Replay new WAL records into a replica's memtable.

        Returns the number of records applied (the caller charges the
        CPU). Reads the replica's own NVM — purely local work.
        """
        header = self.group.read_replica(index, self.layout.head_offset, 16)
        head, tail = struct.unpack("<QQ", header)
        memtable = self._replica_memtables[index]
        applied = 0
        if head > self._replica_synced[index]:
            # The log was truncated past our replay position: a
            # checkpoint covers the gap. Reload the snapshot from the
            # (replicated, durable) DB area, then continue from head.
            applied += self._load_checkpoint(index, memtable)
        synced = max(self._replica_synced[index], head)
        if synced >= tail:
            self._replica_synced[index] = max(self._replica_synced[index], head)
            return applied
        raw = self.group.read_replica(index, self.layout.wal_offset, self.layout.wal_size)
        for _, record in scan_records(raw, synced, tail, self.layout.wal_size):
            for entry in record.entries:
                op, key, value = decode_kv_op(entry.data)
                memtable.apply(op, key, value)
            applied += 1
        self._replica_synced[index] = tail
        return applied

    def _load_checkpoint(self, index: int, memtable: _Memtable) -> int:
        """Replace ``memtable`` contents with a replica's checkpoint
        image. Returns the number of records loaded."""
        raw = self.group.read_replica(
            index, self.layout.db_position(0), self.layout.db_size
        )
        magic, count, _ckpt_lsn = struct.unpack_from("<IIq", raw, 0)
        if magic != _CHECKPOINT_MAGIC:
            return 0
        fresh = _Memtable()
        cursor = 16
        for _ in range(count):
            klen, vlen = struct.unpack_from("<HI", raw, cursor)
            cursor += 6
            key = bytes(raw[cursor : cursor + klen])
            cursor += klen
            value = bytes(raw[cursor : cursor + vlen])
            cursor += vlen
            fresh.put(key, value)
        self._replica_memtables[index] = fresh
        memtable._data = fresh._data
        memtable._keys = fresh._keys
        return count

    # -- recovery --------------------------------------------------------------------------

    def recover_from_replica(self, replica: int) -> Dict[bytes, bytes]:
        """Rebuild the full table from one replica's durable state.

        Loads the checkpoint image from the DB area, then replays the
        WAL from the durable head — the §5.1 recovery flow ("a new
        member copies the log and the database ... catch-up phase").
        """
        memtable = _Memtable()
        raw = self.group.read_replica(
            replica, self.layout.db_position(0), self.layout.db_size
        )
        magic, count, _ckpt_lsn = struct.unpack_from("<IIq", raw, 0)
        cursor = 16
        if magic == _CHECKPOINT_MAGIC:
            for _ in range(count):
                klen, vlen = struct.unpack_from("<HI", raw, cursor)
                cursor += 6
                key = bytes(raw[cursor : cursor + klen])
                cursor += klen
                value = bytes(raw[cursor : cursor + vlen])
                cursor += vlen
                memtable.put(key, value)
        header = self.group.read_replica(replica, self.layout.head_offset, 16)
        head, tail = struct.unpack("<QQ", header)
        wal = self.group.read_replica(replica, self.layout.wal_offset, self.layout.wal_size)
        for _, record in scan_records(wal, head, tail, self.layout.wal_size):
            for entry in record.entries:
                op, key, value = decode_kv_op(entry.data)
                memtable.apply(op, key, value)
        return dict(memtable.items())
