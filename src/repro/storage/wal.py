"""Write-ahead log: record format and region layout.

Matches §5's description: "Each log record is a redo-log and
structured as a list of modifications to the database. Each entry in
the list contains a 3-tuple of (data, len, offset) representing that
data of length len is to be copied at offset in the database."

The replicated region of a storage system is laid out as::

    0                 lock word (8 bytes, group lock)
    64                WAL header: head u64 (byte offset into the
                      WAL area, monotonically increasing; physical
                      position is offset % wal_size), LSN at head u64
    128               WAL area (ring buffer of serialized records)
    128 + wal_size    database area

Record wire format::

    magic u32 | crc u32 | lsn u64 | n_entries u16 | body_len u32 | entries...
    entry: db_offset u64 | len u32 | data bytes

Records are padded to 8-byte alignment. The CRC covers lsn, entry
count, body length and the body, so a record torn by a power failure
mid-write never deserializes; a record whose magic does not match
terminates recovery scans (unwritten space).

No tail is stored: the log ends wherever :func:`scan_records` stops,
walking from the head with consecutive LSNs (RocksDB's WAL recovery
likewise reads up to the first bad record).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

__all__ = [
    "HEADER_SIZE",
    "ENTRY_SIZE",
    "WAL_HEADER",
    "LogEntry",
    "LogRecord",
    "RegionLayout",
    "RECORD_MAGIC",
    "WRAP_MAGIC",
    "scan_records",
]

RECORD_MAGIC = 0x57414C52  # "WALR"
WRAP_MAGIC = 0x57524150  # "WRAP": rest of the ring lap is padding

WAL_HEADER = struct.Struct("<QQ")  # the region's WAL header: head, LSN at head
_HEADER = struct.Struct("<IIQHI")  # magic, crc, lsn, n_entries, body_len
HEADER_SIZE = _HEADER.size
ENTRY_SIZE = 12
_ENTRY = struct.Struct("<QI")  # db_offset, len


@dataclass(frozen=True)
class LogEntry:
    """One modification: copy ``data`` to ``db_offset`` in the DB area."""

    db_offset: int
    data: bytes

    @property
    def length(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class LogRecord:
    """A redo-log record: the atomic unit of a transaction."""

    lsn: int
    entries: Tuple[LogEntry, ...]

    def serialize(self) -> bytes:
        """Pack to the on-NVM wire format (8-byte aligned)."""
        body = b"".join(
            _ENTRY.pack(entry.db_offset, entry.length) + entry.data
            for entry in self.entries
        )
        crc = zlib.crc32(
            struct.pack("<QHI", self.lsn, len(self.entries), len(body)) + body
        )
        raw = _HEADER.pack(RECORD_MAGIC, crc, self.lsn, len(self.entries), len(body)) + body
        if len(raw) % 8:
            raw += bytes(8 - len(raw) % 8)
        return raw

    @property
    def serialized_size(self) -> int:
        size = _HEADER.size + sum(_ENTRY.size + entry.length for entry in self.entries)
        return size + (-size % 8)

    @classmethod
    def deserialize(
        cls, raw, start: int = 0, end: Optional[int] = None
    ) -> Optional["LogRecord"]:
        """Decode the record at ``raw[start:end]``; ``None`` if no valid
        record starts there (unwritten or torn space).

        ``raw`` is any buffer (bytes, bytearray, memoryview) and is
        decoded in place: only entry payloads are copied out, so a
        scan over a large ring does not copy the ring per record.
        """
        if end is None:
            end = len(raw)
        if end - start < _HEADER.size:
            return None
        magic, crc, lsn, n_entries, body_len = _HEADER.unpack_from(raw, start)
        if magic != RECORD_MAGIC:
            return None
        cursor = start + _HEADER.size
        if cursor + body_len > end:
            return None
        view = memoryview(raw)
        expected = zlib.crc32(
            view[cursor : cursor + body_len],
            zlib.crc32(struct.pack("<QHI", lsn, n_entries, body_len)),
        )
        if crc != expected:
            return None
        entries: List[LogEntry] = []
        for _ in range(n_entries):
            if cursor + _ENTRY.size > end:
                return None
            db_offset, length = _ENTRY.unpack_from(raw, cursor)
            cursor += _ENTRY.size
            if cursor + length > end:
                return None
            entries.append(LogEntry(db_offset, bytes(view[cursor : cursor + length])))
            cursor += length
        return cls(lsn=lsn, entries=tuple(entries))

    @classmethod
    def make(cls, lsn: int, changes: List[Tuple[int, bytes]]) -> "LogRecord":
        """Build a record from ``(db_offset, data)`` pairs."""
        return cls(lsn=lsn, entries=tuple(LogEntry(o, d) for o, d in changes))


@dataclass(frozen=True)
class RegionLayout:
    """Byte layout of a storage system's replicated region."""

    wal_size: int
    db_size: int
    lock_offset: int = 0
    header_offset: int = 64

    @classmethod
    def for_region(cls, size: int) -> "RegionLayout":
        """The default split of a region: a quarter WAL, the rest DB."""
        return cls(wal_size=size // 4, db_size=size - size // 4 - 128)

    @property
    def wal_offset(self) -> int:
        return 128

    @property
    def db_offset(self) -> int:
        return self.wal_offset + self.wal_size

    @property
    def region_size(self) -> int:
        return self.db_offset + self.db_size

    @property
    def head_offset(self) -> int:
        """Region offset of the WAL head pointer."""
        return self.header_offset

    def wal_position(self, logical: int) -> int:
        """Region offset for a logical (monotonic) WAL offset."""
        return self.wal_offset + (logical % self.wal_size)

    def db_position(self, db_offset: int) -> int:
        """Region offset for a database-area offset."""
        if db_offset < 0 or db_offset >= self.db_size:
            raise ValueError(f"db offset {db_offset} outside db of {self.db_size}")
        return self.db_offset + db_offset

    def contiguous_room(self, logical_tail: int) -> int:
        """Bytes until the WAL ring wraps, from a logical offset.

        Records never straddle the wrap point; appends that would wrap
        skip to the ring start (callers pad via :class:`LogRecord`
        framing: a scan hitting non-magic bytes at the old position
        jumps to the wrap).
        """
        return self.wal_size - (logical_tail % self.wal_size)


def scan_records(
    raw, start: int, lsn: int, wal_size: int, end: Optional[int] = None
) -> Iterator[Tuple[int, "LogRecord"]]:
    """Iterate ``(logical_offset, record)`` over WAL bytes, from the
    record at logical offset ``start`` whose LSN is ``lsn``.

    ``raw`` is the whole WAL area (any buffer; a live memoryview is
    fine, records are decoded in place and lazily). Writers stamp
    :data:`WRAP_MAGIC` where a record would have straddled the ring
    end; the scan follows those markers and stops at the first record
    that is torn or unwritten, is not the next LSN (a record left from
    an older lap of the ring), or would end past ``end`` — by default
    one lap past ``start``; a scan resuming mid-log passes one lap past
    the head.
    """
    if end is None:
        end = start + wal_size
    raw = memoryview(raw)
    logical = start
    while logical < end:
        position = logical % wal_size
        room = wal_size - position
        if room < 4:
            logical += room
            continue
        (magic,) = struct.unpack_from("<I", raw, position)
        if magic == WRAP_MAGIC:
            logical += room
            continue
        if magic != RECORD_MAGIC:
            return
        record = LogRecord.deserialize(raw, position, wal_size)
        if record is None or record.lsn != lsn:
            return
        size = record.serialized_size
        if logical + size > end:
            return
        yield logical, record
        logical += size
        lsn += 1
