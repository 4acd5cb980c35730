"""Unit tests for the WAL format (repro.storage.wal)."""

import struct

import pytest

from repro.storage.wal import (
    LogEntry,
    LogRecord,
    RECORD_MAGIC,
    RegionLayout,
    WRAP_MAGIC,
    scan_records,
)


class TestLogRecord:
    def test_roundtrip(self):
        record = LogRecord.make(7, [(100, b"hello"), (200, b"world!")])
        decoded = LogRecord.deserialize(record.serialize())
        assert decoded == record

    def test_serialized_size_matches(self):
        record = LogRecord.make(1, [(0, b"x" * 13)])
        assert len(record.serialize()) == record.serialized_size

    def test_eight_byte_alignment(self):
        for length in range(1, 20):
            record = LogRecord.make(0, [(0, b"a" * length)])
            assert record.serialized_size % 8 == 0

    def test_empty_record(self):
        record = LogRecord.make(3, [])
        decoded = LogRecord.deserialize(record.serialize())
        assert decoded.lsn == 3 and decoded.entries == ()

    def test_bad_magic_returns_none(self):
        raw = bytearray(LogRecord.make(0, [(0, b"data")]).serialize())
        raw[0] ^= 0xFF
        assert LogRecord.deserialize(bytes(raw)) is None

    def test_truncated_body_returns_none(self):
        raw = LogRecord.make(0, [(0, b"data" * 10)]).serialize()
        assert LogRecord.deserialize(raw[: len(raw) - 8]) is None

    def test_torn_write_detected(self):
        """A record whose tail was lost to a power failure must not
        deserialize successfully."""
        raw = bytearray(LogRecord.make(5, [(64, b"p" * 32)]).serialize())
        torn = raw[:20] + bytes(len(raw) - 20)  # tail zeroed
        assert LogRecord.deserialize(bytes(torn)) is None


class TestRegionLayout:
    def test_offsets_are_disjoint_and_ordered(self):
        layout = RegionLayout(wal_size=4096, db_size=8192)
        assert layout.lock_offset < layout.header_offset < layout.wal_offset
        assert layout.wal_offset + layout.wal_size == layout.db_offset
        assert layout.region_size == layout.db_offset + 8192

    def test_wal_position_wraps(self):
        layout = RegionLayout(wal_size=1024, db_size=0x1000)
        assert layout.wal_position(0) == layout.wal_offset
        assert layout.wal_position(1024) == layout.wal_offset
        assert layout.wal_position(1030) == layout.wal_offset + 6

    def test_db_position_bounds(self):
        layout = RegionLayout(wal_size=1024, db_size=100)
        with pytest.raises(ValueError):
            layout.db_position(100)
        assert layout.db_position(99) == layout.db_offset + 99

    def test_contiguous_room(self):
        layout = RegionLayout(wal_size=1000, db_size=0)
        assert layout.contiguous_room(0) == 1000
        assert layout.contiguous_room(900) == 100
        assert layout.contiguous_room(2900) == 100


class TestScan:
    def _wal_with(self, records, wal_size=4096):
        area = bytearray(wal_size)
        cursor = 0
        for record in records:
            raw = record.serialize()
            area[cursor : cursor + len(raw)] = raw
            cursor += len(raw)
        return bytes(area), cursor

    def test_scan_yields_all_records(self):
        records = [LogRecord.make(i, [(i * 10, bytes([i]) * 8)]) for i in range(5)]
        raw, end = self._wal_with(records)
        found = list(scan_records(raw, 0, end, 4096))
        assert [record.lsn for _, record in found] == [0, 1, 2, 3, 4]

    def test_scan_respects_start(self):
        records = [LogRecord.make(i, [(0, b"12345678")]) for i in range(3)]
        raw, end = self._wal_with(records)
        size = records[0].serialized_size
        found = list(scan_records(raw, size, end, 4096))
        assert [record.lsn for _, record in found] == [1, 2]

    def test_scan_stops_at_torn_space(self):
        records = [LogRecord.make(i, [(0, b"abcdefgh")]) for i in range(3)]
        raw, end = self._wal_with(records)
        corrupted = bytearray(raw)
        corrupted[records[0].serialized_size] ^= 0xFF  # wreck record 1
        found = list(scan_records(bytes(corrupted), 0, end, 4096))
        assert [record.lsn for _, record in found] == [0]

    def test_scan_follows_wrap_marker(self):
        wal_size = 256
        area = bytearray(wal_size)
        first = LogRecord.make(0, [(0, b"x" * 100)])
        raw0 = first.serialize()
        area[: len(raw0)] = raw0
        # Next record would not fit; writer stamps WRAP at the tail
        # position and continues at the ring start (a new lap).
        struct.pack_into("<I", area, len(raw0), WRAP_MAGIC)
        second = LogRecord.make(1, [(0, b"y" * 50)])
        logical_second = wal_size  # start of the next lap
        raw1 = second.serialize()
        area[:0] = b""  # no-op; write at position 0 of the ring
        area[0 : len(raw1)] = raw1
        end = logical_second + len(raw1)
        found = list(scan_records(bytes(area), len(raw0), end, wal_size))
        assert [record.lsn for _, record in found] == [1]


def _slicing_scan(raw, start, end, wal_size):
    """The pre-in-place scan, kept as the reference: it copies the rest
    of the ring for every record it decodes."""
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
        record = LogRecord.deserialize(bytes(raw[position : position + room]))
        if record is None:
            return
        yield logical, record
        logical += record.serialized_size


class TestScanInPlace:
    WAL_SIZE = 1 << 20

    def _two_lap_ring(self):
        """A 1 MiB ring written for two laps (so the scan crosses a
        wrap marker), ending in a record whose tail was torn off."""
        wal_size = self.WAL_SIZE
        area = bytearray(wal_size)
        tail = 0
        starts = []
        for lsn in range(1100):
            record = LogRecord.make(
                lsn, [(lsn * 8, bytes([lsn % 251]) * (900 + lsn % 700)), (8, b"tag")]
            )
            raw = record.serialize()
            room = wal_size - tail % wal_size
            if len(raw) > room:
                struct.pack_into("<I", area, tail % wal_size, WRAP_MAGIC)
                tail += room
            position = tail % wal_size
            area[position : position + len(raw)] = raw
            starts.append(tail)
            tail += len(raw)
        assert tail > wal_size  # second lap reached
        # Tear the last record: its header survives, its body does not.
        torn = starts[-1] % wal_size
        area[torn + 24 : torn + 64] = bytes(40)
        # Scan what is still in the ring: from the first record of the
        # final ring's worth of bytes.
        head = next(offset for offset in starts if offset >= tail - wal_size)
        return area, head, tail, starts

    def test_matches_slicing_reference_over_wrap_and_torn_tail(self):
        area, head, tail, starts = self._two_lap_ring()
        found = list(scan_records(area, head, tail, self.WAL_SIZE))
        assert found == list(_slicing_scan(area, head, tail, self.WAL_SIZE))
        offsets = [offset for offset, _ in found]
        assert offsets == [o for o in starts if o >= head][:-1]  # torn one dropped
        assert offsets[0] < self.WAL_SIZE <= offsets[-1]  # crossed the marker
        # Same answer from bytes, and from a live view of the ring.
        assert list(scan_records(bytes(area), head, tail, self.WAL_SIZE)) == found
        assert list(scan_records(memoryview(area), head, tail, self.WAL_SIZE)) == found

    def test_scan_never_copies_the_ring(self):
        import tracemalloc

        area, head, tail, _ = self._two_lap_ring()
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            count = sum(1 for _ in scan_records(area, head, tail, self.WAL_SIZE))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert count > 300
        # One decoded record is ~2 KiB; a single rest-of-ring slice
        # would be hundreds of KiB.
        assert peak - base < 32 * 1024

    def test_deserialize_at_offset_equals_deserialize_of_slice(self):
        record = LogRecord.make(9, [(16, b"abcdefgh"), (32, b"xyz")])
        raw = record.serialize()
        buffer = b"\xaa" * 24 + raw + b"\xbb" * 16
        assert LogRecord.deserialize(buffer, 24) == record
        assert LogRecord.deserialize(buffer, 24, 24 + len(raw)) == record
        # A limit inside the record is a truncated record.
        assert LogRecord.deserialize(buffer, 24, 24 + len(raw) - 8) is None
        assert LogRecord.deserialize(buffer, 8) is None  # no magic there
