"""Property-based tests (hypothesis) on core data structures."""

import random
import struct

from hypothesis import given, settings, strategies as st

from repro.bench.harness import LatencyRecorder
from repro.hw.memory import MemorySystem, WriteCache
from repro.hw.wqe import FLAG_SGL, FLAG_SIGNALED, FLAG_VALID, Opcode, Wqe, WQE_SIZE
from repro.storage.encoding import decode_document, encode_document
from repro.storage.kvstore import decode_kv_op, encode_kv_op
from repro.storage.wal import LogRecord, scan_records
from repro.workloads.ycsb import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    ZipfianGenerator,
)


# -- WQE format --------------------------------------------------------------

wqe_strategy = st.builds(
    Wqe,
    opcode=st.integers(0, 7),
    flags=st.integers(0, 7),
    length=st.integers(0, 2**32 - 1),
    local_addr=st.integers(0, 2**64 - 1),
    remote_addr=st.integers(0, 2**64 - 1),
    rkey=st.integers(0, 2**32 - 1),
    lkey=st.integers(0, 2**32 - 1),
    compare=st.integers(0, 2**64 - 1),
    swap=st.integers(0, 2**64 - 1),
    wr_id=st.integers(0, 2**64 - 1),
)


@given(wqe_strategy)
def test_wqe_pack_unpack_roundtrip(wqe):
    packed = wqe.pack()
    assert len(packed) == WQE_SIZE
    assert Wqe.unpack(packed) == wqe


@given(wqe_strategy, st.integers(0, WQE_SIZE - 1), st.integers(0, 255))
def test_wqe_single_byte_patch_changes_only_that_field(wqe, offset, value):
    """Remote WQE manipulation patches individual bytes; re-packing
    the decoded struct must reproduce the patched bytes exactly."""
    packed = bytearray(wqe.pack())
    packed[offset] = value
    decoded = Wqe.unpack(bytes(packed))
    repacked = bytearray(decoded.pack())
    # Reserved fields are not represented; ignore them.
    for skip in (2, 3, *range(56, 64)):
        repacked[skip] = packed[skip]
    assert bytes(repacked) == bytes(packed)


# -- WAL records ---------------------------------------------------------------

entries_strategy = st.lists(
    st.tuples(st.integers(0, 2**32), st.binary(min_size=0, max_size=200)),
    min_size=0,
    max_size=8,
)


@given(st.integers(0, 2**40), entries_strategy)
def test_log_record_roundtrip(lsn, changes):
    record = LogRecord.make(lsn, changes)
    raw = record.serialize()
    assert len(raw) % 8 == 0
    assert len(raw) == record.serialized_size
    assert LogRecord.deserialize(raw) == record


@given(st.lists(entries_strategy, min_size=1, max_size=10))
def test_wal_scan_recovers_everything_written(record_changes):
    wal_size = 1 << 16
    area = bytearray(wal_size)
    cursor = 0
    records = []
    for lsn, changes in enumerate(record_changes):
        record = LogRecord.make(lsn, changes)
        raw = record.serialize()
        area[cursor : cursor + len(raw)] = raw
        cursor += len(raw)
        records.append(record)
    found = [record for _, record in scan_records(bytes(area), 0, 0, wal_size, cursor)]
    assert found == records


@given(entries_strategy.filter(lambda c: sum(len(d) for _, d in c) > 0), st.data())
def test_torn_record_never_deserializes(changes, data):
    """Any single flipped bit in a record makes it invisible to
    recovery rather than silently wrong."""
    record = LogRecord.make(1, changes)
    raw = bytearray(record.serialize())
    bit = data.draw(st.integers(0, len(raw) * 8 - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    decoded = LogRecord.deserialize(bytes(raw))
    assert decoded is None or decoded == record  # flipped padding bit is fine


# -- KV op encoding ---------------------------------------------------------------

@given(
    st.sampled_from([1, 2]),
    st.binary(min_size=1, max_size=100),
    st.binary(min_size=0, max_size=500),
)
def test_kv_op_roundtrip(op, key, value):
    assert decode_kv_op(encode_kv_op(op, key, value)) == (op, key, value)


# -- Document encoding --------------------------------------------------------------

documents = st.dictionaries(
    st.text(min_size=1, max_size=20),
    st.one_of(
        st.binary(max_size=200),
        st.text(max_size=100),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
    ),
    max_size=10,
)


@given(documents)
def test_document_roundtrip(doc):
    assert decode_document(encode_document(doc)) == doc


@given(documents)
def test_document_encoding_deterministic(doc):
    assert encode_document(doc) == encode_document(doc)


# -- Write cache vs a reference durability model ---------------------------------------

cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 200), st.binary(min_size=1, max_size=32)),
        st.tuples(st.just("flush"), st.just(0), st.just(b"")),
    ),
    max_size=30,
)


@given(cache_ops)
def test_write_cache_matches_reference_model(ops):
    """Coherent view always equals all writes applied; after drop(),
    memory equals the last flushed (durable) prefix of writes."""
    memory = MemorySystem(dram_size=64, nvm_size=512)
    cache = WriteCache(memory)
    base = memory.nvm_base
    durable = bytearray(512)
    coherent = bytearray(512)
    for kind, offset, payload in ops:
        if kind == "write":
            cache.write(base + offset, payload)
            coherent[offset : offset + len(payload)] = payload
        else:
            cache.flush_all()
            durable[:] = coherent
    assert memory.read(base, 512) == bytes(coherent)
    cache.drop()
    assert memory.read(base, 512) == bytes(durable)


# -- Percentiles vs sorted-list definition ------------------------------------------------

@given(st.lists(st.integers(0, 10**9), min_size=1, max_size=500))
def test_latency_recorder_percentiles_are_order_statistics(samples):
    recorder = LatencyRecorder()
    for sample in samples:
        recorder.record(sample)
    stats = recorder.stats()
    values = sorted(sample / 1000.0 for sample in samples)
    assert values[0] <= stats.p50 <= values[-1]
    assert stats.p50 <= stats.p95 <= stats.p99 <= values[-1]
    assert stats.minimum == values[0]
    assert stats.maximum == values[-1]
    # Mean may differ from the bounds by float-summation rounding.
    epsilon = 1e-9 * max(abs(values[0]), abs(values[-1]), 1.0)
    assert values[0] - epsilon <= stats.mean <= values[-1] + epsilon


# -- YCSB generators -----------------------------------------------------------------------

@given(st.integers(1, 10_000), st.integers(0, 2**32))
@settings(max_examples=30)
def test_zipfian_always_in_range(item_count, seed):
    gen = ZipfianGenerator(item_count, random.Random(seed))
    assert all(0 <= gen.next() < item_count for _ in range(200))


@given(st.integers(1, 10_000), st.integers(0, 2**32))
@settings(max_examples=30)
def test_scrambled_zipfian_always_in_range(item_count, seed):
    gen = ScrambledZipfianGenerator(item_count, random.Random(seed))
    assert all(0 <= gen.next() < item_count for _ in range(200))


@given(st.integers(1, 10_000), st.integers(0, 2**32))
@settings(max_examples=30)
def test_latest_always_in_range(item_count, seed):
    gen = LatestGenerator(item_count, random.Random(seed))
    assert all(0 <= gen.next() < item_count for _ in range(200))
