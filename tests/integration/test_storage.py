"""Integration tests for the storage layer (§5 case studies).

Covers the replicated log, group locks, the KV store, the document
store, the native MongoDB deployment, and failure/recovery — over
both the HyperLoop and Naïve-RDMA backends where it matters.
"""

import struct

import pytest

from repro.baseline import NaiveGroup
from repro.bench import run_until
from repro.core import HyperLoopGroup
from repro.hw import Cluster
from repro.sim import MS, Simulator, US
from repro.storage import (
    ChainRepair,
    DocStoreError,
    HeartbeatMonitor,
    LockManager,
    MongoServer,
    RegionLayout,
    ReplicatedDocStore,
    ReplicatedKVStore,
    ReplicatedLog,
    split_mongo,
)


def make_cluster(n_hosts=4, seed=17, cores=4):
    sim = Simulator(seed=seed)
    return sim, Cluster(sim, n_hosts=n_hosts, n_cores=cores)


def hl_group(cluster, **kwargs):
    defaults = dict(region_size=1 << 18, rounds=64, name="g")
    defaults.update(kwargs)
    return HyperLoopGroup(cluster[0], cluster.hosts[1:4], **defaults)


def drive(sim, cluster, body, until_ms=2000):
    done = {}

    def wrapper(task):
        done["r"] = yield from body(task)

    task = cluster[0].os.spawn(wrapper, "client")
    run_until(
        sim,
        lambda: "r" in done or task.process.triggered,
        deadline_ms=until_ms,
    )
    if task.process.triggered and not task.process.ok:
        raise task.process.value
    return done["r"]


class TestReplicatedLog:
    def test_append_lands_on_all_replicas(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        layout = RegionLayout(wal_size=8192, db_size=8192)
        log = ReplicatedLog(group, layout)

        def body(task):
            record = yield from log.append(task, [(0, b"payload-one")])
            return record

        record = drive(sim, cluster, body)
        assert record.lsn == 0
        recovered = ReplicatedLog.recover_replica(group, layout, 1)
        assert len(recovered) == 1
        assert recovered[0].entries[0].data == b"payload-one"

    def test_execute_and_advance_applies_to_db_area(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        layout = RegionLayout(wal_size=8192, db_size=8192)
        log = ReplicatedLog(group, layout)

        def body(task):
            yield from log.append(task, [(100, b"alpha"), (500, b"beta")])
            record = yield from log.execute_and_advance(task)
            return record

        record = drive(sim, cluster, body)
        assert record is not None
        for replica in range(3):
            assert group.read_replica(replica, layout.db_position(100), 5) == b"alpha"
            assert group.read_replica(replica, layout.db_position(500), 4) == b"beta"
        # Head advanced on all replicas.
        assert log.head == log.tail
        assert not log.pending_records()

    def test_head_record_is_first_pending_record(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        log = ReplicatedLog(group, RegionLayout(wal_size=8192, db_size=8192))
        assert log.head_record() is None

        def body(task):
            for i in range(3):
                yield from log.append(task, [(i * 16, bytes([i]) * 16)])
            before = (log.head_record(), log.pending_records())
            yield from log.execute_and_advance(task)
            return before, (log.head_record(), log.pending_records())

        (head0, pending0), (head1, pending1) = drive(sim, cluster, body)
        assert [record.lsn for _, record in pending0] == [0, 1, 2]
        assert head0 == pending0[0]
        assert pending1 == pending0[1:] and head1 == pending1[0]

    def test_execute_on_empty_log_returns_none(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        log = ReplicatedLog(group, RegionLayout(wal_size=8192, db_size=8192))

        def body(task):
            result = yield from log.execute_and_advance(task)
            yield from task.sleep(0)
            return ("none" if result is None else "some")

        assert drive(sim, cluster, body) == "none"

    def test_wal_ring_wraps_correctly(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        layout = RegionLayout(wal_size=1024, db_size=4096)
        log = ReplicatedLog(group, layout)

        def body(task):
            # Each record ~168 bytes; 12 appends force a wrap. Execute
            # between appends so the ring never fills.
            for i in range(12):
                yield from log.append(task, [(i * 16, bytes([i]) * 128)])
                yield from log.execute_and_advance(task)
            return True

        drive(sim, cluster, body, until_ms=5000)
        for replica in range(3):
            for i in range(12):
                data = group.read_replica(replica, layout.db_position(i * 16), 16)
                assert data == bytes([i]) * 16

    def test_wal_full_raises(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        log = ReplicatedLog(group, RegionLayout(wal_size=512, db_size=1024))

        def body(task):
            try:
                for i in range(10):
                    yield from log.append(task, [(0, b"z" * 100)])
            except RuntimeError as exc:
                return str(exc)
            return "no error"

        assert "WAL full" in drive(sim, cluster, body)

    def test_truncate_validates_bounds(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        log = ReplicatedLog(group, RegionLayout(wal_size=8192, db_size=1024))

        def body(task):
            yield from log.append(task, [(0, b"abc")])
            with pytest.raises(ValueError):
                yield from log.truncate(task, up_to=log.tail + 1)
            yield from log.truncate(task)
            return log.head == log.tail

        assert drive(sim, cluster, body)


class TestLockManager:
    def test_wr_lock_roundtrip(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        locks = LockManager(group)

        def body(task):
            yield from locks.wr_lock(task, 42)
            held = [locks.holder(replica) for replica in range(3)]
            yield from locks.wr_unlock(task, 42)
            free = [locks.holder(replica) for replica in range(3)]
            return held, free

        held, free = drive(sim, cluster, body)
        assert held == [42, 42, 42]
        assert free == [0, 0, 0]

    def test_contending_writers_serialize(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        locks = LockManager(group)
        critical = []
        done = []

        def writer(writer_id):
            def body(task):
                for _ in range(5):
                    yield from locks.wr_lock(task, writer_id)
                    critical.append(writer_id)
                    yield from task.sleep(5 * US)
                    assert critical[-1] == writer_id  # nobody barged in
                    yield from locks.wr_unlock(task, writer_id)
                done.append(writer_id)

            return body

        cluster[0].os.spawn(writer(1), "w1")
        cluster[0].os.spawn(writer(2), "w2")
        run_until(sim, lambda: len(done) == 2, deadline_ms=5000)
        assert sorted(critical) == [1] * 5 + [2] * 5

    def test_readers_block_writer(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        locks = LockManager(group)

        def body(task):
            yield from locks.rd_lock(task, replica=1)
            assert locks.readers(1) == 1
            # Writer cannot acquire while the reader holds replica 1.
            try:
                yield from locks.wr_lock(task, 9, max_retries=2)
                outcome = "acquired"
            except Exception:
                outcome = "blocked"
            yield from locks.rd_unlock(task, replica=1)
            yield from locks.wr_lock(task, 9)
            yield from locks.wr_unlock(task, 9)
            return outcome

        assert drive(sim, cluster, body, until_ms=5000) == "blocked"

    def test_read_locks_are_per_replica(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        locks = LockManager(group)

        def body(task):
            yield from locks.rd_lock(task, replica=0)
            yield from locks.rd_lock(task, replica=2)
            counts = [locks.readers(replica) for replica in range(3)]
            yield from locks.rd_unlock(task, replica=0)
            yield from locks.rd_unlock(task, replica=2)
            return counts

        assert drive(sim, cluster, body) == [1, 0, 1]


class TestKVStore:
    def _store(self, group):
        return ReplicatedKVStore(group, sync_interval=1 * MS)

    def test_put_get_delete(self):
        sim, cluster = make_cluster()
        kv = self._store(hl_group(cluster))

        def body(task):
            yield from kv.put(task, b"k1", b"v1")
            yield from kv.put(task, b"k2", b"v2")
            value = yield from kv.get(task, b"k1")
            yield from kv.delete(task, b"k1")
            gone = yield from kv.get(task, b"k1")
            return value, gone

        assert drive(sim, cluster, body) == (b"v1", None)

    def test_scan_is_ordered(self):
        sim, cluster = make_cluster()
        kv = self._store(hl_group(cluster))

        def body(task):
            for i in [5, 1, 9, 3, 7]:
                yield from kv.put(task, f"k{i}".encode(), str(i).encode())
            result = yield from kv.scan(task, b"k3", 3)
            return [key for key, _ in result]

        assert drive(sim, cluster, body) == [b"k3", b"k5", b"k7"]

    def test_backup_reads_are_eventually_consistent(self):
        sim, cluster = make_cluster()
        kv = self._store(hl_group(cluster))

        def body(task):
            yield from kv.put(task, b"key", b"value")
            return kv.get_eventual(1, b"key")  # likely not yet synced

        drive(sim, cluster, body)
        sim.run(until=sim.now + 20 * MS)
        assert kv.get_eventual(1, b"key") == b"value"
        assert kv.get_eventual(2, b"key") == b"value"

    def test_recovery_after_power_failure(self):
        """Acked puts survive a whole-replica power failure — the
        durability guarantee the interleaved gFLUSH provides."""
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        kv = self._store(group)

        def body(task):
            for i in range(10):
                yield from kv.put(task, f"key{i}".encode(), f"val{i}".encode())
            yield from kv.delete(task, b"key3")
            return True

        drive(sim, cluster, body)
        cluster.hosts[2].power_failure()
        recovered = kv.recover_from_replica(1)
        assert len(recovered) == 9
        assert recovered[b"key5"] == b"val5"
        assert b"key3" not in recovered

    def test_recovery_includes_checkpoint(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        kv = self._store(group)

        def body(task):
            for i in range(5):
                yield from kv.put(task, f"a{i}".encode(), b"pre-checkpoint")
            yield from kv.checkpoint(task)
            for i in range(5):
                yield from kv.put(task, f"b{i}".encode(), b"post-checkpoint")
            return True

        drive(sim, cluster, body, until_ms=5000)
        recovered = kv.recover_from_replica(2)
        assert len(recovered) == 10
        assert recovered[b"a0"] == b"pre-checkpoint"
        assert recovered[b"b4"] == b"post-checkpoint"

    def test_works_over_naive_backend(self):
        sim, cluster = make_cluster()
        group = NaiveGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 18, rounds=64, name="nv"
        )
        kv = self._store(group)

        def body(task):
            yield from kv.put(task, b"nk", b"nv-value")
            value = yield from kv.get(task, b"nk")
            return value

        assert drive(sim, cluster, body) == b"nv-value"
        recovered = kv.recover_from_replica(0)
        assert recovered[b"nk"] == b"nv-value"


class TestCheckpointCut:
    """A checkpoint's image and its truncation point are one cut, so
    puts may race it (it used to snapshot the memtable, yield through
    the image writes and then truncate to wherever the tail had got)."""

    @staticmethod
    def _run(writers, puts_per_writer, key_of):
        sim, cluster = make_cluster(cores=8)
        group = hl_group(cluster)
        kv = ReplicatedKVStore(group, sync_interval=1 * MS)
        acked = []  # (key, value) in the order the puts returned

        def writer(index):
            def body(task):
                for step in range(puts_per_writer):
                    key = key_of(index, step)
                    value = f"w{index}/{step}".encode() * 8
                    yield from kv.put(task, key, value)
                    acked.append((key, value))

            return body

        def checkpointer(task):
            for _ in range(2):
                yield from task.sleep(60 * US)
                yield from kv.checkpoint(task)
                assert acked and len(acked) < writers * puts_per_writer  # it did race

        tasks = [cluster[0].os.spawn(writer(index), f"w{index}") for index in range(writers)]
        tasks.append(cluster[0].os.spawn(checkpointer, "checkpointer"))
        run_until(sim, lambda: all(task.process.triggered for task in tasks), deadline_ms=100)
        for task in tasks:
            assert task.process.triggered
            if not task.process.ok:
                raise task.process.value
        return cluster, kv, acked

    def test_puts_racing_a_checkpoint_survive_power_failure(self):
        cluster, kv, acked = self._run(
            writers=3, puts_per_writer=30, key_of=lambda index, step: f"k{index}/{step}".encode()
        )
        assert kv.checkpoint_lsn >= 0 and kv.log.head > 0
        assert kv.log.head < kv.log.tail  # puts landed behind the last cut
        for host in cluster.hosts[1:4]:
            host.power_failure()
        expected = dict(acked)
        assert len(expected) == 90
        for replica in range(3):
            assert kv.recover_from_replica(replica) == expected

    def test_concurrent_writers_of_one_key_agree_on_the_last_writer(self):
        """Eight writers share a batch and a key: the memtable, a WAL
        replay and the order the puts returned in must name the same
        last writer (LSN order = queue order = return order)."""

        def key_of(index, step):
            return b"shared" if step % 2 else f"own{index}".encode()

        cluster, kv, acked = self._run(writers=8, puts_per_writer=12, key_of=key_of)
        last = dict(acked)
        assert len(last) == 9
        assert dict(kv.memtable.items()) == last
        for host in cluster.hosts[1:4]:
            host.power_failure()
        for replica in range(3):
            assert kv.recover_from_replica(replica) == last


class TestDocStore:
    def test_insert_read_update_delete(self):
        sim, cluster = make_cluster()
        store = ReplicatedDocStore(hl_group(cluster), parse_ns=5_000)

        def body(task):
            yield from store.insert(task, b"d1", {"name": "alice", "age": 30})
            first = yield from store.read(task, b"d1", replica=1)
            yield from store.update(task, b"d1", {"name": "bob", "age": 31})
            second = yield from store.read(task, b"d1", replica=2)
            yield from store.delete(task, b"d1")
            return first, second

        first, second = drive(sim, cluster, body, until_ms=5000)
        assert first["name"] == "alice" and first["age"] == 30
        assert second["name"] == "bob" and second["age"] == 31
        assert len(store) == 0

    def test_replicas_identical_after_updates(self):
        sim, cluster = make_cluster()
        store = ReplicatedDocStore(hl_group(cluster), parse_ns=5_000)

        def body(task):
            for i in range(8):
                yield from store.insert(task, f"doc{i}".encode(), {"v": i})
            for i in range(0, 8, 2):
                yield from store.update(task, f"doc{i}".encode(), {"v": i * 100})
            return True

        drive(sim, cluster, body, until_ms=10_000)
        for i in range(8):
            expected = i * 100 if i % 2 == 0 else i
            docs = [store.peek_replica(r, f"doc{i}".encode()) for r in range(3)]
            assert all(doc["v"] == expected for doc in docs), (i, docs)

    def test_scan_returns_ordered_documents(self):
        sim, cluster = make_cluster()
        store = ReplicatedDocStore(hl_group(cluster), parse_ns=5_000)

        def body(task):
            for i in [3, 1, 2]:
                yield from store.insert(task, f"id{i}".encode(), {"v": i})
            docs = yield from store.scan(task, b"id1", 2)
            return [doc["_id"] for doc in docs]

        assert drive(sim, cluster, body, until_ms=5000) == [b"id1", b"id2"]

    def test_modify_is_read_modify_write(self):
        sim, cluster = make_cluster()
        store = ReplicatedDocStore(hl_group(cluster), parse_ns=5_000)

        def body(task):
            yield from store.insert(task, b"m", {"a": 1, "b": 2})
            yield from store.modify(task, b"m", {"b": 99})
            doc = yield from store.read(task, b"m")
            return doc

        doc = drive(sim, cluster, body, until_ms=5000)
        assert doc["a"] == 1 and doc["b"] == 99

    def test_locked_reads(self):
        sim, cluster = make_cluster()
        store = ReplicatedDocStore(hl_group(cluster), parse_ns=5_000)

        def body(task):
            yield from store.insert(task, b"locked", {"v": 7})
            doc = yield from store.read(task, b"locked", replica=1, lock=True)
            return doc["v"], store.locks.readers(1)

        value, readers_after = drive(sim, cluster, body, until_ms=5000)
        assert value == 7 and readers_after == 0

    def test_document_too_large_rejected(self):
        sim, cluster = make_cluster()
        store = ReplicatedDocStore(hl_group(cluster), slot_size=256, parse_ns=1_000)

        def body(task):
            try:
                yield from store.insert(task, b"big", {"payload": b"x" * 512})
            except Exception as exc:
                return type(exc).__name__
            return "no error"

        assert drive(sim, cluster, body) == "DocStoreError"


class TestNativeMongo:
    def test_rpc_insert_and_read(self):
        sim, cluster = make_cluster(n_hosts=5)
        server = MongoServer(
            cluster[1],
            cluster.hosts[2:4],
            region_size=1 << 18,
            rounds=32,
            parse_ns=10_000,
            name="native",
        )
        client = server.connect(cluster[4])
        done = {}

        def body(task):
            r1 = yield from client.insert(task, b"doc", {"f": b"payload"})
            r2 = yield from client.read(task, b"doc")
            r3 = yield from client.read(task, b"missing")
            done["r"] = (r1["ok"], r2["ok"], r2["f"], r3["ok"])

        cluster[4].os.spawn(body, "ycsb")
        run_until(sim, lambda: "r" in done, deadline_ms=5000)
        assert done["r"] == (1, 1, b"payload", 0)

    def test_primary_cpu_is_on_the_critical_path(self):
        """The Figure 2 effect in miniature: the native primary burns
        CPU per query (HyperLoop's whole point is removing this)."""
        sim, cluster = make_cluster(n_hosts=5)
        server = MongoServer(
            cluster[1], cluster.hosts[2:4], region_size=1 << 18, rounds=32,
            parse_ns=10_000, name="native",
        )
        client = server.connect(cluster[4])
        done = {}

        def body(task):
            for i in range(5):
                yield from client.insert(task, f"d{i}".encode(), {"f": b"x"})
            done["r"] = 1

        cluster[4].os.spawn(body, "ycsb")
        run_until(sim, lambda: "r" in done, deadline_ms=5000)
        assert server.rpc.task.cpu_ns > 5 * 10_000  # ≥ parse cost per op


class TestFailureRecovery:
    def test_heartbeat_detects_crash(self):
        sim, cluster = make_cluster(n_hosts=5)
        monitor = HeartbeatMonitor(
            cluster[0], cluster.hosts[1:4], interval=2 * MS, miss_threshold=3
        )
        sim.run(until=20 * MS)
        assert not any(monitor.suspected(index) for index in range(3))
        monitor.stop_beats(1)
        sim.run(until=40 * MS)
        assert monitor.suspected(1)
        assert not monitor.suspected(0)
        assert not monitor.suspected(2)

    def test_chain_repair_restores_replication(self):
        sim, cluster = make_cluster(n_hosts=6)
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16, rounds=32, name="g0"
        )
        counter = {"n": 0}

        def factory(members):
            counter["n"] += 1
            return HyperLoopGroup(
                cluster[0],
                members,
                region_size=1 << 16,
                rounds=32,
                name=f"g{counter['n']}",
            )

        repair = ChainRepair(cluster[0], group, factory)
        done = {}

        def body(task):
            group.write_local(0, b"before-failure")
            yield from group.gwrite(task, 0, 14)
            # Replica 1 (cluster host 2) dies.
            new_group = yield from repair.repair(
                task, failed_index=1, replacement=cluster.hosts[4]
            )
            # Replication continues on the new chain.
            new_group.write_local(64, b"after-repair!")
            yield from new_group.gwrite(task, 64, 13)
            done["group"] = new_group

        cluster[0].os.spawn(body, "coordinator")
        run_until(sim, lambda: "group" in done, deadline_ms=10_000)
        new_group = done["group"]
        assert new_group.replicas[-1] is cluster.hosts[4]
        for replica in range(3):
            assert new_group.read_replica(replica, 0, 14) == b"before-failure"
            assert new_group.read_replica(replica, 64, 13) == b"after-repair!"


class TestWriteBatch:
    def test_batch_is_atomic_and_durable(self):
        sim, cluster = make_cluster()
        group = hl_group(cluster)
        kv = ReplicatedKVStore(group, sync_interval=1 * MS)

        def body(task):
            yield from kv.put_batch(
                task, [(b"b1", b"v1"), (b"b2", b"v2"), (b"b3", b"v3")]
            )
            value = yield from kv.get(task, b"b2")
            return value

        assert drive(sim, cluster, body) == b"v2"
        # One record covers the whole batch.
        recovered = kv.recover_from_replica(1)
        assert recovered == {b"b1": b"v1", b"b2": b"v2", b"b3": b"v3"}
        assert kv.log.next_lsn == 1

    def test_empty_batch_rejected(self):
        sim, cluster = make_cluster()
        kv = ReplicatedKVStore(hl_group(cluster), sync_interval=1 * MS)

        def body(task):
            with pytest.raises(ValueError):
                yield from kv.put_batch(task, [])
            yield from task.sleep(0)
            return True

        drive(sim, cluster, body)

    def test_batch_cheaper_than_individual_puts(self):
        """The amortization claim: N batched writes complete in far
        less time than N chained round trips."""
        sim, cluster = make_cluster()
        kv = ReplicatedKVStore(hl_group(cluster), sync_interval=5 * MS)
        items = [(f"k{i}".encode(), b"v" * 64) for i in range(16)]

        def body(task):
            start = sim.now
            yield from kv.put_batch(task, items)
            batch_ns = sim.now - start
            start = sim.now
            for key, value in items:
                yield from kv.put(task, key + b"x", value)
            singles_ns = sim.now - start
            return batch_ns, singles_ns

        batch_ns, singles_ns = drive(sim, cluster, body)
        assert batch_ns * 4 < singles_ns


class TestSecondaryIndexes:
    def _store(self, cluster, **kwargs):
        return ReplicatedDocStore(
            hl_group(cluster), parse_ns=3_000, **kwargs
        )

    def test_find_by_indexed_field(self):
        sim, cluster = make_cluster()
        store = self._store(cluster, indexes=("city",))

        def body(task):
            yield from store.insert(task, b"u1", {"city": "paris", "age": 30})
            yield from store.insert(task, b"u2", {"city": "tokyo", "age": 40})
            yield from store.insert(task, b"u3", {"city": "paris", "age": 50})
            docs = yield from store.find(task, "city", "paris", replica=1)
            return sorted(doc["_id"] for doc in docs)

        assert drive(sim, cluster, body, until_ms=5000) == [b"u1", b"u3"]

    def test_index_follows_updates_and_deletes(self):
        sim, cluster = make_cluster()
        store = self._store(cluster, indexes=("city",))

        def body(task):
            yield from store.insert(task, b"u1", {"city": "paris"})
            yield from store.update(task, b"u1", {"city": "tokyo"})
            paris = yield from store.find(task, "city", "paris")
            tokyo = yield from store.find(task, "city", "tokyo")
            yield from store.delete(task, b"u1")
            tokyo_after = yield from store.find(task, "city", "tokyo")
            return len(paris), len(tokyo), len(tokyo_after)

        assert drive(sim, cluster, body, until_ms=5000) == (0, 1, 0)

    def test_create_index_backfills(self):
        sim, cluster = make_cluster()
        store = self._store(cluster)

        def body(task):
            for index in range(6):
                yield from store.insert(
                    task, f"d{index}".encode(), {"parity": index % 2}
                )
            yield from store.create_index(task, "parity")
            even = yield from store.find(task, "parity", 0, replica=2)
            return sorted(doc["_id"] for doc in even)

        assert drive(sim, cluster, body, until_ms=10_000) == [b"d0", b"d2", b"d4"]

    def test_find_without_index_raises(self):
        sim, cluster = make_cluster()
        store = self._store(cluster)

        def body(task):
            yield from store.insert(task, b"x", {"f": 1})
            with pytest.raises(DocStoreError):
                yield from store.find(task, "f", 1)
            yield from task.sleep(0)
            return True

        drive(sim, cluster, body)

    def test_find_respects_limit(self):
        sim, cluster = make_cluster()
        store = self._store(cluster, indexes=("tag",))

        def body(task):
            for index in range(5):
                yield from store.insert(task, f"t{index}".encode(), {"tag": "hot"})
            docs = yield from store.find(task, "tag", "hot", limit=2)
            return len(docs)

        assert drive(sim, cluster, body, until_ms=5000) == 2


BACKENDS = {"hyperloop": HyperLoopGroup, "naive": NaiveGroup}


@pytest.mark.parametrize("backend", BACKENDS)
class TestPostThenWaitRecipe:
    """The §5 recipe as three ack waits: {record, header, lock gCAS} →
    {n × gMEMCPY} → {head advance, unlock gCAS}."""

    def _manager(self, backend, rounds=16):
        from repro.storage.transactions import TransactionManager

        sim, cluster = make_cluster(seed=23)
        group = BACKENDS[backend](
            cluster[0], cluster.hosts[1:4], region_size=1 << 16, rounds=rounds, name="p"
        )
        return sim, cluster, group, TransactionManager(group, writer_id=7)

    @staticmethod
    def _set_lock_word(group, manager, replica, value):
        group.replicas[replica].memory.write(
            group.replica_mrs[replica].addr + manager.layout.lock_offset,
            value.to_bytes(8, "little"),
        )

    def test_batch_larger_than_the_flow_window_completes(self, backend):
        """12 changes = 12 gMEMCPYs back to back on a rounds=16 group
        (8 flow slots): the install must not deadlock on its own slots."""
        sim, cluster, group, manager = self._manager(backend)
        changes = [(64 * index, bytes([index + 1]) * 48) for index in range(12)]

        def body(task):
            first = yield from manager.transact(task, changes)
            second = yield from manager.transact(task, changes[:1])
            return first, second

        assert drive(sim, cluster, body) == (0, 1)
        for replica in range(3):
            for offset, data in changes:
                position = manager.layout.db_position(offset)
                assert group.read_replica(replica, position, len(data)) == data
            assert manager.locks.holder(replica) == 0
        assert manager.log.head == manager.log.tail
        assert manager.locks.conflicts == 0 and not group.errors

    def test_lost_overlapped_lock_cas_undoes_backs_off_and_retries(self, backend):
        """Replica 1's lock word is held by someone else when the
        overlapped lock gCAS arrives, and freed 20 us later: the CAS
        wins on replicas 0 and 2 only → undo there, back off, retry
        until it is free — with the record applied exactly once."""
        sim, cluster, group, manager = self._manager(backend)
        self._set_lock_word(group, manager, 1, 99)
        sim.call_at(sim.now + 20 * US, self._set_lock_word, group, manager, 1, 0)
        copies = []
        submit = group.submit

        def counting_submit(task, op):
            if op.kind == "gmemcpy":
                copies.append(op)
            return (yield from submit(task, op))

        group.submit = counting_submit

        def body(task):
            lsn = yield from manager.transact(task, [(0, b"exactly-once")])
            return lsn, sim.now

        lsn, finished = drive(sim, cluster, body)
        assert lsn == 0 and finished > 20 * US
        assert manager.locks.conflicts >= 1 and manager.locks.acquisitions == 1
        assert len(copies) == 1  # executed once, after the lock was really held
        assert manager.log.head == manager.log.tail and manager.log.next_lsn == 1
        position = manager.layout.db_position(0)
        for replica in range(3):
            assert group.read_replica(replica, position, 12) == b"exactly-once"
            assert manager.locks.holder(replica) == 0

    def test_append_abandoned_on_a_dead_chain_leaves_the_client_tail_alone(self, backend):
        """The chain head dies as the second record is posted: record
        and header are lost in flight and the appender parks forever.
        Failover keeps the client's head/tail/next_lsn and rebuilds
        the mirror from a survivor, so they must still describe only
        what the whole chain acked."""
        sim, cluster, group, manager = self._manager(backend)
        log = manager.log
        submit = group.submit

        def crashing_submit(task, op):
            ack = yield from submit(task, op)
            if log.next_lsn == 1 and not cluster[1].down:
                cluster[1].crash()
            return ack

        group.submit = crashing_submit
        done = []

        def body(task):
            yield from log.append(task, [(0, b"acked")])
            done.append(log.tail)
            yield from manager.transact(task, [(64, b"lost in flight")])
            done.append(log.tail)

        cluster[0].os.spawn(body, "appender")
        sim.run(until=sim.now + 1 * MS)
        assert len(done) == 1 and cluster[1].down
        assert (log.head, log.tail, log.next_lsn) == (0, done[0], 1)
        assert [record.lsn for _, record in log.pending_records()] == [0]
        for replica in (1, 2):
            survivors = ReplicatedLog.recover_replica(group, manager.layout, replica)
            assert [record.lsn for record in survivors] == [0]

    def test_truncate_queues_behind_an_append_in_flight(self, backend):
        """A header posted by truncate while an append's record and
        header are in flight would land behind them with the old tail
        and uncover the acked record; truncate takes the WAL mutex, so
        replicas and client agree once both are done."""
        sim, cluster, group, manager = self._manager(backend)
        log = manager.log
        submit = group.submit
        order = []

        def truncator(task):
            yield from log.truncate(task)
            order.append("truncate")

        def spawning_submit(task, op):
            ack = yield from submit(task, op)
            if log.next_lsn == 1 and not order:
                order.append("record posted")
                cluster[0].os.spawn(truncator, "truncator")
            return ack

        group.submit = spawning_submit

        def body(task):
            yield from log.append(task, [(0, b"first")])
            yield from log.append(task, [(64, b"second")])
            order.append("append")
            return True

        assert drive(sim, cluster, body)
        sim.run(until=sim.now + 1 * MS)
        assert order == ["record posted", "append", "truncate"]
        assert log.head == log.tail > 0
        for replica in range(3):
            header = group.read_replica(replica, manager.layout.head_offset, 16)
            assert struct.unpack("<QQ", header) == (log.head, log.tail)

    def test_durable_tail_never_covers_a_torn_record(self, backend):
        """Record and header are posted back to back; cut a replica's
        power (DRAM and un-flushed NIC windows lost, NIC dark) anywhere
        between the record's post and the header's ack: whatever tail
        its NVM holds, every record under it deserializes."""

        def run(fail_at=None, victim=None):
            sim, cluster, group, manager = self._manager(backend, rounds=64)
            log, marks = manager.log, {}
            submit = group.submit

            def marking_submit(task, op):
                ack = yield from submit(task, op)
                if log.next_lsn == 1:  # posts of the second append
                    marks.setdefault("posted", sim.now)
                    ack.add_callback(lambda _ack: marks.__setitem__("acked", sim.now))
                return ack

            group.submit = marking_submit

            def body(task):
                yield from log.append(task, [(0, b"first" * 20)])
                yield from log.append(task, [(512, b"second" * 40)])
                return True

            if fail_at is not None:
                sim.call_at(fail_at, cluster[victim].crash)
            cluster[0].os.spawn(body, "appender")
            sim.run(until=sim.now + 1 * MS)  # the victim's chain stays dead
            return group, manager, marks

        _, _, marks = run()
        posted, acked = marks["posted"], marks["acked"]
        assert posted < acked
        tails = set()
        for step in range(25):
            fail_at = posted + (acked - posted) * step // 24
            for victim in (1, 2, 3):
                group, manager, _ = run(fail_at, victim)
                replica = victim - 1
                header = group.read_replica(replica, manager.layout.head_offset, 16)
                head, tail = struct.unpack("<QQ", header)
                records = ReplicatedLog.recover_replica(group, manager.layout, replica)
                assert head == 0
                assert sum(record.serialized_size for record in records) == tail
                assert [record.lsn for record in records] == list(range(len(records)))
                tails.add(len(records))
        assert tails == {1, 2}  # the sweep straddles the header landing
