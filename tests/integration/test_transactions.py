"""Integration tests for the transaction manager (ACID over groups)."""

import pytest

from repro.baseline import NaiveGroup
from repro.bench import run_until
from repro.core import HyperLoopGroup
from repro.hw import Cluster
from repro.sim import MS, Simulator, US
from repro.storage import RegionLayout
from repro.storage.transactions import TransactionManager


def make(seed=71, group_cls=HyperLoopGroup, **kwargs):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    defaults = dict(region_size=1 << 18, rounds=64, name="txg")
    defaults.update(kwargs)
    group = group_cls(cluster[0], cluster.hosts[1:4], **defaults)
    manager = TransactionManager(group)
    return sim, cluster, group, manager


def drive(sim, cluster, body, until_ms=5000):
    done = {}

    def wrapper(task):
        done["r"] = yield from body(task)

    task = cluster[0].os.spawn(wrapper, "client")
    run_until(
        sim, lambda: "r" in done or task.process.triggered, deadline_ms=until_ms
    )
    if task.process.triggered and not task.process.ok:
        raise task.process.value
    return done["r"]


class TestCommit:
    def test_multi_key_transaction_is_applied_everywhere(self):
        sim, cluster, group, manager = make()

        def body(task):
            lsn = yield from manager.transact(
                task, [(0, b"account-a:50"), (256, b"account-b:50")]
            )
            return lsn

        assert drive(sim, cluster, body) == 0
        for replica in range(3):
            db = manager.layout.db_position(0)
            assert group.read_replica(replica, db, 12) == b"account-a:50"
            assert group.read_replica(replica, db + 256, 12) == b"account-b:50"

    def test_sequential_transactions_monotonic_lsns(self):
        sim, cluster, group, manager = make()

        def body(task):
            lsns = []
            for index in range(5):
                lsn = yield from manager.transact(task, [(index * 64, bytes([index]) * 8)])
                lsns.append(lsn)
            return lsns

        assert drive(sim, cluster, body) == [0, 1, 2, 3, 4]
        assert manager.committed == 5

    def test_read_sees_committed_state(self):
        sim, cluster, group, manager = make()

        def body(task):
            yield from manager.transact(task, [(128, b"committed-value")])
            remote = yield from manager.read(task, 128, 15, replica=2)
            local = manager.read_local(128, 15)
            return remote, local

        remote, local = drive(sim, cluster, body)
        assert remote == local == b"committed-value"

    def test_empty_transaction_rejected(self):
        sim, cluster, group, manager = make()

        def body(task):
            with pytest.raises(ValueError):
                yield from manager.transact(task, [])
            yield from task.sleep(0)
            return True

        drive(sim, cluster, body)

    def test_out_of_area_change_rejected(self):
        sim, cluster, group, manager = make()

        def body(task):
            with pytest.raises(ValueError):
                yield from manager.transact(
                    task, [(manager.layout.db_size, b"x")]
                )
            yield from task.sleep(0)
            return True

        drive(sim, cluster, body)

    def test_works_over_naive_group(self):
        sim, cluster, group, manager = make(group_cls=NaiveGroup)

        def body(task):
            yield from manager.transact(task, [(0, b"naive-txn")])
            return True

        drive(sim, cluster, body)
        db = manager.layout.db_position(0)
        assert group.read_replica(1, db, 9) == b"naive-txn"


class TestDeferredExecution:
    def test_unexecuted_records_stay_pending(self):
        sim, cluster, group, manager = make()

        def body(task):
            yield from manager.transact(task, [(0, b"deferred")], execute=False)
            pending = len(manager.log.pending_records())
            yield from manager.locks.wr_lock(task, manager.writer_id)
            executed = yield from manager.drain(task)
            yield from manager.locks.wr_unlock(task, manager.writer_id)
            return pending, executed

        pending, executed = drive(sim, cluster, body)
        assert (pending, executed) == (1, 1)
        db = manager.layout.db_position(0)
        assert group.read_replica(0, db, 8) == b"deferred"


class TestRecovery:
    def test_crash_after_append_before_execute(self):
        """The append was durable; the coordinator dies before
        executing. A new coordinator redoes the pending record."""
        sim, cluster, group, manager = make()

        def phase1(task):
            yield from manager.transact(task, [(64, b"survives")], execute=False)
            return True

        drive(sim, cluster, phase1)
        # Replica NVM holds the record; DB area still empty.
        db = manager.layout.db_position(64)
        assert group.read_replica(0, db, 8) == bytes(8)

        def phase2(task):
            executed = yield from manager.recover(task, from_replica=1)
            return executed

        assert drive(sim, cluster, phase2) == 1
        for replica in range(3):
            assert group.read_replica(replica, db, 8) == b"survives"

    def test_appended_record_survives_power_failure(self):
        """An acked append is in NVM: a whole-cluster power cycle
        cannot lose it (the chain itself must then be rebuilt — that
        is ChainRepair's job; here we verify the durable bytes)."""
        from repro.storage import ReplicatedLog

        sim, cluster, group, manager = make()

        def phase1(task):
            yield from manager.transact(task, [(64, b"nvm-safe")], execute=False)
            return True

        drive(sim, cluster, phase1)
        for host in cluster.hosts[1:]:
            host.power_failure()
        for replica in range(3):
            records = ReplicatedLog.recover_replica(group, manager.layout, replica)
            assert len(records) == 1
            assert records[0].entries[0].data == b"nvm-safe"

    def test_crash_while_holding_the_lock(self):
        """A coordinator that died inside the critical section left
        the lock held; recovery breaks its own stale lock and drains."""
        sim, cluster, group, manager = make()

        def phase1(task):
            yield from manager.transact(task, [(0, b"before-crash")], execute=False)
            # Simulate crashing right after acquiring the lock.
            yield from manager.locks.wr_lock(task, manager.writer_id)
            return True

        drive(sim, cluster, phase1)
        assert manager.locks.holder(0) == manager.writer_id

        def phase2(task):
            executed = yield from manager.recover(task)
            return executed

        assert drive(sim, cluster, phase2) == 1
        assert manager.locks.holder(0) == 0  # lock released
        db = manager.layout.db_position(0)
        assert group.read_replica(2, db, 12) == b"before-crash"

    def test_a_lock_held_by_another_writer_is_not_broken(self):
        sim, cluster, group, manager = make()
        other = manager.writer_id + 1

        def body(task):
            yield from manager.locks.wr_lock(task, other)
            yield from manager.break_stale_lock(task)
            return True

        drive(sim, cluster, body)
        assert manager.locks.holder(0) == other

    def test_recovery_is_idempotent(self):
        sim, cluster, group, manager = make()

        def body(task):
            yield from manager.transact(task, [(32, b"idempotent")])
            first = yield from manager.recover(task)
            second = yield from manager.recover(task)
            return first, second

        first, second = drive(sim, cluster, body)
        assert first == 0 and second == 0  # nothing pending, no harm
        db = manager.layout.db_position(32)
        assert group.read_replica(0, db, 10) == b"idempotent"


class TestConcurrentCoordThreads:
    def test_two_writer_threads_serialize(self):
        """Two application threads of one coordinator process share
        the manager; the WAL mutex + group lock keep them atomic."""
        sim, cluster, group, manager = make()
        done = []

        def writer(thread_id):
            def body(task):
                for index in range(4):
                    value = bytes([thread_id]) * 16
                    yield from manager.transact(task, [(thread_id * 64, value)])
                done.append(thread_id)

            return body

        cluster[0].os.spawn(writer(1), "w1")
        cluster[0].os.spawn(writer(2), "w2")
        run_until(sim, lambda: len(done) == 2, deadline_ms=20_000)
        for replica in range(3):
            for thread_id in (1, 2):
                db = manager.layout.db_position(thread_id * 64)
                assert group.read_replica(replica, db, 16) == bytes([thread_id]) * 16
        assert manager.committed == 8
