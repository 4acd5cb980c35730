"""WAL group commit: appenders queued at the WAL mutex ride one
leader's record run + header.

A batch is whatever queued while the previous one was in flight, so
the tests make batches the way applications do: N tasks append at
once on an idle log, the first leads a batch of one, the other N-1
queue behind it and ride the second. The edge cases (leader failure,
WAL-full per member, a wrap inside a batch, beside results, power
failure mid-batch, failover) run over both backends; the exact count
gates at the bottom are the ones CHANGES.md quotes.
"""

import struct

import pytest

from repro.baseline import NaiveGroup
from repro.bench import run_until
from repro.core import HyperLoopGroup
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import MS, Simulator
from repro.storage import RegionLayout, ReplicatedKVStore, ReplicatedLog
from repro.storage.transactions import TransactionManager
from repro.storage.wal import WRAP_MAGIC, LogRecord, scan_records

BACKENDS = {"hyperloop": HyperLoopGroup, "naive": NaiveGroup}


def record_size(data_len):
    return LogRecord.make(0, [(0, bytes(data_len))]).serialized_size


class World:
    """A client, three replicas (plus a spare), one log, and every op
    the log posts recorded as ``(kind, offset, size)``."""

    def __init__(self, backend, wal_size=8192, db_size=4096, rounds=64, seed=23):
        self.sim = Simulator(seed=seed)
        self.cluster = Cluster(self.sim, n_hosts=5, n_cores=8)
        self.group = self.build_group(backend, self.cluster.hosts[1:4], rounds)
        self.layout = RegionLayout(wal_size=wal_size, db_size=db_size)
        self.posts = []
        self.record_posts(self.group)
        self.outcomes = []  # (name, record | exception) in return order

    def build_group(self, backend, replicas, rounds=64, name="w"):
        return BACKENDS[backend](
            self.cluster[0], replicas, region_size=1 << 16, rounds=rounds, name=name
        )

    def record_posts(self, group):
        submit = group.submit

        def recording_submit(task, op):
            offset = op.dst_offset if op.kind == "gmemcpy" else op.offset
            self.posts.append((op.kind, offset, op.size))
            return (yield from submit(task, op))

        group.submit = recording_submit

    def spawn(self, body, name):
        return self.cluster[0].os.spawn(body, name)

    def appender(self, log, name, data):
        def body(task):
            try:
                outcome = yield from log.append(task, [(0, data)])
            except Exception as exc:  # the test inspects what was raised
                outcome = exc
            self.outcomes.append((name, outcome))

        return self.spawn(body, name)

    def run(self, tasks, deadline_ms=20):
        run_until(
            self.sim, lambda: all(task.process.triggered for task in tasks), deadline_ms=deadline_ms
        )
        for task in tasks:
            assert task.process.triggered, f"{task.name} is still parked"
            if not task.process.ok:
                raise task.process.value

    def durable(self, replica):
        header = self.group.read_replica(replica, self.layout.head_offset, 16)
        return struct.unpack("<QQ", header)

    def batches(self):
        """Posts split after each header gWRITE: one list per batch."""
        out, current = [], []
        for post in self.posts:
            current.append(post)
            if post[0] == "gwrite" and post[1] == self.layout.head_offset:
                out.append(current)
                current = []
        return out + ([current] if current else [])


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchShape:
    def test_queued_appenders_ride_one_record_run_and_one_header(self, backend):
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        tasks = [world.appender(log, f"a{i}", bytes([i + 1]) * 100) for i in range(5)]
        world.run(tasks)
        size = record_size(100)
        wal, header = world.layout.wal_offset, world.layout.head_offset
        assert world.posts == [
            ("gwrite", wal, size),
            ("gwrite", header, 16),
            ("gwrite", wal + size, 4 * size),  # four records, one extent
            ("gwrite", header, 16),
        ]
        # Consecutive LSNs in queue order, handed back in that order.
        assert [record.lsn for _, record in world.outcomes] == [0, 1, 2, 3, 4]
        assert (log.tail, log.next_lsn) == (5 * size, 5)
        by_lsn = {record.lsn: name for name, record in world.outcomes}
        for replica in range(3):
            assert world.durable(replica) == (0, 5 * size)
            records = ReplicatedLog.recover_replica(world.group, world.layout, replica)
            assert [record.lsn for record in records] == [0, 1, 2, 3, 4]
            for record in records:  # each member got its own record back
                index = int(by_lsn[record.lsn][1:])
                assert record.entries[0].data == bytes([index + 1]) * 100

    def test_a_lone_appender_posts_marker_record_header_in_that_order(self, backend):
        """A batch of one is the pre-group-commit schedule, op for op —
        including the wrap: marker and record are not adjacent, so
        they stay two gWRITEs."""
        world = World(backend, wal_size=1024)
        log = ReplicatedLog(world.group, world.layout)
        size = record_size(200)

        def body(task):
            for index in range(4):
                yield from log.append(task, [(0, bytes([index + 1]) * 200)])
            yield from log.truncate(task)
            world.posts.clear()
            yield from log.append(task, [(0, b"\x09" * 200)])

        world.run([world.spawn(body, "solo")])
        assert 1024 - 4 * size < size  # the fifth does not fit the lap
        wal, header = world.layout.wal_offset, world.layout.head_offset
        assert world.posts == [
            ("gwrite", wal + 4 * size, 4),
            ("gwrite", wal, size),
            ("gwrite", header, 16),
        ]
        assert log.tail == 1024 + size

    def test_a_wrap_inside_a_batch_splits_it_into_two_extents(self, backend):
        """Marker + the records before the ring end are one extent, the
        records after the wrap a second; every replica scans the batch
        back in LSN order."""
        world = World(backend, wal_size=1024)
        log = ReplicatedLog(world.group, world.layout)
        big, small = record_size(200), record_size(100)

        def fill(task):
            for _ in range(3):
                yield from log.append(task, [(0, b"\x01" * 200)])
            yield from log.truncate(task)

        world.run([world.spawn(fill, "fill")])
        base = 3 * big
        assert log.head == log.tail == base
        world.posts.clear()
        world.outcomes.clear()
        tasks = [world.appender(log, f"a{i}", bytes([i + 1]) * 100) for i in range(4)]
        world.run(tasks)
        # Leader alone at `base`; then the batch: one record fits the
        # lap, the marker goes where the next would have started.
        assert base + 2 * small <= 1024 < base + 3 * small
        wal, header = world.layout.wal_offset, world.layout.head_offset
        assert world.posts == [
            ("gwrite", wal + base, small),
            ("gwrite", header, 16),
            ("gwrite", wal + base + small, small + 4),
            ("gwrite", wal, 2 * small),
            ("gwrite", header, 16),
        ]
        assert log.tail == 1024 + 2 * small
        marker_at = world.layout.wal_offset + base + 2 * small
        for replica in range(3):
            assert world.durable(replica) == (base, log.tail)
            (magic,) = struct.unpack("<I", world.group.read_replica(replica, marker_at, 4))
            assert magic == WRAP_MAGIC
            raw = world.group.read_replica(replica, wal, 1024)
            scanned = list(scan_records(raw, base, log.tail, 1024))
            assert [record.lsn for _, record in scanned] == [3, 4, 5, 6]
            assert [logical for logical, _ in scanned] == [
                base, base + small, 1024, 1024 + small
            ]


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchFailures:
    def test_a_failing_leader_fails_its_whole_batch_and_strands_nobody(self, backend):
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        size = record_size(100)
        submit = world.group.submit
        calls = []

        def failing_submit(task, op):
            calls.append(op)
            if len(calls) == 4:  # the second batch's header
                raise OSError("post failed")
            return (yield from submit(task, op))

        world.group.submit = failing_submit
        tasks = [world.appender(log, f"a{i}", bytes([i + 1]) * 100) for i in range(4)]
        world.run(tasks)  # nobody stays parked
        first, *rest = world.outcomes
        assert first[1].lsn == 0
        assert len(rest) == 3 and len({id(outcome) for _, outcome in rest}) == 1
        assert isinstance(rest[0][1], OSError)
        # Nothing of the failed batch is under the tail...
        assert (log.tail, log.next_lsn) == (size, 1)
        # ...and the next appender leads normally, reusing its LSNs.
        world.outcomes.clear()
        world.run([world.appender(log, "next", b"\x07" * 100)])
        assert world.outcomes[0][1].lsn == 1
        for replica in range(3):
            assert world.durable(replica) == (0, 2 * size)
            records = ReplicatedLog.recover_replica(world.group, world.layout, replica)
            assert [record.entries[0].data for record in records] == [
                bytes([int(first[0][1:]) + 1]) * 100, b"\x07" * 100
            ]

    def test_a_leader_abandoned_mid_batch_fails_its_followers(self, backend):
        """The chain dies under a batch of three and the parked
        leader's task is reclaimed (its generator closed): the other
        two members fail instead of waking up to lead themselves, and
        nothing of the batch is under the tail."""
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        submit = world.group.submit

        def crashing_submit(task, op):
            ack = yield from submit(task, op)
            if len(world.posts) == 3:  # the second batch's record run is posted
                world.cluster[1].crash()
            return ack

        world.group.submit = crashing_submit
        tasks = [world.appender(log, f"a{i}", bytes([i + 1]) * 100) for i in range(4)]
        world.sim.run(until=world.sim.now + 1 * MS)
        assert [name for name, _ in world.outcomes] == ["a0"]
        assert [task.process.triggered for task in tasks] == [True, False, False, False]
        tasks[1].process.generator.close()  # a1 led {a1, a2, a3}
        world.sim.run(until=world.sim.now + 1 * MS)
        assert [name for name, _ in world.outcomes] == ["a0", "a2", "a3"]
        for _, outcome in world.outcomes[1:]:
            assert isinstance(outcome, RuntimeError) and "abandoned" in str(outcome)
        assert (log.tail, log.next_lsn) == (record_size(100), 1)
        assert len(world.posts) == 4  # a2 did not lead the batch again

    def test_wal_full_is_judged_per_member(self, backend):
        """The member that does not fit gets WAL-full with nothing of
        it staged — not even a wrap marker; the members around it are
        written and acked."""
        world = World(backend, wal_size=1024)
        log = ReplicatedLog(world.group, world.layout)
        first, fits, too_big, small = (
            record_size(100), record_size(400), record_size(450), record_size(50)
        )
        # `too_big` needs a wrap, and the wrapped lap is still occupied.
        assert 1024 - first - fits < too_big and first + fits + small <= 1024
        tasks = [
            world.appender(log, "first", b"\x01" * 100),
            world.appender(log, "fits", b"\x02" * 400),
            world.appender(log, "too-big", b"\x03" * 450),
            world.appender(log, "small", b"\x04" * 50),
        ]
        world.run(tasks)
        outcomes = dict(world.outcomes)
        assert isinstance(outcomes["too-big"], RuntimeError)
        assert "WAL full" in str(outcomes["too-big"])
        assert [outcomes[name].lsn for name in ("first", "fits", "small")] == [0, 1, 2]
        assert log.tail == first + fits + small and log.next_lsn == 3
        wal, header = world.layout.wal_offset, world.layout.head_offset
        assert world.posts == [
            ("gwrite", wal, first),
            ("gwrite", header, 16),
            ("gwrite", wal + first, fits + small),
            ("gwrite", header, 16),
        ]
        for replica in range(3):
            records = ReplicatedLog.recover_replica(world.group, world.layout, replica)
            assert [record.entries[0].data[:1] for record in records] == [
                b"\x01", b"\x02", b"\x04"
            ]

    def test_a_batch_in_which_nobody_fits_posts_nothing(self, backend):
        world = World(backend, wal_size=512)
        log = ReplicatedLog(world.group, world.layout)
        size = record_size(200)

        def fill(task):
            for _ in range(2):
                yield from log.append(task, [(0, b"\x01" * 200)])

        world.run([world.spawn(fill, "fill")])
        assert 512 - 2 * size < size
        world.posts.clear()
        tasks = [world.appender(log, f"a{i}", b"\x02" * 200) for i in range(3)]
        world.run(tasks)
        assert world.posts == []
        assert all("WAL full" in str(outcome) for _, outcome in world.outcomes)
        assert (log.tail, log.next_lsn) == (2 * size, 2)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBesideResults:
    def test_each_members_lock_cas_result_goes_back_to_that_member(self, backend):
        """Two `transact` calls share a batch behind an append in
        flight: {records, header, lock gCAS, lock gCAS}. The first
        gCAS wins and its owner executes everything pending; the
        second lost everywhere, so its owner falls into wr_lock's
        retry — and every record is applied exactly once."""
        world = World(backend)
        manager = TransactionManager(world.group, world.layout, writer_id=7)
        lsns = {}

        def pending_append(task):
            lsns["plain"] = yield from manager.transact(task, [(0, b"plain")], execute=False)

        def transaction(name, offset):
            def body(task):
                lsns[name] = yield from manager.transact(task, [(offset, name.encode())])

            return body

        tasks = [
            world.spawn(pending_append, "plain"),
            world.spawn(transaction("winner", 64), "winner"),
            world.spawn(transaction("loser", 128), "loser"),
        ]
        world.run(tasks)
        assert lsns == {"plain": 0, "winner": 1, "loser": 2}
        wal, header, lock = (
            world.layout.wal_offset, world.layout.head_offset, world.layout.lock_offset
        )
        first, both = record_size(5), record_size(6) + record_size(5)
        assert world.posts[:6] == [
            ("gwrite", wal, first),
            ("gwrite", header, 16),
            ("gwrite", wal + first, both),
            ("gwrite", header, 16),
            ("gcas", lock, 0),
            ("gcas", lock, 0),
        ]
        assert manager.locks.conflicts >= 1 and manager.locks.acquisitions == 2
        copies = [post for post in world.posts if post[0] == "gmemcpy"]
        assert sorted(offset for _, offset, _ in copies) == [
            world.layout.db_position(offset) for offset in (0, 64, 128)
        ]  # three records, three copies: none skipped, none twice
        assert manager.log.head == manager.log.tail and not world.group.errors
        for replica in range(3):
            assert manager.locks.holder(replica) == 0
            for offset, data in ((0, b"plain"), (64, b"winner"), (128, b"loser")):
                position = world.layout.db_position(offset)
                assert world.group.read_replica(replica, position, len(data)) == data


@pytest.mark.parametrize("backend", BACKENDS)
class TestPowerFailureMidBatch:
    def test_every_replica_recovers_a_prefix_holding_every_returned_append(self, backend):
        """Cut each replica's power at every step between the batch's
        first post and its header's ack: its NVM yields a prefix of
        whole records, exactly as long as its durable tail, and it
        holds every append that returned."""

        def run(fail_at=None, victim=None):
            world = World(backend)
            log = ReplicatedLog(world.group, world.layout)
            marks = {}
            submit = world.group.submit

            def marking_submit(task, op):
                ack = yield from submit(task, op)
                if len(world.posts) > 2:  # the second batch: extent, header
                    marks.setdefault("posted", world.sim.now)
                    ack.add_callback(lambda _ack: marks.__setitem__("acked", world.sim.now))
                return ack

            world.group.submit = marking_submit
            for index in range(5):
                world.appender(log, f"a{index}", bytes([index + 1]) * 120)
            if fail_at is not None:
                world.sim.call_at(fail_at, world.cluster[victim].crash)
            world.sim.run(until=world.sim.now + 1 * MS)  # the victim's chain stays dead
            return world, marks

        world, marks = run()
        assert len(world.posts) == 4 and len(world.outcomes) == 5
        posted, acked = marks["posted"], marks["acked"]
        assert posted < acked
        lengths = set()
        for step in range(25):
            fail_at = posted + (acked - posted) * step // 24
            for victim in (1, 2, 3):
                world, _ = run(fail_at, victim)
                head, tail = world.durable(victim - 1)
                records = ReplicatedLog.recover_replica(world.group, world.layout, victim - 1)
                lsns = [record.lsn for record in records]
                assert head == 0 and lsns == list(range(len(lsns)))
                assert sum(record.serialized_size for record in records) == tail
                returned = [outcome.lsn for _, outcome in world.outcomes]
                assert set(returned) <= set(lsns), (step, victim, returned, lsns)
                lengths.add(len(lsns))
        # The batch is all or nothing under the durable tail.
        assert lengths == {1, 5}


@pytest.mark.parametrize("backend", BACKENDS)
class TestRebind:
    def _parked_leader_with_two_followers(self, backend):
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        world.run([world.appender(log, "acked", b"\x01" * 100)])
        world.cluster[1].crash()  # chain head gone: no ack ever again
        zombies = [world.appender(log, "leader", b"\x02" * 100)]
        world.sim.run(until=world.sim.now + 50_000)
        zombies += [world.appender(log, f"f{i}", b"\x03" * 100) for i in range(2)]
        world.sim.run(until=world.sim.now + 50_000)
        assert all(not task.process.triggered for task in zombies)
        assert (log.tail, log.next_lsn) == (record_size(100), 1)
        fresh = world.build_group(backend, world.cluster.hosts[2:5], name="w2")
        world.record_posts(fresh)
        world.posts.clear()
        return world, log, fresh, zombies

    def test_a_fresh_append_leads_a_batch_of_one_after_rebind(self, backend):
        world, log, fresh, zombies = self._parked_leader_with_two_followers(backend)
        size = record_size(100)
        old_mutex = log._gate.mutex
        assert old_mutex.in_use == 1 and old_mutex.queue_length == 2
        log.rebind(fresh)
        new_mutex = log._gate.mutex
        assert log.group is fresh and new_mutex is not old_mutex
        world.run([world.appender(log, "fresh", b"\x04" * 100)])
        name, record = world.outcomes[-1]
        # The LSN after the last *acked* record, not after the zombies'.
        assert (name, record.lsn) == ("fresh", 1)
        assert (log.tail, log.next_lsn) == (2 * size, 2)
        wal, header = world.layout.wal_offset, world.layout.head_offset
        assert world.posts == [("gwrite", wal + size, size), ("gwrite", header, 16)]
        # The zombies unwind late (garbage collection, in practice):
        # nothing of the new mutex is theirs to release.
        for task in reversed(zombies):
            task.process.generator.close()
        assert new_mutex.in_use == 0 and new_mutex.queue_length == 0
        world.run([world.appender(log, f"after{i}", b"\x05" * 100) for i in range(3)])
        assert [outcome.lsn for _, outcome in world.outcomes[-3:]] == [2, 3, 4]
        assert new_mutex.in_use == 0 and not log._gate.queue

    def test_a_zombie_follower_woken_by_its_leaders_unwind_touches_nothing(self, backend):
        """Closing only the parked leader hands the dead mutex to the
        first follower, which is still resumable: it must not lead a
        batch onto the rebound log without the new mutex."""
        world, log, fresh, zombies = self._parked_leader_with_two_followers(backend)
        log.rebind(fresh)
        zombies[0].process.generator.close()
        world.sim.run(until=world.sim.now + 100_000)
        assert [name for name, _ in world.outcomes[1:]] == ["f0", "f1"]
        for _, outcome in world.outcomes[1:]:
            assert isinstance(outcome, RuntimeError) and "rebound" in str(outcome)
        assert world.posts == []
        assert (log.tail, log.next_lsn) == (record_size(100), 1)
        assert log._gate.mutex.in_use == 0 and not log._gate.queue


class TestCut:
    def test_a_batch_stops_at_a_waiter_that_is_not_an_appender(self):
        """Queue order: leader (in flight), a1, cut, a2. The next
        leader must not write a2 — a2 is behind the cut in the mutex's
        FIFO, so the cutter would see a tail covering a record whose
        appender has not run."""
        world = World("hyperloop")
        log = ReplicatedLog(world.group, world.layout)
        size = record_size(100)
        seen = {}
        applied = []

        def appender(name):
            def body(task):
                record = yield from log.append(task, [(0, name.encode() * 50)])
                applied.append(record.lsn)  # what a memtable.put would be

            return body

        def cutter(task):
            seen["cut"] = yield from log.cut(task)
            seen["applied"] = list(applied)

        tasks = [
            world.spawn(appender("a0"), "a0"),
            world.spawn(appender("a1"), "a1"),
            world.spawn(cutter, "cutter"),
            world.spawn(appender("a2"), "a2"),
        ]
        world.run(tasks)
        assert seen["cut"] == (1, 2 * size)
        assert seen["applied"] == [0, 1]
        assert [len(batch) for batch in world.batches()] == [2, 2, 2]  # three batches of one
        assert applied == [0, 1, 2]

    def test_cut_on_an_idle_log_returns_at_once(self):
        world = World("hyperloop")
        log = ReplicatedLog(world.group, world.layout)
        seen = {}

        def body(task):
            started = world.sim.now
            seen["cut"] = yield from log.cut(task)
            seen["took"] = world.sim.now - started

        world.run([world.spawn(body, "cutter")])
        assert seen == {"cut": (-1, 0), "took": 0}


# -- exact count gates -------------------------------------------------------------


def _kv_on_sixteen_cores(backend):
    """The e2e benchmark's store (`kv_ycsb_a`) with the client's ack
    poller on a core of its own and no tenants: an idle world."""
    sim = Simulator(seed=7)
    cluster = Cluster(sim, n_hosts=4, n_cores=16)
    group = BACKENDS[backend](
        cluster[0], cluster.hosts[1:4], region_size=1 << 21, rounds=4096,
        durable=True, client_mode="polling", client_core=15, name="sut",
    )
    return sim, cluster, group, ReplicatedKVStore(group, start_sync_tasks=False)


def _eight_puts_on_a_warm_idle_group(backend):
    sim, cluster, group, kv = _kv_on_sixteen_cores(backend)
    posts, finished = [], []
    go = sim.event()
    submit = group.submit

    def recording_submit(task, op):
        posts.append((op.kind, op.size))
        return (yield from submit(task, op))

    group.submit = recording_submit

    def warm_up(task):
        yield from kv.put(task, b"warm", bytes(1024))
        yield from task.sleep(100_000)
        posts.clear()
        go.succeed(sim.now)

    def writer(index):
        def body(task):
            started = yield from task.wait(go)
            yield from kv.put(task, b"user%08d" % index, bytes([index + 1]) * 1024)
            finished.append(sim.now - started)

        return body

    tasks = [cluster[0].os.spawn(warm_up, "warm")]
    tasks += [cluster[0].os.spawn(writer(index), f"w{index}") for index in range(8)]
    run_until(sim, lambda: len(finished) == 8, deadline_ms=10)
    return posts, finished, kv


@pytest.mark.parametrize("backend", BACKENDS)
def test_eight_concurrent_puts_cost_four_chain_ops(backend):
    """Was 16 (record + header per put, one round trip each in turn)."""
    posts, finished, kv = _eight_puts_on_a_warm_idle_group(backend)
    size = record_size(7 + 12 + 1024)  # kv op header + key + value
    assert posts == [("gwrite", size), ("gwrite", 16), ("gwrite", 7 * size), ("gwrite", 16)]
    assert len(finished) == 8 and len(kv.memtable) == 9
    for replica in range(3):
        assert len(kv.recover_from_replica(replica)) == 9


def test_eight_concurrent_puts_finish_in_two_round_trips():
    """One lone put is 12.19 sim us here; the last of 8 used to finish
    at 83.1 (eight round trips in turn), now at 24.8 (two)."""
    _, finished, _ = _eight_puts_on_a_warm_idle_group("hyperloop")
    assert finished[0] == 12_190
    assert max(finished) < 35_000


N_WRITERS = 8
PUTS_PER_WRITER = 50

KERNEL_DISPATCHES = 22_958  # 86,450 before group commit
NIC_WQES = 2_000  # 8,000
WAL_BATCHES = 100  # two cohorts of four writers take turns; was 400 of one


def _measure_closed_loop_writers():
    with tracing(record_kernel=False) as tracer:
        sim, cluster, _, kv = _kv_on_sixteen_cores("hyperloop")

        def writer(index):
            def body(task):
                for step in range(PUTS_PER_WRITER):
                    key = b"user%08d" % ((index * 7 + step) % 20)
                    yield from kv.put(task, key, bytes([index + 1]) * 1024)

            return body

        tasks = [cluster[0].os.spawn(writer(index), f"w{index}") for index in range(N_WRITERS)]
        run_until(sim, lambda: all(task.process.triggered for task in tasks), deadline_ms=100)
        assert kv.puts == N_WRITERS * PUTS_PER_WRITER
    counters = tracer.counters
    return (
        tracer.dispatches, counters["nic.wqe_executed"],
        counters["wal.batches"], counters["wal.records"],
    )


def test_closed_loop_writers_repeat_exactly_and_match_the_pin():
    """8 writers x 50 puts: counts, not clocks, as in test_txn_cost_gate."""
    measured = _measure_closed_loop_writers()
    assert measured == _measure_closed_loop_writers()
    kernel, wqes, batches, records = measured
    assert records == N_WRITERS * PUTS_PER_WRITER
    assert (kernel, wqes, batches) == (KERNEL_DISPATCHES, NIC_WQES, WAL_BATCHES)
