"""WAL group commit: appenders queued at the WAL mutex ride one
leader's record run.

A batch is whatever queued while the previous one was in flight, so
the tests make batches the way applications do: N tasks append at
once on an idle log, the first leads a batch of one, the other N-1
queue behind it and ride the second. The edge cases (leader failure,
WAL-full per member, a wrap inside a batch, beside results, power
failure mid-batch, failover) run over both backends; the exact count
gates at the bottom compare their measured counts with
``tests/pins.json`` (``wal.*``).
"""

import struct

import pytest

from repro.baseline import NaiveGroup
from repro.bench import run_until
from repro.core import HyperLoopGroup
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import MS, Simulator
from repro.core.chain import GCAS, OpSpec
from repro.storage import ChainRepair, RegionLayout, ReplicatedKVStore, ReplicatedLog
from repro.storage.transactions import TransactionManager
from repro.storage.wal import WRAP_MAGIC, LogRecord, scan_records
from tests.pins import assert_pinned

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

    def appender(self, log, name, data, offset=0, executed=False):
        verb = log.append_executed if executed else log.append

        def body(task):
            try:
                outcome = yield from verb(task, [(offset, data)])
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

    def header(self, replica):
        """A replica's durable WAL header: ``(head, LSN at head)``."""
        header = self.group.read_replica(replica, self.layout.head_offset, 16)
        return struct.unpack("<QQ", header)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchShape:
    def test_queued_appenders_ride_one_record_run(self, backend):
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        tasks = [world.appender(log, f"a{i}", bytes([i + 1]) * 100) for i in range(5)]
        world.run(tasks)
        size = record_size(100)
        wal = world.layout.wal_offset
        assert world.posts == [
            ("gwrite", wal, size),
            ("gwrite", wal + size, 4 * size),  # four records, one extent
        ]
        # Consecutive LSNs in queue order, handed back in that order.
        assert [record.lsn for _, record in world.outcomes] == [0, 1, 2, 3, 4]
        assert (log.tail, log.next_lsn) == (5 * size, 5)
        by_lsn = {record.lsn: name for name, record in world.outcomes}
        for replica in range(3):
            assert world.header(replica) == (0, 0)  # appends write no header
            records = ReplicatedLog.recover_replica(world.group, world.layout, replica)
            assert [record.lsn for record in records] == [0, 1, 2, 3, 4]
            for record in records:  # each member got its own record back
                index = int(by_lsn[record.lsn][1:])
                assert record.entries[0].data == bytes([index + 1]) * 100

    def test_a_lone_appender_posts_marker_then_record(self, backend):
        """A batch of one is the record alone — with its wrap marker
        first: marker and record are not adjacent, so they stay two
        gWRITEs."""
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
        wal = world.layout.wal_offset
        assert world.posts == [("gwrite", wal + 4 * size, 4), ("gwrite", wal, size)]
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
        wal = world.layout.wal_offset
        assert world.posts == [
            ("gwrite", wal + base, small),
            ("gwrite", wal + base + small, small + 4),
            ("gwrite", wal, 2 * small),
        ]
        assert log.tail == 1024 + 2 * small
        marker_at = world.layout.wal_offset + base + 2 * small
        for replica in range(3):
            assert world.header(replica) == (base, 3)
            (magic,) = struct.unpack("<I", world.group.read_replica(replica, marker_at, 4))
            assert magic == WRAP_MAGIC
            raw = world.group.read_replica(replica, wal, 1024)
            scanned = list(scan_records(raw, base, 3, 1024))
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
            if len(calls) == 2:  # the second batch's record run
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
            if len(world.posts) == 2:  # the second batch's record run is posted
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
        assert len(world.posts) == 2  # a2 did not lead the batch again

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
        wal = world.layout.wal_offset
        assert world.posts == [("gwrite", wal, first), ("gwrite", wal + first, fits + small)]
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
class TestExecutedAppends:
    def test_an_executed_append_drains_what_is_pending_first(self, backend):
        """A plain append leaves its record pending. An executed append
        executes it first (its gMEMCPY, in a wait of its own), so no
        older record lands over an image; then it posts [owed header,
        record, image] in one wait and moves the head past its record,
        owing that advance in turn."""
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        first, second = record_size(100), record_size(60)

        def body(task):
            yield from log.append(task, [(0, b"\x01" * 100)])
            world.posts.clear()
            yield from log.append_executed(task, [(0, b"\x02" * 60)])

        world.run([world.spawn(body, "writer")])
        layout = world.layout
        wal, db = layout.wal_offset, layout.db_offset
        assert world.posts == [
            ("gmemcpy", db, 100),
            ("gwrite", layout.head_offset, 16),
            ("gwrite", wal + first, second),
            ("gwrite", db, 60),
        ]
        assert (log.head, log.head_lsn) == (log.tail, log.next_lsn) == (first + second, 2)
        for replica in range(3):
            assert world.header(replica) == (first, 1)
            records = ReplicatedLog.recover_replica(world.group, layout, replica)
            assert [record.lsn for record in records] == [1]  # redo is idempotent
            assert world.group.read_replica(replica, db, 100) == b"\x02" * 60 + b"\x01" * 40

    def test_a_batch_is_all_executed_appends_or_none(self, backend):
        """Queued behind a lone leader, executed and plain appends
        alternate, so each leads a batch of one: a plain record never
        rides an executed batch whose head advance would skip it."""
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        tasks = [
            world.appender(log, f"a{i}", bytes([i + 1]) * 100, 128 * i, executed=i % 2)
            for i in range(4)
        ]
        world.run(tasks)
        layout = world.layout
        wal, db, size = layout.wal_offset, layout.db_offset, record_size(100)
        assert world.posts == [
            ("gwrite", wal, size),  # a0
            ("gmemcpy", db, 100),  # a1 drains a0 first
            ("gwrite", layout.head_offset, 16),
            ("gwrite", wal + size, size),
            ("gwrite", db + 128, 100),
            ("gwrite", layout.head_offset, 16),  # a2 carries a1's advance
            ("gwrite", wal + 2 * size, size),
            ("gmemcpy", db + 256, 100),  # a3 drains a2 first
            ("gwrite", layout.head_offset, 16),
            ("gwrite", wal + 3 * size, size),
            ("gwrite", db + 384, 100),
        ]
        assert log.head == log.tail == 4 * size
        for replica in range(3):
            raw = world.group.read_replica(replica, db, 512)
            assert [raw[128 * i : 128 * i + 100] for i in range(4)] == [
                bytes([i + 1]) * 100 for i in range(4)
            ]

    def test_a_refused_member_stages_no_image(self, backend):
        """The member that does not fit the ring gets WAL-full, and not
        a byte of its image reaches the client's mirror of the DB area;
        the members around it are executed there and on every
        replica."""
        world = World(backend, wal_size=1024)
        log = ReplicatedLog(world.group, world.layout)
        layout = world.layout
        first, fits, too_big = record_size(100), record_size(400), record_size(450)
        # After `first` executes, `too_big` needs a wrap onto it.
        assert 1024 - first - fits < too_big
        members = [
            ("first", 100, 0), ("fits", 400, 128), ("too-big", 450, 1024), ("small", 50, 2048)
        ]
        tasks = [
            world.appender(log, name, bytes([i + 1]) * size, offset, executed=True)
            for i, (name, size, offset) in enumerate(members)
        ]
        world.run(tasks)
        outcomes = dict(world.outcomes)
        assert "WAL full" in str(outcomes["too-big"])
        expected = bytearray(layout.db_size)
        for i, (name, size, offset) in enumerate(members):
            if name != "too-big":
                assert outcomes[name].lsn == min(i, 2)
                expected[offset : offset + size] = bytes([i + 1]) * size
        db = (layout.db_offset, layout.db_size)
        assert world.group.client_region.read(*db) == expected
        for replica in range(3):
            assert world.group.read_replica(replica, *db) == expected

    def test_a_posted_executed_append_holds_the_mutex_until_its_wait(self, backend):
        """``post_executed`` posts [owed header, record, image] and
        returns with the WAL mutex held: an append that queues meanwhile
        posts nothing, however long ago the acks came in, until the
        wait settles the batch. It then carries the header that batch
        owes ahead of its record."""
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        layout = world.layout
        wal, db = layout.wal_offset, layout.db_offset
        first, second, plain = record_size(100), record_size(60), record_size(50)
        seen = {}

        def appender(task):
            record = yield from log.append(task, [(256, b"\x03" * 50)])
            world.outcomes.append(("plain", record))

        def poster(task):
            yield from log.append_executed(task, [(0, b"\x01" * 100)])
            world.posts.clear()
            posted = yield from log.post_executed(task, [(128, b"\x02" * 60)])
            seen["posted"] = list(world.posts)
            world.spawn(appender, "plain")
            yield from task.sleep(1 * MS)
            seen["queued"] = (list(world.posts), list(world.outcomes))
            record, _ = yield from posted.wait(task)
            seen["record"] = record

        world.run([world.spawn(poster, "poster")])
        world.sim.run(until=world.sim.now + 1 * MS)
        header = ("gwrite", layout.head_offset, 16)
        executed = [header, ("gwrite", wal + first, second), ("gwrite", db + 128, 60)]
        assert seen["posted"] == executed
        assert seen["queued"] == (executed, [])
        assert seen["record"].lsn == 1
        assert world.posts == executed + [header, ("gwrite", wal + first + second, plain)]
        [(name, record)] = world.outcomes
        assert name == "plain" and record.lsn == 2
        assert (log.head, log.tail) == (first + second, first + second + plain)

    def test_a_failed_wait_owes_what_it_carried_and_its_scrub(self, backend):
        """B's batch reached every replica but its wait failed: B is a
        zombie past the tail, zeroed in the mirror, and the header B
        carried is owed again beside B's scrub. C carries both, and its
        wait fails too: both stay owed — the mirror no longer shows B,
        so no re-scan would find it again — and C's scrub joins them.
        D (B's length, B's LSN) goes out behind all three."""
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        layout = world.layout
        wal, db = layout.wal_offset, layout.db_offset
        size, short = record_size(100), record_size(60)
        wait = world.group.wait

        def failing_wait(task, acks):
            yield from wait(task, acks)
            raise OSError("wait failed")

        def body(task):
            yield from log.append_executed(task, [(0, b"\x01" * 100)])
            world.group.wait = failing_wait
            for name, data in (("B", b"\x02" * 100), ("C", b"\x03" * 60)):
                posted = yield from log.post_executed(task, [(128, data)])
                try:
                    yield from posted.wait(task)
                except OSError as exc:
                    world.outcomes.append((name, exc))
            del world.group.wait
            world.posts.clear()
            world.outcomes.append(("D", (yield from log.append_executed(task, [(256, b"\x04" * 100)]))))

        world.run([world.spawn(body, "writer")])
        outcomes = dict(world.outcomes)
        assert isinstance(outcomes["B"], OSError) and isinstance(outcomes["C"], OSError)
        assert outcomes["D"].lsn == 1
        assert world.posts == [
            ("gwrite", layout.head_offset, 16),
            ("gwrite", wal + size, size),  # B zeroed
            ("gwrite", wal + size, short),  # C zeroed
            ("gwrite", wal + size, size),  # D
            ("gwrite", db + 256, 100),
        ]
        for replica in range(3):
            records = ReplicatedLog.recover_replica(world.group, layout, replica)
            assert [(record.lsn, record.entries[0].data[:1]) for record in records] == [
                (1, b"\x04")
            ]


@pytest.mark.parametrize("backend", BACKENDS)
class TestBesideResults:
    def test_each_members_lock_cas_result_goes_back_to_that_member(self, backend):
        """Two `transact` calls share a batch behind an append in
        flight: {records, lock gCAS, lock gCAS}. The first
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
        wal, lock = world.layout.wal_offset, world.layout.lock_offset
        first, both = record_size(5), record_size(6) + record_size(5)
        assert world.posts[:4] == [
            ("gwrite", wal, first),
            ("gwrite", wal + first, both),
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
        post and its ack: the scan of its NVM yields a prefix of the
        appended records, whole, in LSN order, and it holds every
        append that returned."""

        def run(fail_at=None, victim=None):
            world = World(backend)
            log = ReplicatedLog(world.group, world.layout)
            marks = {}
            submit = world.group.submit

            def marking_submit(task, op):
                ack = yield from submit(task, op)
                if len(world.posts) > 1:  # the second batch's extent
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
        assert len(world.posts) == 2 and len(world.outcomes) == 5
        posted, acked = marks["posted"], marks["acked"]
        assert posted < acked
        lengths = set()
        for step in range(25):
            fail_at = posted + (acked - posted) * step // 24
            for victim in (1, 2, 3):
                world, _ = run(fail_at, victim)
                records = ReplicatedLog.recover_replica(world.group, world.layout, victim - 1)
                lsns = [record.lsn for record in records]
                assert lsns == list(range(len(lsns)))
                assert [record.entries[0].data for record in records] == [
                    bytes([index + 1]) * 120 for index in range(len(records))
                ]
                returned = [outcome.lsn for _, outcome in world.outcomes]
                assert set(returned) <= set(lsns), (step, victim, returned, lsns)
                lengths.add(len(lsns))
        # The batch's four records are one extent, one RDMA WRITE, and
        # a WRITE lands whole or not at all: all or nothing still.
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
        # `fresh` is an empty group, so there is no zombie to scrub.
        assert world.posts == [("gwrite", world.layout.wal_offset + size, size)]
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


@pytest.mark.parametrize("backend", BACKENDS)
class TestZombieScrub:
    """A batch that failed or was abandoned can leave its records on
    the replicas past the client's tail. The next record reuses the
    zombie's first LSN and offset: one of the same length ends exactly
    where the zombie's second record begins, and a scan from the head
    would resurrect that record unless the zombie is zeroed first."""

    def _zombie_batch(self, world, log, on_post, beside=()):
        """A is acked; B and C queue behind it and ride the next batch.
        ``on_post()`` runs once that batch's record run is posted; B
        carries ``beside`` ops. Returns the three tasks."""
        submit = world.group.submit

        def hooking_submit(task, op):
            ack = yield from submit(task, op)
            if len(world.posts) == 2:  # {B, C}'s record run
                on_post()
            return ack

        world.group.submit = hooking_submit

        def member_b(task):
            try:
                outcome = yield from log.append_beside(task, [(0, b"\x02" * 100)], beside)
            except Exception as exc:  # the test inspects what was raised
                outcome = exc
            world.outcomes.append(("B", outcome))

        return [
            world.appender(log, "A", b"\x01" * 100),
            world.spawn(member_b, "B"),
            world.appender(log, "C", b"\x03" * 240),
        ]

    @staticmethod
    def _recovered(group, layout):
        return [
            [record.entries[0].data[:1] for record in ReplicatedLog.recover_replica(group, layout, r)]
            for r in range(group.group_size)
        ]

    def test_the_zombie_of_a_failed_batch_is_zeroed_before_the_next_record(self, backend):
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        original = world.group.submit

        def failing_submit(task, op):
            if op.kind == GCAS:  # fails once the records have landed
                yield from task.sleep(50_000)
                raise OSError("post failed")
            return (yield from original(task, op))

        world.group.submit = failing_submit
        lock = OpSpec(GCAS, offset=world.layout.lock_offset, compare=0, swap=1)
        world.run(self._zombie_batch(world, log, lambda: None, beside=[lock]))
        outcomes = dict(world.outcomes)
        assert outcomes["A"].lsn == 0
        assert isinstance(outcomes["B"], OSError) and outcomes["C"] is outcomes["B"]
        assert (log.tail, log.next_lsn) == (record_size(100), 1)
        world.sim.run(until=world.sim.now + 100_000)
        # The zombie is whole on every replica: the chain is alive.
        assert self._recovered(world.group, world.layout) == [[b"\x01", b"\x02", b"\x03"]] * 3
        world.run([world.appender(log, "D", b"\x04" * 100)])  # B's length, B's LSN
        assert world.outcomes[-1][1].lsn == 1
        assert self._recovered(world.group, world.layout) == [[b"\x01", b"\x04"]] * 3

    def test_the_zombie_a_survivor_holds_is_zeroed_after_rebind(self, backend):
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        tail_host = world.cluster[3]  # last in the chain: the others get the batch
        tasks = self._zombie_batch(world, log, tail_host.crash)
        world.sim.run(until=world.sim.now + 1 * MS)
        assert [name for name, _ in world.outcomes] == ["A"]
        assert not tasks[1].process.triggered and not tasks[2].process.triggered
        assert (log.tail, log.next_lsn) == (record_size(100), 1)
        survivor = self._recovered(world.group, world.layout)[0]
        assert survivor == [b"\x01", b"\x02", b"\x03"]  # the zombie reached it
        repair = ChainRepair(
            world.cluster[0], world.group,
            lambda members: world.build_group(backend, members, name="w2"),
        )
        repaired = {}

        def repairer(task):
            repaired["group"] = yield from repair.repair(task, 2, world.cluster[4], copy_from=0)

        world.run([world.spawn(repairer, "repair")], deadline_ms=50)
        fresh = repaired["group"]
        log.rebind(fresh)
        world.run([world.appender(log, "D", b"\x04" * 100)])  # B's length, B's LSN
        assert world.outcomes[-1][1].lsn == 1
        assert self._recovered(fresh, world.layout) == [[b"\x01", b"\x04"]] * 3


    def test_a_refused_post_keeps_the_scrub_it_carried(self, backend):
        """The first post after the failed batch carries the scrub, and
        the group refuses it at its first submit, before anything goes
        out. The mirror is already zeroed, so no re-scan finds the
        zombie again: the scrub must stay owed, or D (B's length, B's
        LSN) ends where C begins and every replica recovers C again."""
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)
        original = world.group.submit
        refuse = []

        def failing_submit(task, op):
            if op.kind == GCAS:  # fails once the records have landed
                yield from task.sleep(50_000)
                raise OSError("post failed")
            if refuse:
                refuse.clear()
                raise OSError("post refused")
            return (yield from original(task, op))

        world.group.submit = failing_submit
        lock = OpSpec(GCAS, offset=world.layout.lock_offset, compare=0, swap=1)
        world.run(self._zombie_batch(world, log, lambda: None, beside=[lock]))
        world.sim.run(until=world.sim.now + 100_000)
        assert self._recovered(world.group, world.layout) == [[b"\x01", b"\x02", b"\x03"]] * 3
        refuse.append(True)
        world.run([world.appender(log, "refused", b"\x05" * 100)])
        assert isinstance(world.outcomes[-1][1], OSError)
        world.run([world.appender(log, "D", b"\x04" * 100)])  # B's length, B's LSN
        assert world.outcomes[-1][1].lsn == 1
        assert self._recovered(world.group, world.layout) == [[b"\x01", b"\x04"]] * 3

    def test_a_head_advance_lost_with_the_dead_chain_is_restated(self, backend):
        """A is executed and its head advance owed; the chain head dies
        as B's post carries that header gWRITE ahead of B. The client's
        head is past A, but the survivor's header is not. After rebind
        the header rides the first post again, so no replica recovers A
        again (nor stops a lap past the old head)."""
        world = World(backend)
        log = ReplicatedLog(world.group, world.layout)

        def install(task):
            yield from log.append(task, [(0, b"\x01" * 100)])
            yield from log.drain(task)

        world.run([world.spawn(install, "A")])
        assert (log.head, log.head_lsn) == (record_size(100), 1)
        assert world.header(0) == (0, 0)  # owed, not posted
        submit = world.group.submit

        def crashing_submit(task, op):
            ack = yield from submit(task, op)
            if op.kind == "gwrite" and op.offset == world.layout.head_offset:
                world.cluster[1].crash()
            return ack

        world.group.submit = crashing_submit
        zombie = world.appender(log, "B", b"\x02" * 100)
        world.sim.run(until=world.sim.now + 1 * MS)
        assert not zombie.process.triggered
        assert (log.tail, log.next_lsn) == (record_size(100), 1)
        assert world.header(1) == (0, 0)  # the survivor never got it
        repair = ChainRepair(
            world.cluster[0], world.group,
            lambda members: world.build_group(backend, members, name="w2"),
        )
        repaired = {}

        def repairer(task):
            repaired["group"] = yield from repair.repair(task, 0, world.cluster[4], copy_from=1)

        world.run([world.spawn(repairer, "repair")], deadline_ms=50)
        fresh = repaired["group"]
        log.rebind(fresh)
        world.run([world.appender(log, "C", b"\x03" * 100)])
        assert self._recovered(fresh, world.layout) == [[b"\x03"]] * 3


@pytest.mark.parametrize("executed", [False, True], ids=["append-drain", "append-executed"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_installs_lapping_the_ring_leave_each_replica_a_log_from_its_own_header(
    backend, executed
):
    """Lone installs (append, then drain; or one executed append) of
    mixed sizes lap a 1 KiB ring three times, wrap markers and all.
    Ring room is judged against the client's head, while each install's
    head advance is only owed: it rides the next record's post, ahead
    of it on the gWRITE chain. So
    at every simulated instant — every ack included — a scan from each
    replica's own header finds LSNs up to the last record written (or
    the one in flight), and that header is no earlier than the previous
    drain's head. A header posted behind the record lets a record that
    laps onto the previous one land first, and the scan finds nothing."""
    world = World(backend, wal_size=1024)
    log = ReplicatedLog(world.group, world.layout)
    heads = [0, 0]  # the client's LSN at head after each drain
    appending = [False]
    sizes = [464, 64, 476] * 4  # the 476s wrap and land on the 64s before them

    def body(task):
        for index, size in enumerate(sizes):
            appending[0] = True
            changes = [(8 * index, bytes([index + 1]) * size)]
            if executed:
                yield from log.append_executed(task, changes)
            else:
                yield from log.append(task, changes)
                appending[0] = False
                yield from log.drain(task)
            appending[0] = False
            heads.append(log.head_lsn)

    def check():
        ends = {log.next_lsn - 1, log.next_lsn - 1 + appending[0]}
        for replica in range(3):
            head, lsn = world.header(replica)
            raw = world.group.read_replica(replica, world.layout.wal_offset, 1024)
            run = [record.lsn for _, record in scan_records(raw, head, lsn, 1024)]
            assert lsn >= heads[-2], (replica, lsn, heads[-2])
            assert lsn + len(run) - 1 in ends, (replica, lsn, run, ends)

    task = world.spawn(body, "installer")
    queue = world.sim._queue
    while not task.process.triggered:
        world.sim.run(until=queue[0][0])  # every event of the next instant
        check()
    assert task.process.ok, task.process.value
    assert log.head == log.tail > 3 * 1024 and log.next_lsn == len(sizes)
    assert world.header(0) == (log.head - record_size(476), len(sizes) - 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_empty_log_over_a_stale_lap_recovers_nothing(backend):
    """Lap a 1 KiB ring with 128-byte records (no wrap markers: a lap
    is exactly eight records), checkpointing as it goes, and end on a
    checkpoint: the log is empty, and the bytes at its head are a
    whole record from the previous lap. The header's LSN at head tells
    them apart: recovery returns nothing and a replica's sync replays
    the checkpoint alone."""
    world = World(backend)
    layout = RegionLayout(wal_size=1024, db_size=4096)
    kv = ReplicatedKVStore(world.group, layout, start_sync_tasks=False)
    size = record_size(7 + 5 + 82)  # kv op header + key + value
    assert size == 128

    def body(task):
        for index in range(12):
            yield from kv.put(task, b"key%02d" % index, bytes([index]) * 82)
            if index % 4 == 3:
                yield from kv.checkpoint(task)

    world.run([world.spawn(body, "writer")])
    assert kv.log.head == kv.log.tail == 12 * size and kv.log.head_lsn == 12
    stale = layout.wal_position(kv.log.head)
    for replica in range(3):
        assert world.group.read_replica(replica, layout.head_offset, 16) == struct.pack(
            "<QQ", 12 * size, 12
        )
        raw = world.group.read_replica(replica, stale, size)
        assert LogRecord.deserialize(raw).lsn == 4  # whole, one lap old
        assert ReplicatedLog.recover_replica(world.group, layout, replica) == []
        assert kv.sync_replica(replica) == 12  # the checkpoint's keys, no record
        assert kv.sync_replica(replica) == 0
        assert kv.recover_from_replica(replica) == dict(kv.memtable.items())


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
        wal = world.layout.wal_offset
        assert world.posts == [  # three batches of one
            ("gwrite", wal + index * size, size) for index in range(3)
        ]
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
def test_eight_concurrent_puts_cost_two_chain_ops(backend):
    """Was 16 (record + header per put, one round trip each in turn),
    then 4 (record run + header per batch)."""
    posts, finished, kv = _eight_puts_on_a_warm_idle_group(backend)
    size = record_size(7 + 12 + 1024)  # kv op header + key + value
    assert posts == [("gwrite", size), ("gwrite", 7 * size)]
    assert len(finished) == 8 and len(kv.memtable) == 9
    for replica in range(3):
        assert len(kv.recover_from_replica(replica)) == 9


def measure_first_put():
    """Sim ns of the first of 8 concurrent puts: a lone put's round
    trip; the other seven ride the second."""
    _, finished, _ = _eight_puts_on_a_warm_idle_group("hyperloop")
    assert max(finished) < 35_000  # two round trips, not eight in turn
    return {"sim_ns": finished[0]}


def test_eight_concurrent_puts_finish_in_two_round_trips():
    assert_pinned("wal.first-put", measure_first_put())


N_WRITERS = 8
PUTS_PER_WRITER = 50


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


def measure_closed_loop():
    """8 writers x 50 puts: counts, not clocks, as in test_txn_cost_gate."""
    measured = _measure_closed_loop_writers()
    assert measured == _measure_closed_loop_writers()
    kernel, wqes, batches, records = measured
    assert records == N_WRITERS * PUTS_PER_WRITER
    return {"kernel_dispatches": kernel, "nic_wqes": wqes, "wal_batches": batches}


def test_closed_loop_writers_repeat_exactly_and_match_the_pin():
    assert_pinned("wal.closed-loop", measure_closed_loop())
