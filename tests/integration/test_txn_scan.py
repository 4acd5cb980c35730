"""Integration tests: a scan's batched cross-check reads.

``TxnCoordinator.scan`` posts one READ batch per group — holding
several replicas' read channels at once — and waits for all of them.
Whatever ends a scan early must give every channel back, and two
scanners must never each hold the channel the other queues on.
"""

import pytest

from repro.bench import run_until
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import Simulator
from repro.txn import TxnAborted, build_txn_system

N_GROUPS = 4
KEYS = [b"y%04d" % index for index in range(48)]


def make(seed=29):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=N_GROUPS)

    def load(task):
        txn = yield from coordinator.begin(task)
        for index, key in enumerate(KEYS):
            coordinator.write(txn, key, b"v%04d" % index)
        yield from coordinator.commit(task, txn)

    drive(sim, cluster, load)
    return sim, cluster, coordinator


def drive(sim, cluster, body, until_ms=1_000):
    done = {}

    def wrapper(task):
        done["r"] = yield from body(task)

    task = cluster[0].os.spawn(wrapper, "client")
    run_until(sim, lambda: task.process.triggered, deadline_ms=until_ms)
    if not task.process.ok:
        raise task.process.value
    return done["r"]


def channels(coordinator, index):
    return coordinator.stores[index].group._reader._channels


def posted_reads(coordinator):
    return [
        channel.qp.send_posted
        for index in range(N_GROUPS)
        for channel in channels(coordinator, index)
    ]


def assert_channels_free_and_every_group_readable(sim, cluster, coordinator):
    """After the dust settles: no channel held or queued on, and a
    plain read on every group completes with the loaded value."""
    by_group = {}
    for index, key in enumerate(KEYS):
        by_group.setdefault(coordinator.locate(key), (key, b"v%04d" % index))
    assert sorted(by_group) == list(range(N_GROUPS))

    def read_each(task):
        txn = yield from coordinator.begin(task)
        values = []
        for group in range(N_GROUPS):
            values.append((yield from coordinator.read(task, txn, by_group[group][0])))
        yield from coordinator.commit(task, txn)
        return values

    values = drive(sim, cluster, read_each)
    assert values == [by_group[group][1] for group in range(N_GROUPS)]
    for index in range(N_GROUPS):
        for channel in channels(coordinator, index):
            assert channel.lock.in_use == 0 and channel.lock.queue_length == 0
            assert channel.qp.send_cq.entries == []
            assert channel.qp.send_cq.completions_total == channel.qp.send_posted


def recorded(coordinator, txn):
    """Everything a scan records for its transaction."""
    return (
        dict(txn.reads),
        list(txn.scans),
        [obs for obs in coordinator.observations if obs["txid"] == txn.txid],
        sorted(coordinator.graph._out.get(txn.txid, ())),
    )


NOTHING = ({}, [], [], [])


class TestExitPaths:
    def test_no_available_copy_on_a_later_group_posts_nothing(self):
        sim, cluster, coordinator = make()
        tracker = coordinator.tracker
        tracker.max_wait_ns = 300_000
        tracker.on_repair_phase(2)("repair")  # group 2 serves nothing
        before = posted_reads(coordinator)
        seen = {}

        def body(task):
            txn = seen["txn"] = yield from coordinator.begin(task)
            with pytest.raises(TxnAborted) as caught:
                yield from coordinator.scan(task, txn, b"y0010", 12)
            return caught.value.reason

        assert drive(sim, cluster, body) == "unavailable"
        # Replicas are chosen before any channel is taken: groups 0 and
        # 1 were eligible, and still nothing went out.
        assert posted_reads(coordinator) == before
        assert seen["txn"].status == "aborted"
        assert coordinator.aborts_unavailable == 1 and tracker.blocks == 1
        assert recorded(coordinator, seen["txn"]) == NOTHING
        tracker.on_repair_phase(2)("repair-done")
        assert_channels_free_and_every_group_readable(sim, cluster, coordinator)

    def test_error_completion_abandons_the_other_groups_batches(self):
        sim, cluster, coordinator = make()
        mr = channels(coordinator, 1)[0].mr
        good_rkey = mr.rkey
        seen = {}

        def body(task):
            txn = seen["txn"] = yield from coordinator.begin(task)
            mr.rkey = good_rkey + 999  # group 1's replica refuses the READ
            with pytest.raises(RuntimeError, match="pread failed"):
                yield from coordinator.scan(task, txn, b"y0010", 12)
            mr.rkey = good_rkey
            # Groups 2 and 3 were posted and never collected.
            return [
                channels(coordinator, index)[0].lock.in_use for index in range(N_GROUPS)
            ]

        assert drive(sim, cluster, body) == [0, 0, 0, 0]
        assert recorded(coordinator, seen["txn"]) == NOTHING
        assert_channels_free_and_every_group_readable(sim, cluster, coordinator)

    def test_close_while_queued_on_the_second_groups_channel(self):
        sim, cluster, coordinator = make()
        group_one = coordinator.stores[1].group
        lock_one = channels(coordinator, 1)[0].lock
        seen = {}

        def holder(task):
            posted = yield from group_one.post_reads(task, 0, [(0, 8)])
            yield from task.sleep(40_000)
            yield from posted.wait(task)
            seen["held"] = True

        def scanner(task):
            txn = seen["txn"] = yield from coordinator.begin(task)
            yield from task.sleep(10_000)
            yield from coordinator.scan(task, txn, b"y0010", 12)

        cluster[0].os.spawn(holder, "holder")
        zombie = cluster[0].os.spawn(scanner, "scanner")
        run_until(sim, lambda: lock_one.queue_length == 1, deadline_ms=1, chunk_ms=0.0005)
        # Parked on group 1's channel, holding group 0's.
        assert channels(coordinator, 0)[0].lock.in_use == 1
        zombie.process.generator.close()
        assert channels(coordinator, 0)[0].lock.in_use == 0
        run_until(sim, lambda: "held" in seen, deadline_ms=10)
        assert recorded(coordinator, seen["txn"]) == NOTHING
        coordinator.abort(seen["txn"])
        assert_channels_free_and_every_group_readable(sim, cluster, coordinator)

    def test_close_while_parked_on_the_completions(self):
        sim, cluster, coordinator = make()
        before = posted_reads(coordinator)
        seen = {}

        def scanner(task):
            txn = seen["txn"] = yield from coordinator.begin(task)
            yield from coordinator.scan(task, txn, b"y0010", 12)

        zombie = cluster[0].os.spawn(scanner, "scanner")
        run_until(
            sim,
            lambda: sum(posted_reads(coordinator)) == sum(before) + N_GROUPS,
            deadline_ms=1,
            chunk_ms=0.0001,
        )
        held = [channels(coordinator, index)[0].lock.in_use for index in range(N_GROUPS)]
        assert held == [1, 1, 1, 1]  # every group's batch is in flight
        zombie.process.generator.close()
        assert recorded(coordinator, seen["txn"]) == NOTHING
        coordinator.abort(seen["txn"])
        # The next reads wait the abandoned READs out (still in flight).
        assert_channels_free_and_every_group_readable(sim, cluster, coordinator)


class TestConcurrentScanners:
    def test_scanners_starting_on_different_groups_do_not_deadlock(self):
        """4 clients × 200 scans, closed loop. Each client's scans start
        at a key of a different group, so taking channels in
        first-returned-key order would have client A hold g0 and queue
        on g1 while client B holds g1 and queues on g0."""
        sim, cluster, coordinator = make()
        starts = {}
        for key in KEYS[:24]:
            starts.setdefault(coordinator.locate(key), key)
        assert sorted(starts) == list(range(N_GROUPS))
        finished = {}

        def client(index):
            def body(task):
                for _ in range(200):
                    txn = yield from coordinator.begin(task)
                    rows = yield from coordinator.scan(task, txn, starts[index], 12)
                    assert len(rows) == 12 and rows[0][0] == starts[index]
                    yield from coordinator.commit(task, txn)
                finished[index] = sim.now

            return body

        tasks = [
            cluster[0].os.spawn(client(index), f"scanner{index}")
            for index in range(N_GROUPS)
        ]
        run_until(sim, lambda: all(t.process.triggered for t in tasks), deadline_ms=1_000)
        assert all(task.process.ok for task in tasks)
        assert len(finished) == N_GROUPS
        assert coordinator.commits == 1 + N_GROUPS * 200
        assert_channels_free_and_every_group_readable(sim, cluster, coordinator)

    def test_crashed_replica_zero_sends_the_whole_batch_to_replica_one(self):
        sim, cluster, coordinator = make()
        cluster[1].crash()  # replica 0 of every group (shared hosts)
        before = posted_reads(coordinator)

        def body(task):
            txn = yield from coordinator.begin(task)
            rows = yield from coordinator.scan(task, txn, b"y0010", 12)
            replicas = {
                obs["replica"]
                for obs in coordinator.observations
                if obs["txid"] == txn.txid
            }
            return rows, replicas

        with tracing(record_kernel=False) as tracer:
            rows, replicas = drive(sim, cluster, body)
        assert [key for key, _ in rows] == KEYS[10:22]
        assert replicas == {1}
        # One failover per group per scan, as with per-key reads.
        assert coordinator.tracker.failovers == N_GROUPS
        assert tracer.counters["txn.read_failover"] == N_GROUPS
        after = posted_reads(coordinator)
        moved = [now - was for was, now in zip(before, after)]
        assert moved == [0, 1, 0] * N_GROUPS  # replica 1 only, one READ each
