"""Integration tests: transactions under replica failure.

The two hard cases from the ISSUE:

* a commit spanning two groups parks mid-2PC when a participant
  replica crashes — failover must abort the epoch, repair the chain,
  drain the WAL, and let the client replay, with no double-commit from
  the abandoned attempt and no serialization anomaly;
* Available-Copies re-validation — a crashed-then-restarted replica
  must stay out of read rotation until an acked chain write has
  traversed it again (ChainRepair's image install qualifies).
"""

import pytest

from repro.bench import run_until
from repro.core import HyperLoopGroup
from repro.faults.invariants import (
    check_no_serialization_anomaly,
    check_read_your_writes,
    check_txn_acked_writes,
)
from repro.hw import Cluster
from repro.sim import MS, Simulator
from repro.storage.log import ReplicatedLog
from repro.storage.recovery import ChainRepair, HeartbeatMonitor
from repro.storage.transactions import TransactionManager
from repro.txn import (
    AvailabilityTracker,
    TxnAborted,
    TxnCoordinator,
    VersionedGroupStore,
)


def drive(sim, cluster, body, until_ms=20_000):
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


def build_two_group_system(sim, cluster, name):
    client = cluster[0]
    generation = [0]

    def factory(members):
        generation[0] += 1
        return HyperLoopGroup(
            client, members, region_size=1 << 14, rounds=16,
            name=f"{name}.a{generation[0]}",
        )

    group_a = HyperLoopGroup(
        client, cluster.hosts[1:4], region_size=1 << 14, rounds=16,
        name=f"{name}.a0",
    )
    group_b = HyperLoopGroup(
        client, cluster.hosts[4:7], region_size=1 << 14, rounds=16,
        name=f"{name}.b",
    )
    stores = [
        VersionedGroupStore(TransactionManager(group_a, writer_id=1), name="s0"),
        VersionedGroupStore(TransactionManager(group_b, writer_id=2), name="s1"),
    ]
    tracker = AvailabilityTracker()
    coordinator = TxnCoordinator(stores, mode="ssi", tracker=tracker, name=name)
    return coordinator, tracker, factory, group_a


class TestMid2pcCrash:
    # Both crashes are triggered from the doomed commit's first group-A
    # op (its WAL record), so they land mid-install however fast the
    # protocol is (a fixed offset into the commit would not):
    # * "mid-chain-on-record-ack" kills replica 1 the moment the record
    #   is acked — the gMEMCPY and head-advance rounds are still to
    #   come;
    # * "head-on-record-post" kills the chain head the moment the
    #   record is posted — record and header die in flight, no replica
    #   holds them, and the client's tail must not cover them either
    #   (the repair copies a survivor's image under the client's
    #   head/tail).
    @pytest.mark.parametrize(
        "victim, crash_on_ack",
        [(2, True), (1, False)],
        ids=["mid-chain-on-record-ack", "head-on-record-post"],
    )
    def test_replica_crash_mid_commit_replays_without_double_commit(
        self, victim, crash_on_ack
    ):
        sim = Simulator(seed=31)
        cluster = Cluster(sim, n_hosts=8, n_cores=4)
        client = cluster[0]
        spare = cluster[7]
        coordinator, tracker, factory, group_a = build_two_group_system(
            sim, cluster, "mid2pc"
        )
        monitor = HeartbeatMonitor(
            client, cluster.hosts[1:4], interval=2 * MS, miss_threshold=3,
            name="mid2pc.hb",
        )
        pause_hook = tracker.on_repair_phase(0)
        repairer = ChainRepair(client, group_a, factory, on_phase=pause_hook)

        # Enough keys that the commit installs on both groups and the
        # in-flight window is wide.
        keys = [f"w{index:02d}".encode() for index in range(12)]
        spans_both = {coordinator.locate(key) for key in keys}
        assert spans_both == {0, 1}, "keys must span both groups"

        def seed(task):
            txn = yield from coordinator.begin(task)
            for key in keys:
                coordinator.write(txn, key, b"\x01" * 8)
            yield from coordinator.commit(task, txn)
            return True

        assert drive(sim, cluster, seed)

        progress = {
            "committing": False,
            "crash_armed": False,
            "outcome": None,
            "rebound": False,
        }

        def doomed(task):
            txn = yield from coordinator.begin(task)
            for key in keys:
                coordinator.write(txn, key, b"\x02" * 8)
            progress["committing"] = True
            try:
                yield from coordinator.commit(task, txn)
                progress["outcome"] = "committed"
            except TxnAborted as exc:
                progress["outcome"] = f"aborted:{exc.reason}"

        def recoverer(task):
            index = yield from monitor.wait_for_suspicion(task)
            monitor.stop_beats(index)
            yield from repairer.repair(
                task, index, spare, copy_from=0 if index != 0 else 1
            )
            yield from coordinator.reset_after_failover(task, 0, repairer.group)
            progress["rebound"] = True

        # Either way the commit parks on the dead chain's ack forever.
        submit = group_a.submit

        def watched_submit(task, op):
            ack = yield from submit(task, op)
            if progress["committing"] and not progress["crash_armed"]:
                progress["crash_armed"] = True
                if crash_on_ack:
                    ack.add_callback(lambda _ack: cluster[victim].crash())
                else:
                    cluster[victim].crash()
            return ack

        group_a.submit = watched_submit

        client.os.spawn(doomed, "mid2pc.doomed")
        client.os.spawn(recoverer, "mid2pc.recover")
        run_until(sim, lambda: progress["rebound"], deadline_ms=20_000)

        assert cluster[victim].down
        # The doomed attempt was aborted by the epoch reset, not
        # committed — and its parked generator must never finish it.
        assert coordinator.aborts_failover >= 1
        assert progress["outcome"] in (None, "aborted:failover")

        def replay_plain(task):
            txn = yield from coordinator.begin(task)
            for key in keys:
                coordinator.write(txn, key, b"\x03" * 8)
            yield from coordinator.commit(task, txn)
            check = yield from coordinator.begin(task)
            value = yield from coordinator.read(task, check, keys[0])
            yield from coordinator.commit(task, check)
            return value

        assert drive(sim, cluster, replay_plain) == b"\x03" * 8
        sim.run(until=sim.now + 5 * MS)

        # Exactly seed + replay + check committed; the zombie never did.
        assert coordinator.commits == 3
        for key in keys:
            store = coordinator.stores[coordinator.locate(key)]
            chain = store.versions[key]
            assert len(chain) == 2  # seed version + replayed version
            assert chain[-1].value == b"\x03" * 8
            # The acked replay is durable on every member of the
            # repaired chain, not only in the client's version index.
            for replica in range(store.group.group_size):
                assert store.read_durable_offline(replica, key)[3] == b"\x03" * 8
        for store in coordinator.stores:
            log = store.manager.log
            assert log.head == log.tail
            for replica in range(store.group.group_size):
                assert ReplicatedLog.recover_replica(store.group, log.layout, replica) == []
        assert check_no_serialization_anomaly(coordinator).ok
        assert check_read_your_writes(coordinator).ok
        assert check_txn_acked_writes(coordinator).ok


class TestAvailableCopiesRevalidation:
    def test_restarted_replica_excluded_until_rewritten(self):
        sim = Simulator(seed=47)
        cluster = Cluster(sim, n_hosts=4, n_cores=4)
        client = cluster[0]
        generation = [0]

        def factory(members):
            generation[0] += 1
            return HyperLoopGroup(
                client, members, region_size=1 << 14, rounds=16,
                name=f"ac.g{generation[0]}",
            )

        group = HyperLoopGroup(
            client, cluster.hosts[1:4], region_size=1 << 14, rounds=16, name="ac.g0"
        )
        store = VersionedGroupStore(TransactionManager(group, writer_id=1), name="ac")
        tracker = AvailabilityTracker()
        coordinator = TxnCoordinator([store], tracker=tracker, name="ac")
        phases = []
        pause_hook = tracker.on_repair_phase(0)

        def on_phase(phase):
            phases.append((phase, list(tracker.readable(0))))
            pause_hook(phase)

        repairer = ChainRepair(client, group, factory, on_phase=on_phase)

        # A brand-new group serves nothing until its first acked write.
        assert tracker.readable(0) == []

        def seed(task):
            txn = yield from coordinator.begin(task)
            coordinator.write(txn, b"key", b"\x07" * 8)
            yield from coordinator.commit(task, txn)
            return True

        assert drive(sim, cluster, seed)
        assert tracker.readable(0) == [0, 1, 2]

        # Head crash: reads must fail over past replica 0.
        cluster[1].crash()
        assert tracker.readable(0) == [1, 2]

        def read_once(task):
            txn = yield from coordinator.begin(task)
            value = yield from coordinator.read(task, txn, b"key")
            yield from coordinator.commit(task, txn)
            return value

        assert drive(sim, cluster, read_once) == b"\x07" * 8
        assert tracker.failovers == 1

        # Restart alone must NOT restore eligibility: the replica has
        # not been written since recovery, so its copy is untrusted.
        cluster[1].restart()
        assert tracker.readable(0) == [1, 2]
        assert 0 not in group.readable_replicas()

        # Repair splices the restarted host back in as the replacement;
        # the image install is acked chain writes, which re-validates
        # every member of the new chain.
        def recover(task):
            yield from repairer.repair(task, 0, cluster[1], copy_from=1)
            yield from coordinator.reset_after_failover(task, 0, repairer.group)
            return True

        assert drive(sim, cluster, recover)
        # Reads were paused (empty candidate list) while the repair ran.
        assert [phase for phase, _ in phases] == ["repair", "repair-done"]
        assert phases[1][1] == []  # still paused when repair-done fires
        assert tracker.readable(0) == [0, 1, 2]

        # The restarted replica's durable copy is the published version.
        durable = store.read_durable_offline(0, b"key")
        assert durable is not None and durable[3] == b"\x07" * 8
        assert drive(sim, cluster, read_once) == b"\x07" * 8
        assert check_read_your_writes(coordinator).ok
        assert check_txn_acked_writes(coordinator).ok


class TestResetMidScan:
    def test_zombie_scan_records_nothing_and_returns_its_channels(self):
        """An epoch reset lands while a scan's read batches are in
        flight: the scan wakes as a zombie, fails ``_check_active`` and
        must leave no read, range, edge or observation behind — and no
        read channel held."""
        sim = Simulator(seed=53)
        cluster = Cluster(sim, n_hosts=8, n_cores=4)
        coordinator, tracker, factory, group_a = build_two_group_system(
            sim, cluster, "midscan"
        )
        keys = [f"w{index:02d}".encode() for index in range(12)]
        assert {coordinator.locate(key) for key in keys} == {0, 1}

        def seed(task):
            txn = yield from coordinator.begin(task)
            for key in keys:
                coordinator.write(txn, key, b"\x01" * 8)
            yield from coordinator.commit(task, txn)
            return True

        assert drive(sim, cluster, seed)
        readers = [store.group._reader for store in coordinator.stores]
        posted_before = [
            channel.qp.send_posted for reader in readers for channel in reader._channels
        ]
        seen = {}

        def scanner(task):
            # A concurrent writer inside the range: the scan would
            # record an rw edge to it if it recorded anything.
            writer = seen["writer"] = yield from coordinator.begin(task)
            coordinator.write(writer, keys[3], b"\x02" * 8)
            txn = seen["txn"] = yield from coordinator.begin(task)
            try:
                yield from coordinator.scan(task, txn, keys[0], 12)
                seen["outcome"] = "scanned"
            except TxnAborted as exc:
                seen["outcome"] = f"aborted:{exc.reason}"

        def resetter(task):
            def in_flight():
                now = [c.qp.send_posted for r in readers for c in r._channels]
                return sum(now) - sum(posted_before)

            while in_flight() < 2:  # one batch per group
                yield from task.sleep(200)
            seen["completed_at_reset"] = [
                channel.qp.send_cq.completions_total
                for reader in readers
                for channel in reader._channels
            ]
            yield from coordinator.reset_after_failover(task, 0, group_a)
            return True

        cluster[0].os.spawn(scanner, "midscan.scanner")
        assert drive(sim, cluster, resetter)
        run_until(sim, lambda: "outcome" in seen, deadline_ms=100)

        # The reset really landed with both batches still in flight.
        assert seen["completed_at_reset"] == posted_before
        assert seen["outcome"] == "aborted:failover"
        txn = seen["txn"]
        assert txn.reads == {} and txn.scans == []
        assert [o for o in coordinator.observations if o["txid"] == txn.txid] == []
        assert coordinator.graph.pivot(seen["writer"].txid) is None
        assert not coordinator.graph._in and not coordinator.graph._out
        assert coordinator.aborts_failover == 2  # scanner and writer

        def read_both(task):
            check = yield from coordinator.begin(task)
            values = []
            for group in (0, 1):
                key = next(k for k in keys if coordinator.locate(k) == group)
                values.append((yield from coordinator.read(task, check, key)))
            yield from coordinator.commit(task, check)
            return values

        assert drive(sim, cluster, read_both) == [b"\x01" * 8] * 2
        for reader in readers:
            for channel in reader._channels:
                assert channel.lock.in_use == 0 and channel.lock.queue_length == 0
        assert check_read_your_writes(coordinator).ok
        assert check_no_serialization_anomaly(coordinator).ok
