"""Integration tests for the HyperLoop primitive library (repro.core).

These drive the full stack — client task → verbs → NIC WQE chains →
fabric → replica NICs — and verify the paper's §4 semantics: data
movement, atomicity hooks, durability, execute maps, pipelining, and
the headline property that replica CPUs stay off the critical path.
"""

import pytest

from repro.bench import run_until
from repro.core import HyperLoopGroup, SKIP_SENTINEL
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import MS, Simulator, US
from repro.sim.events import Timeout
from repro.txn import run_ycsb_mix


def make_group(n_replicas=3, seed=11, **kwargs):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=n_replicas + 1, n_cores=4)
    defaults = dict(region_size=1 << 16, rounds=32, name="g")
    defaults.update(kwargs)
    group = HyperLoopGroup(cluster[0], cluster.hosts[1:], **defaults)
    return sim, cluster, group


def drive(sim, cluster, body, until=200 * MS):
    done = {}

    def wrapper(task):
        result = yield from body(task)
        done["result"] = result

    task = cluster[0].os.spawn(wrapper, "client")
    sim.run(until=until)
    if task.process.triggered and not task.process.ok:
        raise task.process.value
    assert "result" in done, "client task did not finish"
    return done["result"]


class TestGwrite:
    def test_replicates_to_all_replicas(self):
        sim, cluster, group = make_group()

        def body(task):
            group.write_local(256, b"replicate-me!")
            yield from group.gwrite(task, 256, 13)
            return True

        drive(sim, cluster, body)
        for replica in range(3):
            assert group.read_replica(replica, 256, 13) == b"replicate-me!"
        assert not group.errors

    def test_different_offsets_and_sizes(self):
        sim, cluster, group = make_group()
        blocks = [(0, b"a" * 64), (4096, b"b" * 1024), (60000, b"c" * 100)]

        def body(task):
            for offset, data in blocks:
                group.write_local(offset, data)
                yield from group.gwrite(task, offset, len(data))
            return True

        drive(sim, cluster, body)
        for replica in range(3):
            for offset, data in blocks:
                assert group.read_replica(replica, offset, len(data)) == data

    def test_out_of_range_rejected(self):
        sim, cluster, group = make_group()

        def body(task):
            with pytest.raises(ValueError):
                yield from group.gwrite(task, 1 << 16, 1)
            yield from task.sleep(0)
            return True

        drive(sim, cluster, body)

    def test_pipelined_ops_all_complete_in_order(self):
        """Many operations in flight at once: rounds, staging slots
        and WAIT thresholds must not interfere."""
        sim, cluster, group = make_group(rounds=16)
        n_ops = 40  # > rounds: exercises wrap-around and flow control

        def body(task):
            for i in range(n_ops):
                group.write_local(i * 128, bytes([i % 256]) * 128)
                yield from group.gwrite(task, i * 128, 128)
            return True

        drive(sim, cluster, body)
        for replica in range(3):
            for i in range(n_ops):
                expected = bytes([i % 256]) * 128
                assert group.read_replica(replica, i * 128, 128) == expected
        assert not group.errors

    def test_latency_is_low_microseconds_on_idle_cluster(self):
        sim, cluster, group = make_group()
        latency = {}

        def body(task):
            group.write_local(0, b"x" * 512)
            start = sim.now
            yield from group.gwrite(task, 0, 512)
            latency["ns"] = sim.now - start
            return True

        drive(sim, cluster, body)
        assert latency["ns"] < 30 * US

    def test_replica_cpu_stays_off_critical_path(self):
        """The headline property: replica CPUs contribute nothing per
        operation beyond amortized round refills."""
        sim, cluster, group = make_group(maintenance_interval=50 * MS)

        def body(task):
            group.write_local(0, b"y" * 256)
            for _ in range(10):
                yield from group.gwrite(task, 0, 256)
            return True

        drive(sim, cluster, body, until=40 * MS)  # before first refill
        assert group.replica_cpu_ns() == 0

    def test_single_replica_group(self):
        sim, cluster, group = make_group(n_replicas=1)

        def body(task):
            group.write_local(10, b"solo")
            yield from group.gwrite(task, 10, 4)
            return True

        drive(sim, cluster, body)
        assert group.read_replica(0, 10, 4) == b"solo"

    def test_group_of_seven(self):
        sim, cluster, group = make_group(n_replicas=7)

        def body(task):
            group.write_local(0, b"long-chain")
            yield from group.gwrite(task, 0, 10)
            return True

        drive(sim, cluster, body)
        for replica in range(7):
            assert group.read_replica(replica, 0, 10) == b"long-chain"


class TestDurability:
    def test_durable_gwrite_survives_power_failure(self):
        sim, cluster, group = make_group(durable=True)

        def body(task):
            group.write_local(0, b"must-survive")
            yield from group.gwrite(task, 0, 12)
            return True

        drive(sim, cluster, body)
        for host in cluster.hosts[1:]:
            host.power_failure()
        for replica in range(3):
            assert group.read_replica(replica, 0, 12) == b"must-survive"

    def test_non_durable_gwrite_may_lose_unflushed_tail(self):
        """Without interleaved gFLUSH the ACK does not imply
        durability: a power failure immediately after the ACK can
        revert data still in a NIC's volatile window."""
        sim, cluster, group = make_group(durable=False, seed=5)
        acked_at = {}

        def body(task):
            group.write_local(0, b"maybe-lost!!")
            yield from group.gwrite(task, 0, 12)
            acked_at["now"] = sim.now
            return True

        # Stop the world right at the ACK (before lazy drains run).
        done = {}

        def wrapper(task):
            result = yield from body(task)
            done["r"] = result

        cluster[0].os.spawn(wrapper, "client")
        while "r" not in done and sim.now < 100 * MS:
            sim.run(until=sim.now + 10 * US)
        assert "r" in done
        lost = 0
        for index, host in enumerate(cluster.hosts[1:]):
            if host.nic.cache.dirty:
                host.power_failure()
                if group.read_replica(index, 0, 12) != b"maybe-lost!!":
                    lost += 1
        assert lost > 0, "expected at least one replica to lose the write"

    def test_explicit_gflush_closes_the_window(self):
        sim, cluster, group = make_group(durable=False, seed=5)
        # The gwrite chain must be durable for gflush; build a second
        # group whose gwrite chain is durable and check the API guard.
        def body(task):
            with pytest.raises(RuntimeError):
                yield from group.gflush(task)
            yield from task.sleep(0)
            return True

        drive(sim, cluster, body)

    def test_gflush_on_durable_group(self):
        sim, cluster, group = make_group(durable=True)

        def body(task):
            group.write_local(0, b"flush-me")
            yield from group.gwrite(task, 0, 8)
            yield from group.gflush(task)
            return True

        drive(sim, cluster, body)
        for host in cluster.hosts[1:]:
            assert not host.nic.cache.dirty


class TestGmemcpy:
    def test_copies_within_every_replica(self):
        sim, cluster, group = make_group()

        def body(task):
            group.write_local(0, b"0123456789abcdef")
            yield from group.gwrite(task, 0, 16)
            yield from group.gmemcpy(task, 0, 8192, 16)
            return True

        drive(sim, cluster, body)
        for replica in range(3):
            assert group.read_replica(replica, 8192, 16) == b"0123456789abcdef"

    def test_no_replica_cpu_used(self):
        sim, cluster, group = make_group(maintenance_interval=100 * MS)

        def body(task):
            group.write_local(0, b"z" * 4096)
            yield from group.gwrite(task, 0, 4096)
            yield from group.gmemcpy(task, 0, 8192, 4096)
            return True

        drive(sim, cluster, body, until=50 * MS)
        assert group.replica_cpu_ns() == 0

    def test_durable_copy_survives_power_failure(self):
        sim, cluster, group = make_group(durable=True)

        def body(task):
            group.write_local(0, b"persist-copy")
            yield from group.gwrite(task, 0, 12)
            yield from group.gmemcpy(task, 0, 4096, 12)
            return True

        drive(sim, cluster, body)
        for index, host in enumerate(cluster.hosts[1:]):
            host.power_failure()
            assert group.read_replica(index, 4096, 12) == b"persist-copy"


class TestGcas:
    def test_swap_on_all_replicas(self):
        sim, cluster, group = make_group()

        def body(task):
            result = yield from group.gcas(task, 128, 0, 777)
            return result

        result = drive(sim, cluster, body)
        assert result == [0, 0, 0]
        for replica in range(3):
            value = int.from_bytes(group.read_replica(replica, 128, 8), "little")
            assert value == 777

    def test_failed_compare_reports_original(self):
        sim, cluster, group = make_group()

        def body(task):
            yield from group.gcas(task, 128, 0, 111)  # set to 111
            result = yield from group.gcas(task, 128, 999, 222)  # wrong compare
            return result

        result = drive(sim, cluster, body)
        assert result == [111, 111, 111]
        for replica in range(3):
            value = int.from_bytes(group.read_replica(replica, 128, 8), "little")
            assert value == 111  # unchanged

    def test_execute_map_skips_replicas(self):
        sim, cluster, group = make_group()

        def body(task):
            result = yield from group.gcas(
                task, 0, 0, 5, execute_map=[True, False, True]
            )
            return result

        result = drive(sim, cluster, body)
        assert result == [0, None, 0]
        values = [
            int.from_bytes(group.read_replica(replica, 0, 8), "little")
            for replica in range(3)
        ]
        assert values == [5, 0, 5]

    def test_undo_protocol(self):
        """§4.2's undo flow: a partially-failed gCAS is rolled back by
        a second gCAS whose execute map selects only the replicas
        where the first one succeeded."""
        sim, cluster, group = make_group()

        def body(task):
            # Make replica 1 disagree (simulating a racing writer).
            yield from group.gcas(task, 0, 0, 99, execute_map=[False, True, False])
            # Attempt to lock: succeeds on 0 and 2, fails on 1.
            result = yield from group.gcas(task, 0, 0, 7)
            succeeded = [value == 0 for value in result]
            assert succeeded == [True, False, True]
            # Undo where it succeeded.
            undo = yield from group.gcas(task, 0, 7, 0, execute_map=succeeded)
            return undo

        undo = drive(sim, cluster, body)
        assert undo == [7, None, 7]
        values = [
            int.from_bytes(group.read_replica(replica, 0, 8), "little")
            for replica in range(3)
        ]
        assert values == [0, 99, 0]

    def test_bad_execute_map_length(self):
        sim, cluster, group = make_group()

        def body(task):
            with pytest.raises(ValueError):
                yield from group.gcas(task, 0, 0, 1, execute_map=[True])
            yield from task.sleep(0)
            return True

        drive(sim, cluster, body)


class TestMixedWorkload:
    def test_transaction_pattern(self):
        """The full §5 transaction recipe: lock → replicate log →
        execute → unlock, all NIC-offloaded."""
        sim, cluster, group = make_group()
        LOCK = 0
        LOG = 4096
        DB = 32768

        def body(task):
            # 1. acquire the group lock
            result = yield from group.gcas(task, LOCK, 0, 1)
            assert all(value == 0 for value in result)
            # 2. replicate the log record
            group.write_local(LOG, b"txn: set k=v")
            yield from group.gwrite(task, LOG, 12)
            # 3. execute it (copy log -> database region)
            yield from group.gmemcpy(task, LOG, DB, 12)
            # 4. release the lock
            result = yield from group.gcas(task, LOCK, 1, 0)
            assert all(value == 1 for value in result)
            return True

        drive(sim, cluster, body)
        for replica in range(3):
            assert group.read_replica(replica, DB, 12) == b"txn: set k=v"
            lock = int.from_bytes(group.read_replica(replica, LOCK, 8), "little")
            assert lock == 0
        assert not group.errors

    def test_sustained_load_with_maintenance(self):
        """Run well past the pre-posted round budget so replica
        maintenance must refill rings to keep the chain alive."""
        sim, cluster, group = make_group(rounds=8, maintenance_interval=100 * US)
        n_ops = 50

        def body(task):
            group.write_local(0, b"m" * 64)
            for _ in range(n_ops):
                yield from group.gwrite(task, 0, 64)
            return True

        drive(sim, cluster, body, until=500 * MS)
        assert group.chain("gwrite").next_round == n_ops
        assert not group.errors
        # Maintenance did run (replica CPU > 0) but stays under 2% of
        # a core per replica (doorbell laps + timer bookkeeping only).
        assert 0 < group.replica_cpu_ns() < 0.02 * sim.now * 3


def run_client(sim, cluster, body):
    """Run ``body`` as the client task until it returns (the replica
    tasks' ticks never drain the event queue)."""
    task = cluster[0].os.spawn(body, "client")
    run_until(sim, lambda: task.process.triggered, deadline_ms=2000)
    if not task.process.ok:
        raise task.process.value


def back_to_back(sim, cluster, group, n_ops, primitive="gwrite"):
    """Latencies of ``n_ops`` blocking ops issued back to back."""
    latencies = []

    def body(task):
        group.write_local(0, b"b" * 256)
        for _ in range(n_ops):
            start = sim.now
            if primitive == "gwrite":
                yield from group.gwrite(task, 0, 256)
            else:
                yield from group.gcas(task, 512, 0, 0)
            latencies.append(sim.now - start)

    run_client(sim, cluster, body)
    return latencies


def wakes(event, refill):
    return refill.nudge in (event._callbacks or ())


def threshold_waiters(group):
    """Per chain and replica, the refill task's threshold waiters on
    the chain's round counter (the NIC's WAITs wait there too)."""
    return [
        sum(wakes(event, refill) for _, event in state.qp_prev.recv_cq._threshold_waiters)
        for chain in group.chains.values()
        for state, refill in zip(chain.replicas, group._refills)
    ]


def pending_ticks(sim, refill):
    """Queued timers that would wake ``refill``'s task."""
    return sum(
        1
        for entry in sim._queue
        if isinstance(entry[2], Timeout)
        and not entry[2].triggered
        and wakes(entry[2], refill)
    )


class TestRingRefill:
    """Refills trail consumption: a replica re-arms half a lap as soon
    as its recv CQ shows half a lap consumed, not on the next
    ``maintenance_interval`` tick (which only drains CQs)."""

    @pytest.mark.parametrize("rounds", [8, 16])
    def test_back_to_back_ops_never_find_a_ring_dry(self, rounds):
        # With refills on the 200 us tick alone, one op per half lap
        # waited for it: max 66 us at 16 rounds, 138 us at 8, against
        # 9 us unloaded.
        sim, cluster, group = make_group(rounds=rounds)
        latencies = back_to_back(sim, cluster, group, 600)
        unloaded = min(latencies)
        # The first op builds the chain and pays the cold caches.
        assert max(latencies[1:]) <= 2 * unloaded
        assert not group.errors

    def test_a_chain_built_after_the_tasks_parked_is_refilled(self):
        sim, cluster, group = make_group(rounds=8)
        back_to_back(sim, cluster, group, 40)
        assert "gcas" not in group.chains
        latencies = back_to_back(sim, cluster, group, 200, primitive="gcas")
        assert max(latencies[1:]) <= 2 * min(latencies)

    def test_wake_state_stays_bounded(self):
        """One pending tick per task and one threshold waiter per chain
        CQ, however many half laps go by: ``HwCq.push`` scans its
        waiters on every completion."""
        sim, cluster, group = make_group(rounds=8)
        samples = []

        def body(task):
            group.write_local(0, b"w" * 64)
            for index in range(5000):
                if index % 4 == 0:
                    yield from group.gcas(task, 512, 0, 0)
                else:
                    yield from group.gwrite(task, 0, 64)
                if index % 97 == 0:
                    samples.append(
                        (threshold_waiters(group), [pending_ticks(sim, r) for r in group._refills])
                    )

        run_client(sim, cluster, body)
        assert len(samples) > 50
        for waiters, ticks in samples + [(threshold_waiters(group), [])]:
            assert max(waiters) <= 1
            assert all(count <= 1 for count in ticks)
        assert not group.errors

    def test_a_nic_crash_does_not_strand_the_task(self):
        """A NIC crash drops its CQs' threshold waiters; the replica's
        task still wakes on its tick, re-arms its waiter and exits at
        ``stop()``."""
        sim, cluster, group = make_group(rounds=8, maintenance_interval=100 * US)
        back_to_back(sim, cluster, group, 20)
        nic = cluster.hosts[2].nic
        nic.crash()
        nic.restart()
        assert threshold_waiters(group) == [1, 0, 1]
        ran = group._tasks[1].cpu_ns
        sim.run(until=sim.now + 200 * US)
        assert threshold_waiters(group) == [1, 1, 1]
        assert group._tasks[1].cpu_ns > ran
        group.stop()
        sim.run(until=sim.now + 200 * US)
        assert all(task.process.triggered for task in group._tasks)

    def test_a_restarted_nic_keeps_serving_the_chain(self):
        """A crash drops the threshold waiter a send engine is parked on
        at its next WAIT. With no op in flight nothing is lost, and
        connection state survives ``restart()``: the engine re-reads
        its WAIT and the chain carries on (it used to hang there, every
        op through that QP parked with no error)."""
        sim, cluster, group = make_group(rounds=8)
        back_to_back(sim, cluster, group, 20)
        nic = cluster.hosts[2].nic
        nic.crash()
        nic.restart()
        latencies = back_to_back(sim, cluster, group, 200)
        assert len(latencies) == 200
        assert group.chain("gwrite").next_round == 220
        assert not group.errors

    def test_a_txn_run_never_finds_a_ring_dry(self):
        """The traced count of messages that found a replica's RECV
        ring empty, on a short YCSB-A run over ``rounds=16`` groups."""
        with tracing(record_kernel=False) as tracer:
            report = run_ycsb_mix(mix="A", seed=10, n_txns=160, n_workers=4)
        assert report.committed == 160
        assert tracer.counters.get("nic.rx_ring_dry", 0) == 0
        assert tracer.counters.get("nic.rx_ring_dry_ns", 0) == 0
