"""Integration tests for the Naïve-RDMA baseline (repro.baseline).

The baseline must be *functionally identical* to HyperLoop — same
operations, same results — differing only in who does the work
(replica CPUs vs NICs). Several tests check exactly that equivalence.
"""

import pytest

from repro.baseline import NaiveGroup
from repro.core import GWRITE, HyperLoopGroup, OpSpec
from repro.hw import Cluster
from repro.sim import MS, Simulator, US
from repro.storage.recovery import ChainRepair


def make_group(n_replicas=3, seed=13, **kwargs):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=n_replicas + 1, n_cores=4)
    defaults = dict(region_size=1 << 16, rounds=32, name="n")
    defaults.update(kwargs)
    group = NaiveGroup(cluster[0], cluster.hosts[1:], **defaults)
    return sim, cluster, group


def drive(sim, cluster, body, until=500 * MS):
    done = {}

    def wrapper(task):
        done["result"] = yield from body(task)

    task = cluster[0].os.spawn(wrapper, "client")
    sim.run(until=until)
    if task.process.triggered and not task.process.ok:
        raise task.process.value
    assert "result" in done, "client task did not finish"
    return done["result"]


class TestNaiveGwrite:
    def test_replicates_to_all(self):
        sim, cluster, group = make_group()

        def body(task):
            group.write_local(0, b"naive-data")
            yield from group.gwrite(task, 0, 10)
            return True

        drive(sim, cluster, body)
        for replica in range(3):
            assert group.read_replica(replica, 0, 10) == b"naive-data"
        assert not group.errors

    def test_uses_replica_cpu(self):
        """The defining difference from HyperLoop: every op burns
        replica CPU."""
        sim, cluster, group = make_group()

        def body(task):
            group.write_local(0, b"c" * 128)
            for _ in range(5):
                yield from group.gwrite(task, 0, 128)
            return True

        drive(sim, cluster, body)
        assert group.replica_cpu_ns() > 0

    def test_polling_mode_works_and_burns_cpu(self):
        sim, cluster, group = make_group(replica_mode="polling")

        def body(task):
            group.write_local(0, b"p" * 64)
            yield from group.gwrite(task, 0, 64)
            return True

        drive(sim, cluster, body, until=50 * MS)
        for replica in range(3):
            assert group.read_replica(replica, 0, 64) == b"p" * 64
        # Pollers burn CPU continuously, not just per op.
        assert group.replica_cpu_ns() > 10 * MS

    def test_durable_write_survives_power_failure(self):
        sim, cluster, group = make_group(durable=True)

        def body(task):
            group.write_local(0, b"durable-naive")
            yield from group.gwrite(task, 0, 13)
            return True

        drive(sim, cluster, body)
        for index, host in enumerate(cluster.hosts[1:]):
            host.power_failure()
            assert group.read_replica(index, 0, 13) == b"durable-naive"

    def test_pipelined_ops(self):
        sim, cluster, group = make_group(rounds=16)

        def body(task):
            for i in range(30):
                group.write_local(i * 64, bytes([i]) * 64)
                yield from group.gwrite(task, i * 64, 64)
            return True

        drive(sim, cluster, body)
        for replica in range(3):
            for i in range(30):
                assert group.read_replica(replica, i * 64, 64) == bytes([i]) * 64


class TestNaiveGmemcpyGcas:
    def test_gmemcpy(self):
        sim, cluster, group = make_group()

        def body(task):
            group.write_local(0, b"copy-source!")
            yield from group.gwrite(task, 0, 12)
            yield from group.gmemcpy(task, 0, 4096, 12)
            return True

        drive(sim, cluster, body)
        for replica in range(3):
            assert group.read_replica(replica, 4096, 12) == b"copy-source!"

    def test_gcas_with_execute_map(self):
        sim, cluster, group = make_group()

        def body(task):
            result = yield from group.gcas(
                task, 0, 0, 9, execute_map=[False, True, True]
            )
            return result

        result = drive(sim, cluster, body)
        assert result == [None, 0, 0]
        values = [
            int.from_bytes(group.read_replica(replica, 0, 8), "little")
            for replica in range(3)
        ]
        assert values == [0, 9, 9]

    def test_gcas_failed_compare(self):
        sim, cluster, group = make_group()

        def body(task):
            yield from group.gcas(task, 8, 0, 50)
            result = yield from group.gcas(task, 8, 123, 60)
            return result

        result = drive(sim, cluster, body)
        assert result == [50, 50, 50]


class TestNaiveFailover:
    def test_stop_retires_every_task_at_its_next_wakeup(self):
        """After ``stop`` the replica daemons return at their next
        wakeup and acks are no longer reaped: an op in flight at the
        stop still lands on every replica, but its ack never fires."""
        sim, cluster, group = make_group()

        def body(task):
            group.write_local(0, b"last-op")
            ack = yield from group.submit(task, OpSpec(GWRITE, offset=0, size=7))
            group.stop()
            yield from task.sleep(1 * MS)
            return ack

        assert not drive(sim, cluster, body).triggered
        assert all(task.process.triggered for task in group._tasks)
        for replica in range(3):
            assert group.read_replica(replica, 0, 7) == b"last-op"

    def test_chain_repair_onto_a_spare(self):
        """ChainRepair retires the old group with ``stop()`` and
        rebuilds the chain over the survivors plus a spare."""
        sim = Simulator(seed=13)
        cluster = Cluster(sim, n_hosts=5, n_cores=4)
        client, spare = cluster[0], cluster[4]

        def factory(members):
            return NaiveGroup(client, members, region_size=1 << 14, rounds=32, name="n2")

        group = factory(cluster.hosts[1:4])
        repairer = ChainRepair(client, group, factory)

        def writes(target, task, first):
            for i in range(first, first + 20):
                target.write_local(i * 64, bytes([i + 1]) * 64)
                yield from target.gwrite(task, i * 64, 64)

        def body(task):
            yield from writes(group, task, 0)
            cluster[2].crash()
            new_group = yield from repairer.repair(task, 1, spare, copy_from=0)
            yield from writes(new_group, task, 20)
            return new_group

        new_group = drive(sim, cluster, body)
        assert group._stopping and repairer.repairs == 1
        assert [host.name for host in new_group.replicas] == ["host1", "host3", "host4"]
        images = [new_group.read_replica(r, 0, 1 << 14) for r in range(3)]
        assert images[0] == images[1] == images[2]
        assert images[0][: 40 * 64] == b"".join(bytes([i + 1]) * 64 for i in range(40))
        assert not group.errors and not new_group.errors


class TestEquivalence:
    """HyperLoop and Naïve-RDMA must agree on every visible result."""

    @staticmethod
    def _scenario(group, task):
        group.write_local(0, b"equivalence-check")
        yield from group.gwrite(task, 0, 17)
        yield from group.gmemcpy(task, 0, 8192, 17)
        first = yield from group.gcas(task, 32768, 0, 11)
        second = yield from group.gcas(task, 32768, 11, 22, execute_map=[True, False, True])
        third = yield from group.gcas(task, 32768, 0, 33)  # fails everywhere it ran
        return (first, second, third)

    def _run(self, factory):
        sim = Simulator(seed=21)
        cluster = Cluster(sim, n_hosts=4, n_cores=4)
        group = factory(cluster)
        done = {}

        def wrapper(task):
            done["r"] = yield from self._scenario(group, task)

        cluster[0].os.spawn(wrapper, "client")
        sim.run(until=500 * MS)
        assert "r" in done
        state = [
            (
                group.read_replica(replica, 0, 17),
                group.read_replica(replica, 8192, 17),
                int.from_bytes(group.read_replica(replica, 32768, 8), "little"),
            )
            for replica in range(3)
        ]
        assert not group.errors, group.errors
        return done["r"], state

    def test_results_and_state_match(self):
        hl = self._run(
            lambda c: HyperLoopGroup(
                c[0], c.hosts[1:], region_size=1 << 16, rounds=32, name="hl"
            )
        )
        nv = self._run(
            lambda c: NaiveGroup(
                c[0], c.hosts[1:], region_size=1 << 16, rounds=32, name="nv"
            )
        )
        assert hl == nv
