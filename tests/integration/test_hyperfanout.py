"""Integration tests for the NIC-offloaded fan-out group (§7)."""

import pytest

from repro.bench import run_until
from repro.core import HyperFanoutGroup
from repro.hw import Cluster
from repro.sim import MS, Simulator


def make(n_replicas=4, seed=61, **kwargs):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=n_replicas + 1, n_cores=4)
    defaults = dict(region_size=1 << 16, rounds=16, name="hf")
    defaults.update(kwargs)
    group = HyperFanoutGroup(cluster[0], cluster.hosts[1 : n_replicas + 1], **defaults)
    return sim, cluster, group


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


class TestHyperFanout:
    def test_replicates_to_primary_and_backups(self):
        sim, cluster, group = make()

        def body(task):
            group.write_local(100, b"fanout-bytes")
            yield from group.gwrite(task, 100, 12)
            return True

        drive(sim, cluster, body)
        for replica in range(4):
            assert group.read_replica(replica, 100, 12) == b"fanout-bytes"
        assert not group.errors

    def test_no_primary_cpu_on_critical_path(self):
        sim, cluster, group = make(maintenance_interval=50 * MS)

        def body(task):
            group.write_local(0, b"q" * 256)
            for _ in range(5):
                yield from group.gwrite(task, 0, 256)
            return True

        drive(sim, cluster, body, until_ms=40)
        assert group.replica_cpu_ns() == 0

    def test_durable_across_power_failure(self):
        sim, cluster, group = make(durable=True)

        def body(task):
            group.write_local(0, b"must-survive-fanout")
            yield from group.gwrite(task, 0, 19)
            return True

        drive(sim, cluster, body)
        for host in cluster.hosts[1:5]:
            host.power_failure()
        for replica in range(4):
            assert group.read_replica(replica, 0, 19) == b"must-survive-fanout"

    def test_sustained_past_round_budget(self):
        sim, cluster, group = make(rounds=8)

        def body(task):
            for index in range(40):
                group.write_local(0, bytes([index]) * 64)
                yield from group.gwrite(task, 0, 64)
            return True

        drive(sim, cluster, body, until_ms=50_000)
        assert group.next_round == 40
        assert not group.errors
        for replica in range(4):
            assert group.read_replica(replica, 0, 64) == bytes([39]) * 64

    @pytest.mark.parametrize("rounds", [8, 16])
    def test_back_to_back_ops_never_find_the_primary_ring_dry(self, rounds):
        """The primary re-arms half a lap as soon as its recv CQ shows
        half a lap consumed. With refills on the 200 us tick alone, one
        op per half lap waited for it: max 75 us at 16 rounds, 142 us
        at 8, against 8.4 us unloaded."""
        sim, cluster, group = make(rounds=rounds)
        latencies = []

        def body(task):
            group.write_local(0, b"f" * 256)
            for _ in range(600):
                start = sim.now
                yield from group.gwrite(task, 0, 256)
                latencies.append(sim.now - start)
            return True

        drive(sim, cluster, body)
        # The first op pays the cold caches.
        assert max(latencies[1:]) <= 2 * min(latencies)
        assert not group.errors

    def test_primary_egress_concentrated(self):
        """The §7 trade-off holds for NIC-offloaded fan-out too."""
        sim, cluster, group = make(n_replicas=5)

        def body(task):
            group.write_local(0, b"e" * 4096)
            for _ in range(20):
                yield from group.gwrite(task, 0, 4096)
            return True

        drive(sim, cluster, body, until_ms=20_000)
        primary_tx = group.replicas[0].nic.port.tx_bytes
        backup_tx = max(host.nic.port.tx_bytes for host in group.replicas[1:])
        assert primary_tx > 3 * max(backup_tx, 1)

    def test_requires_a_backup(self):
        sim = Simulator(seed=62)
        cluster = Cluster(sim, n_hosts=2, n_cores=2)
        with pytest.raises(ValueError):
            HyperFanoutGroup(cluster[0], cluster.hosts[1:2])

    def test_out_of_range_rejected(self):
        sim, cluster, group = make()

        def body(task):
            with pytest.raises(ValueError):
                yield from group.gwrite(task, 1 << 16, 1)
            yield from task.sleep(0)
            return True

        drive(sim, cluster, body)
