"""Integration tests for the fan-out baseline (repro.baseline.fanout)."""

import pytest

from repro.baseline import FanoutGroup
from repro.bench import run_until
from repro.hw import Cluster
from repro.sim import MS, Simulator


def make(n_replicas=3, seed=31, **kwargs):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=n_replicas + 1, n_cores=4)
    defaults = dict(region_size=1 << 16, rounds=32, name="f")
    defaults.update(kwargs)
    group = FanoutGroup(cluster[0], cluster.hosts[1 : n_replicas + 1], **defaults)
    return sim, cluster, group


class TestFanout:
    def test_replicates_to_all(self):
        sim, cluster, group = make()
        done = {}

        def body(task):
            group.write_local(0, b"fan-out-data")
            for _ in range(10):
                yield from group.gwrite(task, 0, 12)
            done["y"] = True

        cluster[0].os.spawn(body, "c")
        run_until(sim, lambda: "y" in done, deadline_ms=5000)
        for replica in range(3):
            assert group.read_replica(replica, 0, 12) == b"fan-out-data"
        assert not group.errors

    def test_out_of_range_rejected(self):
        sim, cluster, group = make()
        done = {}

        def body(task):
            with pytest.raises(ValueError):
                yield from group.gwrite(task, (1 << 16) - 96, 512)
            yield from task.sleep(0)
            done["y"] = True

        cluster[0].os.spawn(body, "c")
        run_until(sim, lambda: "y" in done, deadline_ms=5000)
        assert group.next_round == 0
        assert group._flow.in_use == 0

    def test_needs_two_replicas(self):
        sim = Simulator(seed=32)
        cluster = Cluster(sim, n_hosts=2, n_cores=2)
        with pytest.raises(ValueError):
            FanoutGroup(cluster[0], cluster.hosts[1:2])

    def test_primary_egress_concentration(self):
        """The §7 claim: the primary transmits ~(g-1)x the payload
        bytes of any backup."""
        sim, cluster, group = make(n_replicas=5)
        done = {}

        def body(task):
            group.write_local(0, b"z" * 4096)
            for _ in range(20):
                yield from group.gwrite(task, 0, 4096)
            done["y"] = True

        cluster[0].os.spawn(body, "c")
        run_until(sim, lambda: "y" in done, deadline_ms=20_000)
        primary_tx = group.replicas[0].nic.port.tx_bytes
        backup_tx = max(host.nic.port.tx_bytes for host in group.replicas[1:])
        assert primary_tx > 3 * max(backup_tx, 1), (primary_tx, backup_tx)

    def test_primary_cpu_is_burned(self):
        sim, cluster, group = make()
        done = {}

        def body(task):
            group.write_local(0, b"c" * 128)
            for _ in range(5):
                yield from group.gwrite(task, 0, 128)
            done["y"] = True

        cluster[0].os.spawn(body, "c")
        run_until(sim, lambda: "y" in done, deadline_ms=5000)
        assert group.replica_cpu_ns() > 0
