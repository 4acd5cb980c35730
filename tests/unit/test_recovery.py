"""Unit tests for failure detection and chain repair (§5.1).

HeartbeatMonitor: beat cadence, suspicion after missed beats, and
wait_for_suspicion. ChainRepair: a failed replica is replaced, the
replacement catches up from a survivor, and the rebuilt chain carries
writes again.
"""

import pytest

from repro.core import HyperLoopGroup
from repro.hw import Cluster
from repro.sim import MS, Simulator
from repro.storage.recovery import ChainRepair, HeartbeatMonitor


def make_cluster(n_hosts=5, seed=3):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=n_hosts, n_cores=4)
    return sim, cluster


class TestHeartbeatMonitor:
    def test_beats_arrive_every_interval(self):
        sim, cluster = make_cluster(n_hosts=3)
        monitor = HeartbeatMonitor(
            cluster[0], cluster.hosts[1:], interval=1 * MS, miss_threshold=3
        )
        sim.run(until=5 * MS + 500_000)
        for index in range(2):
            last = monitor.last_beat(index)
            assert last > 0, f"replica {index} never beat"
            # The newest beat is at most one interval (plus scheduling
            # slack) old.
            assert sim.now - last < 2 * MS

    def test_healthy_replicas_not_suspected(self):
        sim, cluster = make_cluster(n_hosts=3)
        monitor = HeartbeatMonitor(
            cluster[0], cluster.hosts[1:], interval=1 * MS, miss_threshold=3
        )
        sim.run(until=10 * MS)
        assert not monitor.suspected(0)
        assert not monitor.suspected(1)

    def test_stopped_replica_suspected_within_bound(self):
        sim, cluster = make_cluster(n_hosts=3)
        monitor = HeartbeatMonitor(
            cluster[0], cluster.hosts[1:], interval=1 * MS, miss_threshold=3
        )
        sim.run(until=5 * MS)
        monitor.stop_beats(0)
        stopped_at = sim.now
        sim.run(until=stopped_at + 2 * MS)
        assert not monitor.suspected(0), "suspected before the threshold"
        sim.run(until=stopped_at + 6 * MS)
        assert monitor.suspected(0)
        assert not monitor.suspected(1)

    def test_halted_nic_stops_beats(self):
        sim, cluster = make_cluster(n_hosts=3)
        monitor = HeartbeatMonitor(
            cluster[0], cluster.hosts[1:], interval=1 * MS, miss_threshold=3
        )
        sim.run(until=5 * MS)
        cluster[1].nic.stall()
        sim.run(until=12 * MS)
        assert monitor.suspected(0)
        assert not monitor.suspected(1)
        # The beat task survives the stall: beats resume after the NIC
        # comes back, clearing the suspicion.
        cluster[1].nic.resume()
        sim.run(until=15 * MS)
        assert not monitor.suspected(0)

    def test_wait_for_suspicion_returns_failed_index(self):
        sim, cluster = make_cluster(n_hosts=4)
        monitor = HeartbeatMonitor(
            cluster[0], cluster.hosts[1:], interval=1 * MS, miss_threshold=3
        )
        observed = {}

        def body(task):
            index = yield from monitor.wait_for_suspicion(task)
            observed["index"] = index
            observed["at"] = sim.now

        cluster[0].os.spawn(body, "detector")
        sim.run(until=4 * MS)
        assert "index" not in observed, "suspicion with every replica healthy"
        monitor.stop_beats(1)
        sim.run(until=20 * MS)
        assert observed["index"] == 1
        # Detection within miss_threshold + slack intervals of the stop.
        assert observed["at"] - 4 * MS <= 6 * MS

    def test_wait_for_suspicion_skips_excluded_replicas(self):
        sim, cluster = make_cluster(n_hosts=4)
        monitor = HeartbeatMonitor(
            cluster[0], cluster.hosts[1:], interval=1 * MS, miss_threshold=3
        )
        monitor.stop_beats(0)
        sim.run(until=8 * MS)
        assert monitor.suspected(0) and not monitor.suspected(1)
        observed = {}

        def body(task):
            observed["index"] = yield from monitor.wait_for_suspicion(task, exclude={0})
            observed["at"] = sim.now

        cluster[0].os.spawn(body, "detector")
        sim.run(until=10 * MS)
        assert "index" not in observed, "returned an excluded replica"
        monitor.stop_beats(1)
        sim.run(until=30 * MS)
        assert observed["index"] == 1
        # Suspected once miss_threshold intervals pass without a beat;
        # the wait polls once per interval, so it returns within one
        # interval of that moment.
        suspected_from = monitor.last_beat(1) + 3 * MS
        assert suspected_from < observed["at"] <= suspected_from + 1 * MS


class TestChainRepair:
    def test_repair_replaces_failed_replica(self):
        sim, cluster = make_cluster(n_hosts=5)
        client = cluster[0]
        replicas = cluster.hosts[1:4]
        spare = cluster[4]
        region_size = 1 << 13
        group = HyperLoopGroup(
            client, replicas, region_size=region_size, rounds=16, name="rep"
        )

        def factory(members):
            return HyperLoopGroup(
                client, members, region_size=region_size, rounds=16, name="rep2"
            )

        repairer = ChainRepair(client, group, factory)
        payload = bytes(range(1, 251)) * 4  # 1000 bytes
        outcome = {}

        def body(task):
            group.write_local(512, payload)
            yield from group.gwrite(task, 512, len(payload))
            # Mid-chain replica dies; the repair copies from replica 0.
            cluster[2].crash()
            new_group = yield from repairer.repair(task, 1, spare, copy_from=0)
            # The rebuilt chain carries writes again.
            new_group.write_local(0, b"post-repair")
            yield from new_group.gwrite(task, 0, 11)
            outcome["group"] = new_group

        client.os.spawn(body, "repair-driver")
        sim.run(until=100 * MS)
        new_group = outcome["group"]
        assert repairer.repairs == 1
        assert repairer.group is new_group
        assert not repairer.paused
        assert [host.name for host in new_group.replicas] == [
            "host1",
            "host3",
            "host4",
        ]
        # Catch-up installed the survivor's bytes everywhere, including
        # on the replacement, and post-repair writes replicated.
        for replica in range(3):
            assert new_group.read_replica(replica, 512, len(payload)) == payload
            assert new_group.read_replica(replica, 0, 11) == b"post-repair"
        assert not new_group.errors

    def test_repair_keeps_region_size(self):
        sim, cluster = make_cluster(n_hosts=5)
        client = cluster[0]
        group = HyperLoopGroup(
            client, cluster.hosts[1:4], region_size=1 << 13, rounds=16, name="sz"
        )

        def bad_factory(members):
            return HyperLoopGroup(
                client, members, region_size=1 << 12, rounds=16, name="sz2"
            )

        repairer = ChainRepair(client, group, bad_factory)
        outcome = {}

        def body(task):
            try:
                yield from repairer.repair(task, 1, cluster[4], copy_from=0)
            except ValueError as error:
                outcome["error"] = str(error)

        client.os.spawn(body, "repair-driver")
        sim.run(until=100 * MS)
        assert "region size" in outcome["error"]

    def test_old_group_stops_after_repair(self):
        sim, cluster = make_cluster(n_hosts=5)
        client = cluster[0]
        group = HyperLoopGroup(
            client, cluster.hosts[1:4], region_size=1 << 13, rounds=16, name="st"
        )

        def factory(members):
            return HyperLoopGroup(
                client, members, region_size=1 << 13, rounds=16, name="st2"
            )

        repairer = ChainRepair(client, group, factory)

        def body(task):
            cluster[2].crash()
            yield from repairer.repair(task, 1, cluster[4], copy_from=0)

        client.os.spawn(body, "repair-driver")
        sim.run(until=100 * MS)
        assert repairer.repairs == 1
        assert group._stopping, "retired group should stop its background tasks"
        assert not repairer.group._stopping
