"""API-level unit tests for group construction and validation."""

import pytest

from repro.baseline import NaiveGroup
from repro.core import HyperLoopGroup
from repro.hw import Cluster
from repro.sim import Simulator


@pytest.fixture
def cluster():
    sim = Simulator(seed=29)
    return Cluster(sim, n_hosts=4, n_cores=2)


class TestConstruction:
    def test_needs_replicas(self, cluster):
        with pytest.raises(ValueError):
            HyperLoopGroup(cluster[0], [], region_size=1 << 16)
        with pytest.raises(ValueError):
            NaiveGroup(cluster[0], [], region_size=1 << 16)

    def test_bad_client_mode(self, cluster):
        with pytest.raises(ValueError):
            HyperLoopGroup(
                cluster[0], cluster.hosts[1:4], region_size=1 << 16,
                rounds=8, client_mode="spin",
            )

    def test_bad_replica_mode(self, cluster):
        with pytest.raises(ValueError):
            NaiveGroup(
                cluster[0], cluster.hosts[1:4], region_size=1 << 16,
                rounds=8, replica_mode="interrupt",
            )

    def test_group_size(self, cluster):
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:3], region_size=1 << 16, rounds=8
        )
        assert group.group_size == 2

    def test_start_is_idempotent(self, cluster):
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16, rounds=8
        )
        tasks_before = len(group._tasks)
        group.start()
        assert len(group._tasks) == tasks_before

    def test_autostart_false_spawns_nothing(self, cluster):
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16,
            rounds=8, autostart=False,
        )
        assert group._tasks == []
        group.start()
        assert group._tasks

    def test_regions_in_nvm_by_default(self, cluster):
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16,
            rounds=8, autostart=False,
        )
        for mr in group.replica_mrs:
            assert mr.region.is_nvm

    def test_regions_in_dram_when_requested(self, cluster):
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16,
            rounds=8, nvm=False, autostart=False,
        )
        for mr in group.replica_mrs:
            assert not mr.region.is_nvm


class TestLocalAccess:
    def test_write_local_and_read_back(self, cluster):
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16,
            rounds=8, autostart=False,
        )
        group.write_local(100, b"mirror")
        assert group.client_region.read(100, 6) == b"mirror"

    def test_write_local_bounds(self, cluster):
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16,
            rounds=8, autostart=False,
        )
        with pytest.raises(Exception):
            group.write_local((1 << 16) - 2, b"overflow")

    def test_read_replica_initially_zero(self, cluster):
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16,
            rounds=8, autostart=False,
        )
        assert group.read_replica(0, 0, 16) == bytes(16)


class TestStats:
    def test_counters_track_activity(self, cluster):
        from repro.bench import run_until

        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16, rounds=8
        )
        done = {}

        def body(task):
            group.write_local(0, b"stat")
            yield from group.gwrite(task, 0, 4)
            yield from group.gcas(task, 8, 0, 1)
            done["y"] = True

        cluster[0].os.spawn(body, "c")
        run_until(cluster[0].sim, lambda: "y" in done, deadline_ms=2000)
        stats = group.stats()
        assert stats["ops_issued"] == 2
        assert stats["errors"] == 0
        # 8 rounds x 3 replicas on the two chains used; gMEMCPY's was
        # never built.
        assert stats["rounds_posted"] == 8 * 3 * 2


class TestIdleChains:
    @pytest.mark.parametrize("client_mode", ["event", "polling"])
    def test_unused_chains_collect_nothing_per_ack(self, cluster, client_mode):
        """After 500 gWRITEs the gMEMCPY and gCAS chains — never used —
        were never built, and the group's ack channel holds at most
        one armed event with the polling thread's one callback, not one
        parked event per ack wake (before the channel was one event:
        ~500 on each idle ack CQ); in event mode nothing waits on it."""
        import gc

        from repro.bench import run_until
        from repro.core.chain import GWRITE
        from repro.sim import Event

        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16, rounds=64,
            client_mode=client_mode, client_core=0,
        )
        done = {}

        def body(task):
            for index in range(500):
                group.write_local(0, index.to_bytes(8, "little"))
                yield from group.gwrite(task, 0, 8)
            done["ok"] = True

        cluster[0].os.spawn(body, "c", pinned_core=1)
        run_until(cluster[0].sim, lambda: "ok" in done, deadline_ms=500)
        assert group.errors == []
        assert list(group.chains) == [GWRITE]
        chain = group.chains[GWRITE]
        channel = group._acks.channel
        assert channel.cqs == [chain.ack_qp.recv_cq, chain.client_qp.send_cq]
        armed = channel._armed
        assert armed is None or len(armed._callbacks) <= 1
        crowded = [
            obj for obj in gc.get_objects()
            if isinstance(obj, Event) and obj._callbacks and len(obj._callbacks) > 2
        ]
        assert crowded == []
