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

    def test_selective_primitives(self, cluster):
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16,
            rounds=8, primitives=("gwrite",), autostart=False,
        )
        assert set(group.chains) == {"gwrite"}

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


class TestMissingChain:
    def test_op_without_chain_raises(self, cluster):
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16,
            rounds=8, primitives=("gwrite",),
        )
        done = {}

        def body(task):
            try:
                yield from group.gcas(task, 0, 0, 1)
            except RuntimeError as exc:
                done["error"] = str(exc)
            yield from task.sleep(0)

        cluster[0].os.spawn(body, "c")
        cluster[0].sim.run(until=1_000_000)
        assert "gcas" in done["error"]


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
        assert stats["rounds_posted"] >= 8 * 3 * 3


class TestIdleChains:
    @pytest.mark.parametrize("client_mode", ["event", "polling"])
    def test_unused_chains_collect_nothing_per_ack(self, cluster, client_mode):
        """The ack handler waits on every chain's ack CQ at once. After
        500 gWRITEs the gMEMCPY and gCAS ack CQs — never used — hold
        the one armed channel event with the handler's one callback,
        not one parked event per ack wake (pre-fix: ~500 each)."""
        import gc

        from repro.bench import run_until
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
        for chain in group.chains.values():
            assert len(chain.ack_qp.recv_cq._channel_waiters) <= 1, chain.primitive
        crowded = [
            obj for obj in gc.get_objects()
            if isinstance(obj, Event) and obj._callbacks and len(obj._callbacks) > 2
        ]
        assert crowded == []
