"""A group builds a primitive's chain on its first operation.

The eager reference is the same code driven early: ``group.chain(p)``
for every declared primitive right after construction. That group and
an untouched one run the same gWRITE -> gCAS -> gMEMCPY script and must
agree on every ack value, every simulated timestamp and ``errors`` —
in both client modes, across a replica NIC stall, on a lossy fabric —
while the untouched group only ever holds the chains it used.
"""

import pytest

from repro.bench import run_until
from repro.core import HyperLoopGroup, OpSpec
from repro.core.chain import GCAS, GMEMCPY, GWRITE
from repro.hw import Cluster, NicParams
from repro.hw.network import FaultVerdict
from repro.sim import US, Simulator
from tests.host_deadline import host_deadline


def _world(nic_params=None):
    sim = Simulator(seed=23)
    return sim, Cluster(sim, n_hosts=4, n_cores=2, nic_params=nic_params)


def _group(cluster, eager, client_mode="event"):
    group = HyperLoopGroup(
        cluster[0], cluster.hosts[1:4], region_size=1 << 16, rounds=16,
        client_mode=client_mode, client_core=0, name="lz",
    )
    if eager:
        for primitive in group.primitives:
            group.chain(primitive)
    return group


def _drive(sim, done):
    # A handler blind to a newly built chain spins at one instant.
    with host_deadline(seconds=20):
        run_until(sim, done, deadline_ms=50)


def _script(sim, group, log, before_gcas=None):
    """gWRITE x4, gCAS x2, gMEMCPY: every ack value with its time."""

    def body(task):
        for index in range(4):
            group.write_local(64 * index, bytes([index + 1]) * 64)
            round_ = yield from group.gwrite(task, 64 * index, 64)
            log.append((GWRITE, round_, sim.now))
        if before_gcas is not None:
            yield from before_gcas(task)
        for compare, swap in ((0, 7), (7, 9)):
            result = yield from group.gcas(task, 1024, compare, swap)
            log.append((GCAS, result, sim.now))
        round_ = yield from group.gmemcpy(task, 0, 2048, 256)
        log.append((GMEMCPY, round_, sim.now))
        log.append("done")

    return body


def _run(eager, client_mode="event", before_gcas=None, nic_params=None, lossy=False):
    sim, cluster = _world(nic_params)
    if lossy:
        # A pass-through filter: RC retransmission armed, nothing lost.
        cluster.fabric.install_fault_filter(lambda src, dst, payload, nbytes: None)
    group = _group(cluster, eager, client_mode)
    log = []
    script = _script(sim, group, log, before_gcas and before_gcas(cluster))
    cluster[0].os.spawn(script, "script", pinned_core=1)
    _drive(sim, lambda: "done" in log)
    replicas = [group.read_replica(index, 0, 4096) for index in range(3)]
    return log, list(group.errors), replicas, group


class TestSameOutcomeAsBuiltUpFront:
    @pytest.mark.parametrize("client_mode", ["event", "polling"])
    def test_same_acks_times_and_errors(self, client_mode):
        lazy = _run(eager=False, client_mode=client_mode)
        eager = _run(eager=True, client_mode=client_mode)
        assert lazy[:3] == eager[:3]
        assert lazy[1] == []
        assert [entry[1] for entry in lazy[0] if entry[0] == GCAS] == [
            [0, 0, 0], [7, 7, 7],
        ]
        assert list(lazy[3].chains) == [GWRITE, GMEMCPY, GCAS]

    def test_across_a_replica_nic_stall(self):
        """The middle replica stalls before the first gCAS, so the lazy
        group builds that chain on a halted NIC."""

        def stall(cluster):
            def before_gcas(task):
                nic = cluster[2].nic
                nic.stall()
                cluster.sim.call_in(30 * US, nic.resume)
                yield from task.sleep(0)

            return before_gcas

        lazy = _run(eager=False, before_gcas=stall)
        eager = _run(eager=True, before_gcas=stall)
        assert lazy[:3] == eager[:3]
        assert lazy[1] == []
        assert lazy[0][4][2] > lazy[0][3][2] + 30 * US  # the stall was felt

    def test_on_a_lossy_fabric(self):
        lazy = _run(eager=False, lossy=True)
        assert lazy[:3] == _run(eager=True, lossy=True)[:3]
        assert lazy[1] == []

    def test_chain_first_used_after_the_handler_parked(self):
        """The ack reaper serves the gWRITE chain's CQs alone; the gCAS
        chain built a millisecond later must still be reaped."""

        def idle(cluster):
            def before_gcas(task):
                yield from task.sleep(1_000 * US)

            return before_gcas

        lazy = _run(eager=False, before_gcas=idle)
        assert lazy[:3] == _run(eager=True, before_gcas=idle)[:3]
        assert lazy[0][-1] == "done"


class TestRetryExceededOnALazyChain:
    @staticmethod
    def _partitioned_gcas(eager):
        """gWRITEs go through; then the client's link to the head drops
        everything, and a gCAS — the chain's first op — retries out."""
        params = NicParams(retransmit_timeout_ns=50_000, retransmit_limit=3)
        sim, cluster = _world(params)
        group = _group(cluster, eager)
        client, head = cluster[0].name, cluster[1].name
        cluster.fabric.install_fault_filter(lambda src, dst, payload, nbytes: None)
        posted = {}

        def body(task):
            for index in range(2):
                yield from group.gwrite(task, 64 * index, 64)
            cluster.fabric.install_fault_filter(
                lambda src, dst, payload, nbytes: FaultVerdict(drop=True)
                if (src, dst) == (client, head) else None
            )
            yield from group.submit(task, OpSpec(GCAS, offset=1024, compare=0, swap=1))
            posted["at"] = sim.now

        cluster[0].os.spawn(body, "script", pinned_core=1)
        _drive(sim, lambda: bool(group.errors))
        return posted["at"], sim.now, list(group.errors), group

    def test_the_error_reaches_the_group(self):
        lazy = self._partitioned_gcas(eager=False)
        assert lazy[:3] == self._partitioned_gcas(eager=True)[:3]
        errors, group = lazy[2], lazy[3]
        assert len(errors) == 1 and errors[0].startswith("gcas send error"), errors
        assert list(group.chains) == [GWRITE, GCAS]


class TestFootprint:
    @staticmethod
    def _qps(cluster):
        return [len(host.nic.qps) for host in cluster.hosts]

    def test_construction_builds_no_chain(self):
        sim, cluster = _world()
        before = self._qps(cluster)
        group = _group(cluster, eager=False)
        assert group.chains == {}
        # The read path only: one QP pair per replica.
        assert self._qps(cluster) == [before[0] + 3] + [n + 1 for n in before[1:]]

    def test_each_primitive_adds_its_chain_on_first_use(self):
        sim, cluster = _world()
        group = _group(cluster, eager=False)
        done = {}

        def body(task):
            base = self._qps(cluster)
            yield from group.gwrite(task, 0, 8)
            yield from group.gwrite(task, 8, 8)
            after_gwrite = self._qps(cluster)
            yield from group.gcas(task, 64, 0, 1)
            done["qps"] = (base, after_gwrite, self._qps(cluster))

        cluster[0].os.spawn(body, "script", pinned_core=1)
        _drive(sim, lambda: "qps" in done)
        base, after_gwrite, after_gcas = done["qps"]
        # Client: a send QP and an ack QP per chain. Replicas: previous
        # and next per chain, plus loopback on gCAS.
        assert [a - b for a, b in zip(after_gwrite, base)] == [2, 2, 2, 2]
        assert [a - b for a, b in zip(after_gcas, after_gwrite)] == [2, 3, 3, 3]
        assert list(group.chains) == [GWRITE, GCAS]

    def test_chains_follow_declared_order_whichever_is_built_first(self):
        sim, cluster = _world()
        group = _group(cluster, eager=False)
        group.chain(GCAS)
        group.chain(GWRITE)
        assert list(group.chains) == [GWRITE, GCAS]
        group.chain(GMEMCPY)
        assert list(group.chains) == [GWRITE, GMEMCPY, GCAS]
        assert group.chain(GCAS) is group.chains[GCAS]  # built once
