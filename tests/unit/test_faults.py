"""Unit tests for repro.faults and the hardware injection points.

Covers the declarative plan layer (validation, triggers, seeded
determinism), the fabric fault filter (drop / delay / duplicate /
corrupt / partition), NIC stall/crash with the RC retransmission path,
and the host power-failure durability regression: a gWRITE whose
durability window is still open is lost, a flushed one survives.
"""

import pytest

from repro.core import HyperLoopGroup
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.hw import Cluster
from repro.hw.network import FaultVerdict
from repro.hw.nic import NicParams
from repro.hw.wqe import WC_RETRY_EXCEEDED
from repro.rdma import AccessFlags, FLAG_SIGNALED, Opcode, Wqe
from repro.sim import MS, US, Simulator


def run_until(sim, predicate, timeout_ns=100 * MS, step=10 * US):
    deadline = sim.now + timeout_ns
    while not predicate() and sim.now < deadline:
        sim.run(until=min(sim.now + step, deadline))
    assert predicate(), "condition not reached before timeout"


class TestFaultEvent:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultEvent("explode")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultEvent("drop", probability=1.5)

    def test_partition_needs_pair(self):
        with pytest.raises(ValueError, match="host pair"):
            FaultEvent("partition", at_ms=1.0)

    def test_node_action_needs_target(self):
        with pytest.raises(ValueError, match="target host"):
            FaultEvent("nic_crash", at_ms=1.0)

    def test_node_action_needs_trigger(self):
        with pytest.raises(ValueError, match="trigger"):
            FaultEvent("nic_crash", target="host1")

    def test_plan_splits_rules_and_events(self):
        plan = (
            FaultPlan(label="t")
            .add("drop", probability=0.1)
            .add("nic_stall", target="host1", at_ms=1.0)
        )
        assert [e.action for e in plan.message_rules()] == ["drop"]
        assert [e.action for e in plan.node_events()] == ["nic_stall"]


def _injector(seed, plan):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=3)
    hosts = {host.name: host for host in cluster.hosts}
    return sim, cluster, FaultInjector(sim, cluster.fabric, hosts, plan)


class TestFaultInjector:
    def test_probabilistic_verdicts_reproducible_from_seed(self):
        def draws(seed):
            _, _, injector = _injector(seed, FaultPlan(label="p").add("drop", probability=0.5))
            return [
                injector._filter("host0", "host1", None, 64) is not None
                for _ in range(200)
            ]

        first = draws(9)
        assert first == draws(9), "same seed must give identical verdicts"
        assert first != draws(10), "different seeds should diverge"
        assert 40 < sum(first) < 160

    def test_marks_fabric_lossy(self):
        _, cluster, _ = _injector(1, FaultPlan(label="l").add("drop", probability=0.1))
        assert cluster.fabric.lossy

    def test_partition_drops_both_directions_until_heal(self):
        plan = (
            FaultPlan(label="part")
            .add("partition", pair=("host0", "host1"), at_ms=0.0)
            .add("heal", pair=("host0", "host1"), at_ms=1.0)
        )
        sim, _, injector = _injector(2, plan)
        sim.run(until=100)  # fire the at_ms=0 partition
        for src, dst in (("host0", "host1"), ("host1", "host0")):
            verdict = injector._filter(src, dst, None, 64)
            assert verdict is not None and verdict.drop
        assert injector._filter("host0", "host2", None, 64) is None
        sim.run(until=2 * MS)  # heal
        assert injector._filter("host0", "host1", None, 64) is None
        assert injector.counters["partition_drop"] == 2

    def test_rule_activation_window(self):
        plan = FaultPlan(label="w").add(
            "delay", probability=1.0, extra_delay_ns=500, at_ms=1.0, until_ms=2.0
        )
        sim, _, injector = _injector(3, plan)
        assert injector._filter("host0", "host1", None, 64) is None
        sim.run(until=int(1.5 * MS))
        verdict = injector._filter("host0", "host1", None, 64)
        assert verdict is not None and verdict.extra_delay_ns == 500
        sim.run(until=3 * MS)
        assert injector._filter("host0", "host1", None, 64) is None

    def test_at_op_trigger_fires_once(self):
        plan = FaultPlan(label="op").add("nic_stall", target="host1", at_op=5)
        sim, cluster, injector = _injector(4, plan)
        for _ in range(4):
            injector.notify_op()
        assert not cluster[1].nic.halted
        injector.notify_op()
        assert cluster[1].nic.halted
        assert injector.counters["nic_stall"] == 1
        for _ in range(10):
            injector.notify_op()
        assert injector.counters["nic_stall"] == 1

    def test_at_ms_trigger_dispatches_host_action(self):
        plan = FaultPlan(label="tm").add("host_crash", target="host2", at_ms=1.0)
        sim, cluster, injector = _injector(5, plan)
        sim.run(until=2 * MS)
        assert cluster[2].down
        assert cluster[2].nic.crashed
        assert injector.fired and injector.fired[0][1] == "host_crash@host2"

    def test_at_phase_trigger_fires_after_notify(self):
        plan = FaultPlan(label="ph").add(
            "nic_stall", target="host1", at_phase="repair", phase_delay_ms=1.0
        )
        sim, cluster, injector = _injector(6, plan)
        sim.run(until=5 * MS)
        assert not cluster[1].nic.halted, "must not fire before the phase"
        injector.notify_phase("repair")
        sim.run(until=sim.now + int(0.5 * MS))
        assert not cluster[1].nic.halted, "phase_delay_ms not honoured"
        sim.run(until=sim.now + MS)
        assert cluster[1].nic.halted

    def test_at_phase_fires_once_per_plan(self):
        plan = FaultPlan(label="ph1").add(
            "nic_stall", target="host1", at_phase="repair"
        )
        sim, cluster, injector = _injector(7, plan)
        injector.notify_phase("repair")
        sim.run(until=MS)
        cluster[1].nic.resume()
        injector.notify_phase("repair")  # second repair: event already spent
        sim.run(until=2 * MS)
        assert not cluster[1].nic.halted
        assert injector.counters["nic_stall"] == 1

    def test_at_phase_rejected_for_message_rules(self):
        with pytest.raises(ValueError, match="node actions only"):
            FaultEvent("drop", probability=0.1, at_phase="repair")

    def test_phase_counts_as_node_trigger(self):
        # at_phase alone satisfies the node-action trigger requirement.
        FaultEvent("nic_crash", target="host1", at_phase="repair")


class TestFaultPlanSubset:
    def _plan(self):
        return (
            FaultPlan(label="sub")
            .add("drop", probability=0.1)
            .add("nic_stall", target="host1", at_ms=1.0)
            .add("nic_resume", target="host1", at_ms=2.0)
            .add("corrupt", probability=0.02)
        )

    def test_subset_keeps_selected_events_in_order(self):
        plan = self._plan()
        sub = plan.subset([3, 0])
        assert [e.action for e in sub.events] == ["drop", "corrupt"]
        assert sub.label == plan.label, "label (and so the RNG stream) must survive"

    def test_subset_ignores_out_of_range(self):
        sub = self._plan().subset([1, 99, -3])
        assert [e.action for e in sub.events] == ["nic_stall"]

    def test_describe_is_deterministic_and_indexed(self):
        plan = self._plan()
        lines = plan.describe()
        assert lines == plan.describe()
        assert lines[0].startswith("[0] drop@* always p=0.1")
        assert "[1] nic_stall@host1 at_ms=1.0" in lines[1]


@pytest.fixture
def rig():
    """Two hosts, a connected QP pair, and an NVM buffer on each."""
    sim = Simulator(seed=6)
    cluster = Cluster(sim, n_hosts=2)
    a, b = cluster[0], cluster[1]
    qp_a = a.dev.create_qp(name="a")
    qp_b = b.dev.create_qp(name="b")
    qp_a.connect(qp_b)
    buf_a = a.memory.alloc(8192, nvm=True, label="buf_a")
    buf_b = b.memory.alloc(8192, nvm=True, label="buf_b")
    a.dev.reg_mr(buf_a, AccessFlags.ALL_REMOTE)
    mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
    return sim, cluster, a, b, qp_a, qp_b, buf_a, buf_b, mr_b


def _write_wqe(buf_a, buf_b, mr_b, length=8, wr_id=1):
    return Wqe(
        opcode=Opcode.WRITE,
        flags=FLAG_SIGNALED,
        length=length,
        local_addr=buf_a.addr,
        remote_addr=buf_b.addr,
        rkey=mr_b.rkey,
        wr_id=wr_id,
    )


class TestNicFaults:
    def test_stall_holds_sends_until_resume(self, rig):
        sim, cluster, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        buf_a.write(0, b"stalled!")
        a.nic.stall()
        qp_a.post_send(_write_wqe(buf_a, buf_b, mr_b))
        sim.run(until=5 * MS)
        assert qp_a.send_cq.completions_total == 0
        assert b.nic.cache.read(buf_b.addr, 8) == bytes(8)
        a.nic.resume()
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        assert b.nic.cache.read(buf_b.addr, 8) == b"stalled!"

    def test_crashed_nic_is_dark(self, rig):
        sim, cluster, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        b.nic.crash()
        qp_a.post_send(_write_wqe(buf_a, buf_b, mr_b))
        sim.run(until=5 * MS)
        assert qp_a.send_cq.completions_total == 0
        assert b.nic.rx_dropped_while_crashed > 0
        assert b.nic.cache.read(buf_b.addr, 8) == bytes(8)

    def test_crash_reverts_unflushed_writes(self, rig):
        sim, cluster, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        buf_a.write(0, b"volatile")
        qp_a.post_send(_write_wqe(buf_a, buf_b, mr_b))
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        assert b.memory.read(buf_b.addr, 8) == b"volatile"
        assert b.nic.cache.dirty
        lost = b.nic.crash()
        assert lost == 1
        # The durability window was open: bytes revert to their last
        # durable contents.
        assert b.memory.read(buf_b.addr, 8) == bytes(8)

    def test_retransmission_recovers_a_dropped_message(self, rig):
        sim, cluster, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        dropped = []

        def drop_first(src, dst, payload, nbytes):
            if not dropped and dst == "host1":
                dropped.append(payload)
                return FaultVerdict(drop=True)
            return None

        cluster.fabric.install_fault_filter(drop_first)
        buf_a.write(0, b"retry-me")
        qp_a.post_send(_write_wqe(buf_a, buf_b, mr_b))
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        assert dropped, "filter never saw the message"
        assert sim.now >= 500 * US, "completion before the retransmit timeout"
        cqes = qp_a.send_cq.poll()
        assert cqes[0].ok
        assert b.nic.cache.read(buf_b.addr, 8) == b"retry-me"

    def test_duplicates_are_deduplicated(self, rig):
        sim, cluster, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        cluster.fabric.install_fault_filter(
            lambda src, dst, payload, nbytes: FaultVerdict(duplicates=1)
        )
        for index in range(4):
            buf_a.write(index * 8, bytes([index + 1]) * 8)
            qp_a.post_send(
                Wqe(
                    opcode=Opcode.WRITE,
                    flags=FLAG_SIGNALED,
                    length=8,
                    local_addr=buf_a.addr + index * 8,
                    remote_addr=buf_b.addr + index * 8,
                    rkey=mr_b.rkey,
                    wr_id=index,
                )
            )
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 4)
        assert cluster.fabric.duplicated_messages > 0
        for index in range(4):
            assert b.nic.cache.read(buf_b.addr + index * 8, 8) == bytes([index + 1]) * 8

    def test_retry_exhaustion_surfaces_error_completion(self):
        sim = Simulator(seed=8)
        params = NicParams(retransmit_timeout_ns=50_000, retransmit_limit=3)
        cluster = Cluster(sim, n_hosts=2, nic_params=params)
        a, b = cluster[0], cluster[1]
        qp_a = a.dev.create_qp(name="a")
        qp_b = b.dev.create_qp(name="b")
        qp_a.connect(qp_b)
        buf_a = a.memory.alloc(64, label="ba")
        buf_b = b.memory.alloc(64, label="bb")
        mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
        cluster.fabric.install_fault_filter(
            lambda src, dst, payload, nbytes: FaultVerdict(drop=True)
        )
        qp_a.post_send(_write_wqe(buf_a, buf_b, mr_b))
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        cqes = qp_a.send_cq.poll()
        assert cqes[0].status == WC_RETRY_EXCEEDED

    def test_crash_voids_armed_wait_state(self, rig):
        """Regression: WAIT state is on-NIC volatile. A crash voids the
        reservation of the WAIT a send engine is parked on; after
        ``restart()`` (connection state survives) the engine re-reads
        the WAIT from its ring and arms it afresh, so a completion that
        came before the crash counts toward nothing (pre-fix, the
        threshold waiter survived ``crash()`` in
        ``HwCq._threshold_waiters`` and its stale ``wait_consumed``
        reservation let the chained WQE fire on the first post-restart
        completion)."""
        sim, cluster, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        mr_a = a.dev.reg_mr(buf_a, AccessFlags.ALL_REMOTE)
        # On host B: a second QP back to A, pre-loaded with a WAIT
        # (threshold 2 on qp_b's recv CQ) chained to a WRITE.
        qp_b2 = b.dev.create_qp(name="b2")
        qp_a2 = a.dev.create_qp(name="a2")
        qp_b2.connect(qp_a2)
        buf_b.write(200, b"fresh-fwd")
        watched = qp_b.recv_cq

        def complete_one():
            total = watched.completions_total
            qp_b.post_recv(Wqe(local_addr=buf_b.addr + 400, length=64))
            qp_a.post_send(Wqe(opcode=Opcode.SEND, length=4, local_addr=buf_a.addr))
            run_until(sim, lambda: watched.completions_total > total)
            sim.run(until=sim.now + 1 * MS)

        qp_b2.post_send(Wqe(opcode=Opcode.WAIT, compare=2, swap=watched.cqn))
        qp_b2.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SIGNALED,
                length=9,
                local_addr=buf_b.addr + 200,
                remote_addr=buf_a.addr + 300,
                rkey=mr_a.rkey,
            )
        )
        sim.run(until=1 * MS)
        # The WAIT is armed: it reserved two completions up front.
        assert watched.wait_consumed == 2
        complete_one()
        assert watched.completions_total == 1
        b.nic.crash()
        # Crash reconciles the unfulfilled reservation.
        assert watched.wait_consumed == watched.completions_total == 1
        b.nic.restart()
        # One post-restart completion would have met the stale
        # reservation; the re-read WAIT needs two of its own.
        complete_one()
        assert qp_b2.send_cq.completions_total == 0
        assert a.nic.cache.read(buf_a.addr + 300, 9) == bytes(9)
        complete_one()
        assert qp_b2.send_cq.completions_total == 1
        assert a.nic.cache.read(buf_a.addr + 300, 9) == b"fresh-fwd"

    def test_stall_preserves_armed_wait_state(self, rig):
        """Counterpoint: ``stall()`` is a firmware hiccup — WAIT state
        survives and fires once the NIC resumes and the threshold is
        met."""
        sim, cluster, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        mr_a = a.dev.reg_mr(buf_a, AccessFlags.ALL_REMOTE)
        qp_b2 = b.dev.create_qp(name="b2")
        qp_a2 = a.dev.create_qp(name="a2")
        qp_b2.connect(qp_a2)
        buf_b.write(200, b"live-fwd!")
        watched = qp_b.recv_cq
        qp_b2.post_send(Wqe(opcode=Opcode.WAIT, compare=1, swap=watched.cqn))
        qp_b2.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SIGNALED,
                length=9,
                local_addr=buf_b.addr + 200,
                remote_addr=buf_a.addr + 300,
                rkey=mr_a.rkey,
            )
        )
        sim.run(until=1 * MS)
        assert watched.wait_consumed == 1
        b.nic.stall()
        sim.run(until=sim.now + 1 * MS)
        b.nic.resume()
        assert watched.wait_consumed == 1, "stall must keep WAIT reservations"
        qp_b.post_recv(Wqe(local_addr=buf_b.addr + 400, length=64))
        qp_a.post_send(Wqe(opcode=Opcode.SEND, length=4, local_addr=buf_a.addr))
        run_until(sim, lambda: qp_b2.send_cq.completions_total >= 1)
        assert a.nic.cache.read(buf_a.addr + 300, 9) == b"live-fwd!"


class TestRcEdgeCases:
    """Reply-cache bounds, retry-budget surfacing, post-ack dedup."""

    def _lossy_rig(self, seed, **param_overrides):
        sim = Simulator(seed=seed)
        params = NicParams(**param_overrides)
        cluster = Cluster(sim, n_hosts=2, nic_params=params)
        a, b = cluster[0], cluster[1]
        qp_a = a.dev.create_qp(name="a")
        qp_b = b.dev.create_qp(name="b")
        qp_a.connect(qp_b)
        buf_a = a.memory.alloc(8192, nvm=True, label="buf_a")
        buf_b = b.memory.alloc(8192, nvm=True, label="buf_b")
        a.dev.reg_mr(buf_a, AccessFlags.ALL_REMOTE)
        mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
        return sim, cluster, a, b, qp_a, qp_b, buf_a, buf_b, mr_b

    def test_reply_cache_evicts_at_bound(self):
        sim, cluster, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = self._lossy_rig(
            13, reply_cache_entries=4
        )
        # A pass-through filter arms lossy mode (and so reply caching)
        # without perturbing any message.
        cluster.fabric.install_fault_filter(lambda src, dst, payload, nbytes: None)
        for index in range(8):
            buf_a.write(0, bytes([index + 1]) * 8)
            qp_a.post_send(_write_wqe(buf_a, buf_b, mr_b, wr_id=index + 1))
            run_until(
                sim, lambda need=index + 1: qp_a.send_cq.completions_total >= need
            )
        cache = qp_b.hw._reply_cache
        assert len(cache) == 4, "cache must stay at its configured bound"
        keys = list(cache.keys())
        assert keys == sorted(keys)
        assert min(keys) == max(keys) - 3, "oldest seqs must be the evicted ones"

    def test_retry_exhaustion_surfaces_to_op_layer(self):
        sim = Simulator(seed=14)
        params = NicParams(retransmit_timeout_ns=50_000, retransmit_limit=3)
        cluster = Cluster(sim, n_hosts=4, nic_params=params, n_cores=4)
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:], region_size=1 << 12, rounds=16, name="rx"
        )
        cluster.fabric.install_fault_filter(
            lambda src, dst, payload, nbytes: FaultVerdict(drop=True)
        )

        def body(task):
            group.write_local(0, b"never-acked")
            yield from group.gwrite(task, 0, 11)

        cluster[0].os.spawn(body, "client")
        run_until(sim, lambda: bool(group.errors))
        assert any("send error" in error for error in group.errors), group.errors

    def test_duplicate_after_ack_is_deduped(self, rig):
        sim, cluster, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        captured = []
        acks = []

        def tap(src, dst, payload, nbytes):
            kind = getattr(payload, "kind", None)
            if kind == "write":
                captured.append((src, dst, payload, nbytes))
            elif kind == "ack":
                acks.append(payload)
            return None

        cluster.fabric.install_fault_filter(tap)
        buf_a.write(0, b"original")
        qp_a.post_send(_write_wqe(buf_a, buf_b, mr_b))
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        assert b.nic.cache.read(buf_b.addr, 8) == b"original"
        assert len(captured) == 1 and len(acks) == 1
        # Scribble over the landing zone: a re-execution of the
        # duplicate would restore "original" and expose itself.
        b.nic.dma_write(buf_b.addr, b"SCRIBBLE")
        next_seq = qp_b.hw._rx_next_seq
        src, dst, payload, nbytes = captured[0]
        cluster.fabric.send(src, dst, payload, nbytes)
        sim.run(until=sim.now + MS)
        assert b.nic.cache.read(buf_b.addr, 8) == b"SCRIBBLE", (
            "duplicate write was re-executed"
        )
        assert qp_b.hw._rx_next_seq == next_seq
        assert len(acks) == 2, "cached reply must be replayed for the duplicate"
        assert acks[1].seq == acks[0].seq


class TestPowerFailureDurability:
    """Satellite regression: a gWRITE without gFLUSH is lost on power
    failure, a flushed one survives (§4.2's durability window)."""

    def _replicate(self, durable):
        sim = Simulator(seed=13)
        cluster = Cluster(sim, n_hosts=3)
        group = HyperLoopGroup(
            cluster[0],
            cluster.hosts[1:],
            region_size=1 << 12,
            rounds=16,
            durable=durable,
            name="pfd" if durable else "pfu",
        )
        done = []

        def body(task):
            group.write_local(128, b"window-open")
            yield from group.gwrite(task, 128, 11)
            done.append(True)

        cluster[0].os.spawn(body, "writer")
        run_until(sim, lambda: bool(done))
        return sim, cluster, group

    def test_unflushed_gwrite_lost_on_power_failure(self):
        sim, cluster, group = self._replicate(durable=False)
        assert group.read_replica(0, 128, 11) == b"window-open"
        assert cluster[1].nic.cache.dirty
        cluster[1].power_failure()
        assert group.read_replica(0, 128, 11) == bytes(11), (
            "un-flushed bytes must revert to the last durable contents"
        )
        # The other replica did not fail and keeps its (volatile) copy.
        assert group.read_replica(1, 128, 11) == b"window-open"

    def test_flushed_gwrite_survives_power_failure(self):
        sim, cluster, group = self._replicate(durable=True)
        # The cache may still hold control-metadata writes (round
        # patching), but the data region's window was closed by the
        # in-line gFLUSH: power failure must not touch it.
        cluster[1].power_failure()
        assert group.read_replica(0, 128, 11) == b"window-open"

    def test_host_crash_composes_nic_and_memory_loss(self):
        sim, cluster, group = self._replicate(durable=False)
        host = cluster[1]
        host.crash()
        assert host.down
        assert host.nic.crashed and host.nic.halted
        assert group.read_replica(0, 128, 11) == bytes(11)
        host.restart()
        assert not host.down
        assert not host.nic.halted
