"""Unit tests for the RNIC model + verbs layer.

These exercise the exact hardware behaviours HyperLoop is built on:
one-sided verbs, WAIT chaining, deferred ownership, remote WQE
patching, SGL scatter/gather, the flush-on-READ durability mechanism,
and rkey safety checks.
"""

import pytest

from repro.hw import Cluster
from repro.rdma import (
    AccessFlags,
    FLAG_SGL,
    FLAG_SIGNALED,
    Opcode,
    WC_REMOTE_ACCESS_ERROR,
    Wqe,
)
from repro.sim import Simulator, MS, US
from tests.pins import assert_pinned


@pytest.fixture
def rig():
    """Two hosts with a connected QP and a registered buffer each."""
    sim = Simulator(seed=1)
    cluster = Cluster(sim, n_hosts=2)
    a, b = cluster[0], cluster[1]
    qp_a = a.dev.create_qp(name="a")
    qp_b = b.dev.create_qp(name="b")
    qp_a.connect(qp_b)
    buf_a = a.memory.alloc(8192, label="buf_a")
    buf_b = b.memory.alloc(8192, label="buf_b")
    mr_a = a.dev.reg_mr(buf_a, AccessFlags.ALL_REMOTE)
    mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
    return sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b


def run_until(sim, predicate, timeout_ns=50 * MS, step=10 * US):
    deadline = sim.now + timeout_ns
    while not predicate() and sim.now < deadline:
        sim.run(until=min(sim.now + step, deadline))
    assert predicate(), "condition not reached before timeout"


class TestRdmaWrite:
    def test_write_moves_data_without_remote_recv(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        buf_a.write(0, b"payload!")
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SIGNALED,
                length=8,
                local_addr=buf_a.addr,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
                wr_id=7,
            )
        )
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        cqes = qp_a.send_cq.poll()
        assert len(cqes) == 1 and cqes[0].ok and cqes[0].wr_id == 7
        # Data visible through the remote NIC's cache overlay.
        assert b.nic.cache.read(buf_b.addr, 8) == b"payload!"

    def test_write_latency_is_microseconds(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SIGNALED,
                length=64,
                local_addr=buf_a.addr,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
            )
        )
        def waiter():
            yield qp_a.send_cq.threshold_event(1)
            return sim.now

        done_at = sim.run_process(waiter())
        # Small RC WRITE round trip on ConnectX-3-ish hardware: 2-5 us.
        assert 1 * US < done_at < 10 * US

    def test_unsignaled_write_produces_no_cqe(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=0,
                length=8,
                local_addr=buf_a.addr,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
            )
        )
        sim.run(until=1 * MS)
        assert qp_a.send_cq.completions_total == 0
        # ... but the data still arrived.
        assert b.nic.cache.read(buf_b.addr, 8) == bytes(8)

    def test_writes_complete_in_order(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        for i in range(5):
            buf_a.write(i * 16, bytes([i]) * 16)
            qp_a.post_send(
                Wqe(
                    opcode=Opcode.WRITE,
                    flags=FLAG_SIGNALED,
                    length=16,
                    local_addr=buf_a.addr + i * 16,
                    remote_addr=buf_b.addr + i * 16,
                    rkey=mr_b.rkey,
                    wr_id=i,
                )
            )
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 5)
        ids = [cqe.wr_id for cqe in qp_a.send_cq.poll(16)]
        assert ids == [0, 1, 2, 3, 4]


class TestSendRecv:
    def test_send_consumes_recv_and_scatters(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        buf_a.write(0, b"two-sided")
        qp_b.post_recv(Wqe(local_addr=buf_b.addr + 100, length=64, wr_id=55))
        qp_a.post_send(
            Wqe(opcode=Opcode.SEND, flags=FLAG_SIGNALED, length=9, local_addr=buf_a.addr)
        )
        run_until(sim, lambda: qp_b.recv_cq.completions_total >= 1)
        cqe = qp_b.recv_cq.poll()[0]
        assert cqe.wr_id == 55 and cqe.byte_len == 9
        assert b.nic.cache.read(buf_b.addr + 100, 9) == b"two-sided"

    def test_send_blocks_until_recv_posted(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        qp_a.post_send(
            Wqe(opcode=Opcode.SEND, flags=FLAG_SIGNALED, length=4, local_addr=buf_a.addr)
        )
        sim.run(until=1 * MS)
        assert qp_b.recv_cq.completions_total == 0
        qp_b.post_recv(Wqe(local_addr=buf_b.addr, length=64, wr_id=1))
        run_until(sim, lambda: qp_b.recv_cq.completions_total >= 1)

    def test_write_imm_consumes_recv_and_carries_imm(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        buf_a.write(0, b"ackdata!")
        qp_b.post_recv(Wqe(local_addr=0, length=0, wr_id=9))
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE_IMM,
                flags=FLAG_SIGNALED,
                length=8,
                local_addr=buf_a.addr,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
                compare=4242,  # imm
            )
        )
        run_until(sim, lambda: qp_b.recv_cq.completions_total >= 1)
        cqe = qp_b.recv_cq.poll()[0]
        assert cqe.imm == 4242 and cqe.wr_id == 9
        assert b.nic.cache.read(buf_b.addr, 8) == b"ackdata!"


class TestReadAndFlush:
    def test_read_fetches_remote_data(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        buf_b.write(0, b"remote-bytes")
        qp_a.post_send(
            Wqe(
                opcode=Opcode.READ,
                flags=FLAG_SIGNALED,
                length=12,
                local_addr=buf_a.addr + 64,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
            )
        )
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        assert a.nic.cache.read(buf_a.addr + 64, 12) == b"remote-bytes"

    def test_zero_byte_read_flushes_remote_cache(self, rig):
        """The gFLUSH mechanism: WRITE lands in the NIC cache; a
        0-byte READ forces it to the durable medium."""
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        nvm = b.memory.alloc(64, nvm=True)
        mr_nvm = b.dev.reg_mr(nvm, AccessFlags.ALL_REMOTE)
        buf_a.write(0, b"must-persist")
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                length=12,
                local_addr=buf_a.addr,
                remote_addr=nvm.addr,
                rkey=mr_nvm.rkey,
            )
        )
        qp_a.post_send(
            Wqe(
                opcode=Opcode.READ,
                flags=FLAG_SIGNALED,
                length=0,
                local_addr=buf_a.addr,
                remote_addr=nvm.addr,
                rkey=mr_nvm.rkey,
            )
        )
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        # After the READ completes, the bytes are in memory proper:
        # power failure no longer loses them.
        b.power_failure()
        assert nvm.read(0, 12) == b"must-persist"

    def test_unflushed_write_lost_on_power_failure(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        nvm = b.memory.alloc(64, nvm=True)
        mr_nvm = b.dev.reg_mr(nvm, AccessFlags.ALL_REMOTE)
        buf_a.write(0, b"acked-volatile")
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SIGNALED,
                length=14,
                local_addr=buf_a.addr,
                remote_addr=nvm.addr,
                rkey=mr_nvm.rkey,
            )
        )
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        # ACKed to the requester, but if power fails before the lazy
        # drain the data is gone — the exact gap gFLUSH closes.
        assert sim.now < b.nic.params.cache_drain_ns
        b.power_failure()
        assert nvm.read(0, 14) == bytes(14)

    def test_lazy_drain_eventually_persists(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        buf_a.write(0, b"lazy")
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                length=4,
                local_addr=buf_a.addr,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
            )
        )
        sim.run(until=5 * MS)
        assert not b.nic.cache.dirty
        assert buf_b.read(0, 4) == b"lazy"


class TestAtomics:
    def _post_cas(self, qp, buf_a, buf_b, mr_b, compare, swap):
        qp.post_send(
            Wqe(
                opcode=Opcode.CAS,
                flags=FLAG_SIGNALED,
                length=8,
                local_addr=buf_a.addr + 512,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
                compare=compare,
                swap=swap,
            )
        )

    def test_cas_success_swaps_and_returns_original(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        buf_b.write(0, (111).to_bytes(8, "little"))
        self._post_cas(qp_a, buf_a, buf_b, mr_b, compare=111, swap=222)
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        assert int.from_bytes(buf_b.read(0, 8), "little") == 222
        returned = int.from_bytes(a.nic.cache.read(buf_a.addr + 512, 8), "little")
        assert returned == 111

    def test_cas_failure_leaves_value_and_reports_original(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        buf_b.write(0, (999).to_bytes(8, "little"))
        self._post_cas(qp_a, buf_a, buf_b, mr_b, compare=111, swap=222)
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        assert int.from_bytes(buf_b.read(0, 8), "little") == 999
        returned = int.from_bytes(a.nic.cache.read(buf_a.addr + 512, 8), "little")
        assert returned == 999

    def test_cas_sees_cached_writes(self, rig):
        """A CAS right after a WRITE to the same location must observe
        the written value even while it is still in the NIC cache."""
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        buf_a.write(0, (5).to_bytes(8, "little"))
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                length=8,
                local_addr=buf_a.addr,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
            )
        )
        self._post_cas(qp_a, buf_a, buf_b, mr_b, compare=5, swap=6)
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        assert int.from_bytes(b.nic.cache.read(buf_b.addr, 8), "little") == 6


class TestSafetyChecks:
    def test_write_outside_registration_naks(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        secret = b.memory.alloc(64, label="secret")
        secret.write(0, b"secret")
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SIGNALED,
                length=6,
                local_addr=buf_a.addr,
                remote_addr=secret.addr,  # not covered by mr_b
                rkey=mr_b.rkey,
                wr_id=13,
            )
        )
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        cqe = qp_a.send_cq.poll()[0]
        assert cqe.status == WC_REMOTE_ACCESS_ERROR
        assert secret.read(0, 6) == b"secret"

    def test_bogus_rkey_naks(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        qp_a.post_send(
            Wqe(
                opcode=Opcode.READ,
                flags=FLAG_SIGNALED,
                length=8,
                local_addr=buf_a.addr,
                remote_addr=buf_b.addr,
                rkey=0xDEAD,
            )
        )
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        assert qp_a.send_cq.poll()[0].status == WC_REMOTE_ACCESS_ERROR

    def test_permission_flags_enforced(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        readonly = b.memory.alloc(64)
        mr_ro = b.dev.reg_mr(readonly, AccessFlags.REMOTE_READ)
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SIGNALED,
                length=4,
                local_addr=buf_a.addr,
                remote_addr=readonly.addr,
                rkey=mr_ro.rkey,
            )
        )
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        assert qp_a.send_cq.poll()[0].status == WC_REMOTE_ACCESS_ERROR


class TestWaitChaining:
    def test_wait_blocks_until_threshold(self, rig):
        """A WAIT + SEND pre-posted on one QP fires only after the
        observed CQ reaches its threshold — the CORE-Direct behaviour
        HyperLoop forwarding is built from (Figure 4)."""
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        # On host B: a second QP back to A, pre-loaded with WAIT+WRITE
        # watching qp_b's recv CQ.
        qp_b2 = b.dev.create_qp(name="b2")
        qp_a2 = a.dev.create_qp(name="a2")
        qp_b2.connect(qp_a2)
        buf_b.write(200, b"forwarded")
        qp_b2.post_send(
            Wqe(
                opcode=Opcode.WAIT,
                compare=1,  # threshold: 1 completion
                swap=qp_b.recv_cq.cqn,
            )
        )
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
        # Nothing happened yet: the WAIT holds the queue.
        assert a.nic.cache.read(buf_a.addr + 300, 9) == bytes(9)
        # Now trigger it: a SEND from A consumes a recv WQE on qp_b.
        qp_b.post_recv(Wqe(local_addr=buf_b.addr + 400, length=64))
        qp_a.post_send(Wqe(opcode=Opcode.SEND, length=4, local_addr=buf_a.addr))
        run_until(sim, lambda: qp_b2.send_cq.completions_total >= 1)
        assert a.nic.cache.read(buf_a.addr + 300, 9) == b"forwarded"

    def test_wait_threshold_counts_all_time_completions(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        qp_b2 = b.dev.create_qp(name="b2")
        qp_a2 = a.dev.create_qp(name="a2")
        qp_b2.connect(qp_a2)
        # Threshold of 3 recv completions.
        qp_b2.post_send(Wqe(opcode=Opcode.WAIT, compare=3, swap=qp_b.recv_cq.cqn))
        qp_b2.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SIGNALED,
                length=1,
                local_addr=buf_b.addr,
                remote_addr=buf_a.addr,
                rkey=mr_a.rkey,
            )
        )
        for _ in range(3):
            qp_b.post_recv(Wqe(local_addr=buf_b.addr + 128, length=64))
        for i in range(3):
            qp_a.post_send(Wqe(opcode=Opcode.SEND, length=4, local_addr=buf_a.addr))
            sim.run(until=(i + 1) * MS)
            fired = qp_b2.send_cq.completions_total >= 1
            assert fired == (i == 2), f"after {i + 1} sends fired={fired}"


class TestDeferredOwnershipAndPatching:
    def test_stock_driver_rejects_deferred_ownership(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        a.dev.hyperloop = False
        with pytest.raises(PermissionError):
            qp_a.post_send(Wqe(opcode=Opcode.WRITE, flags=0), defer_ownership=True)

    def test_stock_driver_rejects_ring_exposure(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        b.dev.hyperloop = False
        with pytest.raises(PermissionError):
            b.dev.expose_send_ring(qp_b)

    def test_invalid_wqe_stalls_queue(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SIGNALED,  # VALID deliberately clear
                length=4,
                local_addr=buf_a.addr,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
            ),
            defer_ownership=True,
        )
        sim.run(until=2 * MS)
        assert qp_a.send_cq.completions_total == 0

    def test_dma_write_kicks_the_watched_rings_it_touches_in_watch_order(self, rig):
        """However many index chunks a DMA write spans, it kicks each
        watched ring it overlaps once, in the order the rings were
        watched, and no ring it misses — not even one sharing its
        chunk."""
        sim, a, b, *_ = rig
        qps = [b.dev.create_qp(name=f"w{index}", send_slots=64) for index in range(3)]
        for qp in reversed(qps):  # watch order is not address order
            b.dev.expose_send_ring(qp)
        kicked = []
        for qp in qps:
            qp.hw.kick = lambda qpn=qp.hw.qpn: kicked.append(qpn)
        rings = [qp.send_ring for qp in qps]
        b.nic.dma_write(rings[0].addr, bytes(rings[2].end - rings[0].addr))
        assert kicked == [qps[2].hw.qpn, qps[1].hw.qpn, qps[0].hw.qpn]
        kicked.clear()
        b.nic.dma_write(rings[1].addr + 64, b"x" * 8)
        assert kicked == [qps[1].hw.qpn]
        kicked.clear()
        b.nic.dma_write(rings[1].end, b"x" * 8)  # the recv ring right after it
        assert kicked == []

    def test_remote_patch_activates_stalled_wqe(self, rig):
        """End-to-end remote work-request manipulation (Figure 5): a
        remote WRITE into the exposed send ring rewrites a pre-posted,
        ownership-deferred WQE and grants it to the NIC."""
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        ring_mr = b.dev.expose_send_ring(qp_b)
        buf_b.write(0, b"patched-payload")
        # B pre-posts an inert WQE (no VALID, no descriptor).
        slot = qp_b.post_send(Wqe(opcode=Opcode.NOP, flags=0), defer_ownership=True)
        slot_addr = qp_b.send_slot_addr(slot)
        sim.run(until=1 * MS)
        assert qp_b.send_cq.completions_total == 0
        # A remotely rewrites the whole slot: now it is a signaled
        # WRITE of B's buffer back into A's buffer — and VALID.
        patch = Wqe(
            opcode=Opcode.WRITE,
            flags=FLAG_SIGNALED | 0x01,
            length=15,
            local_addr=buf_b.addr,
            remote_addr=buf_a.addr + 1024,
            rkey=mr_a.rkey,
            wr_id=77,
        ).pack()
        buf_a.write(2048, patch)
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                length=len(patch),
                local_addr=buf_a.addr + 2048,
                remote_addr=slot_addr,
                rkey=ring_mr.rkey,
            )
        )
        run_until(sim, lambda: qp_b.send_cq.completions_total >= 1)
        cqe = qp_b.send_cq.poll()[0]
        assert cqe.wr_id == 77 and cqe.ok
        assert a.nic.cache.read(buf_a.addr + 1024, 15) == b"patched-payload"


class TestSglMode:
    def test_gather_send(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        buf_a.write(0, b"AAAA")
        buf_a.write(100, b"BB")
        table = a.dev.sge_table_bytes([(buf_a.addr, 4), (buf_a.addr + 100, 2)])
        buf_a.write(4096, table)
        qp_b.post_recv(Wqe(local_addr=buf_b.addr, length=64))
        qp_a.post_send(
            Wqe(
                opcode=Opcode.SEND,
                flags=FLAG_SGL | FLAG_SIGNALED,
                length=2,  # SGE count
                local_addr=buf_a.addr + 4096,
            )
        )
        run_until(sim, lambda: qp_b.recv_cq.completions_total >= 1)
        assert qp_b.recv_cq.poll()[0].byte_len == 6
        assert b.nic.cache.read(buf_b.addr, 6) == b"AAAABB"

    def test_scatter_recv_splits_payload(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        buf_a.write(0, b"123456789")
        table = b.dev.sge_table_bytes(
            [(buf_b.addr, 3), (buf_b.addr + 1000, 4), (buf_b.addr + 2000, 10)]
        )
        buf_b.write(4096, table)
        qp_b.post_recv(Wqe(flags=FLAG_SGL, local_addr=buf_b.addr + 4096, length=3))
        qp_a.post_send(Wqe(opcode=Opcode.SEND, length=9, local_addr=buf_a.addr))
        run_until(sim, lambda: qp_b.recv_cq.completions_total >= 1)
        assert b.nic.cache.read(buf_b.addr, 3) == b"123"
        assert b.nic.cache.read(buf_b.addr + 1000, 4) == b"4567"
        assert b.nic.cache.read(buf_b.addr + 2000, 2) == b"89"


class TestLoopback:
    def test_loopback_write_copies_locally(self, rig):
        """Local RDMA (§4.2): the NIC copies memory on its own host
        through a loopback QP — the gMEMCPY building block."""
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        lqp = b.dev.create_qp(name="loop")
        lqp.connect_loopback()
        buf_b.write(0, b"log-record")
        lqp.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SIGNALED,
                length=10,
                local_addr=buf_b.addr,
                remote_addr=buf_b.addr + 4000,
                rkey=mr_b.rkey,
            )
        )
        run_until(sim, lambda: lqp.send_cq.completions_total >= 1)
        assert b.nic.cache.read(buf_b.addr + 4000, 10) == b"log-record"
        # No CPU task ever ran for this.
        assert b.os.busy_ns == 0

    def test_loopback_cas(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        lqp = b.dev.create_qp(name="loop")
        lqp.connect_loopback()
        buf_b.write(0, (10).to_bytes(8, "little"))
        lqp.post_send(
            Wqe(
                opcode=Opcode.CAS,
                flags=FLAG_SIGNALED,
                length=8,
                local_addr=buf_b.addr + 64,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
                compare=10,
                swap=20,
            )
        )
        run_until(sim, lambda: lqp.send_cq.completions_total >= 1)
        assert int.from_bytes(b.nic.cache.read(buf_b.addr, 8), "little") == 20


class TestRingManagement:
    def test_send_ring_overflow_raises(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        small = a.dev.create_qp(send_slots=4, recv_slots=4, name="small")
        small_b = b.dev.create_qp(name="smallb")
        small.connect(small_b)
        for _ in range(4):
            small.post_send(
                Wqe(opcode=Opcode.NOP, flags=0), defer_ownership=True
            )  # stalls queue, slots never free
        with pytest.raises(RuntimeError, match="overflow"):
            small.post_send(Wqe(opcode=Opcode.NOP))

    def test_doorbell_monotonicity(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        qp_a.hw.ring_send_doorbell(qp_a.hw.send_producer)
        with pytest.raises(ValueError):
            qp_a.hw.ring_send_doorbell(qp_a.hw.send_producer - 1)

    def test_nop_completes_without_wire_traffic(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_a, mr_b = rig
        before = a.nic.port.tx_messages
        qp_a.post_send(Wqe(opcode=Opcode.NOP, flags=FLAG_SIGNALED, wr_id=3))
        run_until(sim, lambda: qp_a.send_cq.completions_total >= 1)
        assert a.nic.port.tx_messages == before
        assert qp_a.send_cq.poll()[0].wr_id == 3


class TestSameTimestampArrivals:
    """Eight messages reach one QP in the same nanosecond while another
    QP of the NIC receives and sends: what runs when is decided by
    queue order alone. The expectation (``tests/pins.json``,
    ``nic.burst``) was recorded at the commit before the receive path
    became a stage pipeline; the pipeline must reproduce it record for
    record, and in the same number of kernel dispatches."""

    @staticmethod
    def _run():
        from repro.hw.nic import _WireMsg
        from repro.obs import tracing

        with tracing(record_kernel=False) as tracer:
            sim = Simulator(seed=1)
            cluster = Cluster(sim, n_hosts=2)
            a, b = cluster[0], cluster[1]
            qp_a1, qp_b1 = a.dev.create_qp(name="a1"), b.dev.create_qp(name="b1")
            qp_a2, qp_b2 = a.dev.create_qp(name="a2"), b.dev.create_qp(name="b2")
            qp_a1.connect(qp_b1)
            qp_a2.connect(qp_b2)
            buf_a = a.memory.alloc(8192, label="buf_a")
            buf_b = b.memory.alloc(8192, label="buf_b")
            mr_a = a.dev.reg_mr(buf_a, AccessFlags.ALL_REMOTE)
            mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
            buf_b.write(4096, b"from b!!")
            qp_b1.post_recv(Wqe(local_addr=buf_b.addr + 2048, length=64, wr_id=1))
            qp_b2.post_recv(Wqe(local_addr=buf_b.addr + 3072, length=64, wr_id=2))
            sim.run(until=5 * US)  # engines idle, QP contexts cold

            def msg(qp_src, qp_dst, kind, seq, **fields):
                return _WireMsg(kind, qp_src.hw.qpn, qp_dst.hw.qpn, seq, **fields)

            def remote(offset):
                return dict(addr=buf_b.addr + offset, rkey=mr_b.rkey)

            def one(kind, seq, **fields):
                return msg(qp_a1, qp_b1, kind, seq, **fields)

            def two(kind, seq, **fields):
                return msg(qp_a2, qp_b2, kind, seq, **fields)

            burst = [
                one("write", 0, payload=b"w0" * 4, **remote(0)),
                one("write", 1, payload=b"w1" * 4, **remote(8)),
                one("read", 2, length=0, **remote(0)),
                one("cas", 3, compare=0, swap=7, **remote(512)),
                two("write", 0, payload=b"x0" * 4, **remote(64)),
                two("send", 1, payload=b"two-sided"),
                one("write_imm", 4, payload=b"wi" * 4, imm=9, **remote(16)),
                one("read", 5, length=128, **remote(0)),
                one("write", 6, payload=b"w6" * 4, **remote(24)),
                one("send", 7, payload=b"parks: ring dry"),
                two("read", 2, length=64, **remote(0)),
                two("write", 3, payload=b"x3" * 4, **remote(72)),
            ]

            def arrive():
                for message in burst:
                    b.nic._on_wire("host0", message)
                # The second QP has work of its own to send meanwhile.
                qp_b2.post_send(
                    Wqe(opcode=Opcode.WRITE, flags=FLAG_SIGNALED, length=8,
                        local_addr=buf_b.addr + 4096, remote_addr=buf_a.addr,
                        rkey=mr_a.rkey, wr_id=77)
                )

            sim.call_at(10 * US, arrive)
            sim.call_at(
                15 * US, qp_b1.post_recv,
                Wqe(local_addr=buf_b.addr + 2560, length=64, wr_id=3),
            )
            sim.run(until=30 * US)
            records = [
                (r.ts, r.pid, r.tid, r.name, r.dur)
                for r in tracer.iter_records()
                if r.cat == "nic"
            ]
            state = {
                "dispatches": tracer.dispatches,
                "recv_cqes_b1": [
                    (c.wr_id, Opcode.NAMES[c.opcode], c.imm) for c in qp_b1.recv_cq.poll()
                ],
                "recv_cqes_b2": [
                    (c.wr_id, Opcode.NAMES[c.opcode], c.imm) for c in qp_b2.recv_cq.poll()
                ],
                "send_cqes_b2": [c.wr_id for c in qp_b2.send_cq.poll()],
                "landed": b.nic.cache.read(buf_b.addr, 32),
                "cas_word": b.nic.cache.read(buf_b.addr + 512, 8),
                "at_a": a.nic.cache.read(buf_a.addr, 8),
            }
        return records, state

    def test_interleaving_matches_the_recorded_one(self):
        assert_pinned("nic.burst", measure_burst())


def measure_burst():
    """The burst's end state, and its NIC records as (start ns, host,
    thread, span, duration ns) in the order emitted."""
    records, state = TestSameTimestampArrivals._run()
    return {"state": state, "records": records}


class TestSameTimestampFaultVerdicts:
    """Three hosts send to a fourth in lockstep through a fault filter,
    so every delivery instant carries three messages, and the filter
    drops, delays, corrupts and duplicates requests and replies among
    them. What runs when is decided by queue order alone. The run must
    match the one-pop reference loop dispatch for dispatch, and the
    recorded run (``tests/pins.json``, ``nic.fault-verdicts``): the
    same dispatch instants, the same NIC, fabric and fault records, the
    same end state."""

    # Verdicts by filter call: the twelve requests of the burst come
    # first (four per source, sources in order), replies after them.
    VERDICTS = {
        1: dict(drop=True),  # host0's 2nd WRITE: the rest is a gap, dropped and NAKed once
        5: dict(extra_delay_ns=8),  # host1's 2nd WRITE lands beside its READ
        7: dict(corrupt=True),  # host1's WRITE_IMM fails the ICRC check
        9: dict(duplicates=2),  # host2's WRITE arrives three times
        13: dict(duplicates=1),
        14: dict(extra_delay_ns=300),
        16: dict(drop=True),
        17: dict(corrupt=True),
    }

    @classmethod
    def _run(cls):
        import hashlib

        from repro.hw.network import FaultVerdict
        from repro.hw.nic import _WireMsg
        from repro.obs import tracing

        with tracing() as tracer:
            sim = Simulator(seed=1)
            cluster = Cluster(sim, n_hosts=4)
            dst = cluster[3]
            buf = dst.memory.alloc(8192, label="buf")
            mr = dst.dev.reg_mr(buf, AccessFlags.ALL_REMOTE)
            back = cluster[0].memory.alloc(64, label="back")
            back_mr = cluster[0].dev.reg_mr(back, AccessFlags.ALL_REMOTE)
            buf.write(4096, b"from d0!")
            pairs = []
            for index in range(3):
                src_qp = cluster[index].dev.create_qp(name=f"s{index}")
                dst_qp = dst.dev.create_qp(name=f"d{index}")
                src_qp.connect(dst_qp)
                dst_qp.post_recv(
                    Wqe(local_addr=buf.addr + 6144 + 64 * index, length=64, wr_id=index)
                )
                pairs.append((src_qp.hw.qpn, dst_qp))
            sim.run(until=5 * US)
            calls = []

            def filter_(src, to, msg, nbytes):
                calls.append((sim.now, src, to, msg.kind, msg.seq))
                verdict = cls.VERDICTS.get(len(calls) - 1)
                return FaultVerdict(**verdict) if verdict else None

            cluster.fabric.install_fault_filter(filter_)
            steps = [
                [("write", 8), ("write", 8), ("read", 0), ("send", 8)],
                [("write", 8), ("write", 8), ("read", 0), ("write_imm", 8)],
                [("cas", 8), ("write", 8), ("read", 0), ("send", 8)],
            ]

            def burst():
                for index, (src_qpn, dst_qp) in enumerate(pairs):
                    for seq, (kind, nbytes) in enumerate(steps[index]):
                        addr = buf.addr + 512 * index + 16 * seq
                        payload = b"%d%d" % (index, seq) * (nbytes // 2)
                        msg = _WireMsg(
                            kind, src_qpn, dst_qp.hw.qpn, seq, payload=payload,
                            addr=addr, rkey=mr.rkey, length=64 if kind == "read" else 0,
                            swap=7, imm=index if kind == "write_imm" else None,
                        )
                        cluster.fabric.send(f"host{index}", "host3", msg, nbytes)
                # The destination NIC has work of its own on the wire.
                pairs[0][1].post_send(
                    Wqe(opcode=Opcode.WRITE, flags=FLAG_SIGNALED, length=8,
                        local_addr=buf.addr + 4096, remote_addr=back.addr,
                        rkey=back_mr.rkey, wr_id=77)
                )

            sim.call_at(10 * US, burst)
            sim.run(until=40 * US)
            kernel = [(r.ts, r.name, r.tid) for r in tracer.iter_records() if r.cat == "kernel"]
            records = [
                (r.ts, r.cat, r.pid, r.tid, r.name, r.dur)
                for r in tracer.iter_records()
                if r.cat != "kernel"
            ]
            fabric = cluster.fabric
            state = {
                "dispatches": tracer.dispatches,
                "filter_calls": len(calls),
                "faults": (
                    fabric.dropped_messages, fabric.delayed_messages,
                    fabric.corrupted_messages, fabric.duplicated_messages,
                ),
                "rx_messages": [port.rx_messages for port in fabric.ports.values()],
                "counters": {
                    name: value for name, value in sorted(tracer.counters.items())
                    if name.startswith(("nic.rx_", "fault.", "fabric."))
                },
                "recv_cqes": [
                    [(c.wr_id, Opcode.NAMES[c.opcode], c.status, c.imm)
                     for c in qp.recv_cq.poll()]
                    for _, qp in pairs
                ],
                "send_cqes_d0": [(c.wr_id, c.status) for c in pairs[0][1].send_cq.poll()],
                "landed": hashlib.sha256(dst.nic.cache.read(buf.addr, 8192)).hexdigest()[:16],
                "at_host0": back.read(0, 8),
            }
        digest = hashlib.sha256(
            repr(([ts for ts, _, _ in kernel], records, calls)).encode()
        ).hexdigest()
        return kernel, records, calls, state, digest

    def test_matches_the_one_pop_reference(self, monkeypatch):
        from tests.reference.one_pop import run_one_pop

        batched = self._run()
        monkeypatch.setattr(Simulator, "run", run_one_pop)
        assert self._run() == batched

    def test_matches_the_recorded_run(self):
        assert_pinned("nic.fault-verdicts", measure_fault_verdicts())


def measure_fault_verdicts():
    """The burst's end state, and a digest of its dispatch instants,
    every non-kernel record and the filter's call log."""
    _, _, _, state, digest = TestSameTimestampFaultVerdicts._run()
    return {"state": state, "digest": digest}
