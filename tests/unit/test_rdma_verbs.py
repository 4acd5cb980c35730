"""Unit tests for the verbs layer (repro.rdma.verbs)."""

import pytest

from repro.hw import AccessFlags, Cluster
from repro.hw.wqe import FLAG_SIGNALED, FLAG_VALID, Opcode, Wqe, WQE_SIZE
from repro.sim import MS, Simulator


@pytest.fixture
def rig():
    sim = Simulator(seed=2)
    cluster = Cluster(sim, n_hosts=2, n_cores=2)
    return sim, cluster[0], cluster[1]


class TestRegistration:
    def test_reg_mr_returns_keys(self, rig):
        sim, a, b = rig
        region = a.memory.alloc(256)
        mr = a.dev.reg_mr(region, AccessFlags.ALL_REMOTE)
        assert mr.rkey == mr.lkey
        assert mr.addr == region.addr and mr.length == 256

    def test_deregister_revokes_access(self, rig):
        sim, a, b = rig
        region = b.memory.alloc(64)
        mr = b.dev.reg_mr(region, AccessFlags.ALL_REMOTE)
        assert b.nic.check_remote(mr.rkey, region.addr, 8, AccessFlags.REMOTE_READ)
        mr.deregister()
        assert not b.nic.check_remote(mr.rkey, region.addr, 8, AccessFlags.REMOTE_READ)


class TestQueuePair:
    def test_slot_addresses_wrap(self, rig):
        sim, a, b = rig
        qp = a.dev.create_qp(send_slots=8, recv_slots=8, name="q")
        assert qp.send_slot_addr(0) == qp.send_ring.addr
        assert qp.send_slot_addr(8) == qp.send_ring.addr
        assert qp.send_slot_addr(9) == qp.send_ring.addr + WQE_SIZE

    def test_post_serializes_into_ring_memory(self, rig):
        sim, a, b = rig
        qp = a.dev.create_qp(name="q")
        wqe = Wqe(opcode=Opcode.WRITE, length=123, local_addr=0xAA, wr_id=9)
        slot = qp.post_send(wqe)
        raw = a.memory.read(qp.send_slot_addr(slot), WQE_SIZE)
        decoded = Wqe.unpack(raw)
        assert decoded.length == 123 and decoded.wr_id == 9
        assert decoded.valid  # stock post grants ownership

    def test_backlog_tracking(self, rig):
        sim, a, b = rig
        qp_a = a.dev.create_qp(name="a")
        qp_b = b.dev.create_qp(name="b")
        qp_a.connect(qp_b)
        buf = a.memory.alloc(64)
        qp_a.post_send(Wqe(opcode=Opcode.SEND, length=4, local_addr=buf.addr))
        assert qp_a.send_backlog == 1
        sim.run(until=1 * MS)
        assert qp_a.send_backlog == 0

    def test_advance_send_producer_rearms_consumed_slots(self, rig):
        """The lap-advance mechanism: re-arm already-written WQEs with
        one doorbell, no re-serialization."""
        sim, a, b = rig
        qp_a = a.dev.create_qp(send_slots=4, name="a")
        qp_b = b.dev.create_qp(name="b")
        qp_a.connect(qp_b)
        buf_a = a.memory.alloc(64)
        buf_b = b.memory.alloc(64)
        mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
        buf_a.write(0, b"lap!")
        for _ in range(4):
            qp_a.post_send(
                Wqe(
                    opcode=Opcode.WRITE,
                    flags=FLAG_SIGNALED,
                    length=4,
                    local_addr=buf_a.addr,
                    remote_addr=buf_b.addr,
                    rkey=mr_b.rkey,
                )
            )
        sim.run(until=1 * MS)
        assert qp_a.send_cq.completions_total == 4
        # Second lap: same four WQEs, re-armed by doorbell alone.
        qp_a.advance_send_producer(4)
        sim.run(until=2 * MS)
        assert qp_a.send_cq.completions_total == 8

    def test_packed_run_wraps_the_ring_like_a_batch(self, rig):
        """A packed run that crosses the ring's end lands in the same
        slots, with the same one doorbell, as the same WQEs posted as a
        batch."""
        sim, a, b = rig
        qps = [a.dev.create_qp(send_slots=4, name=f"q{i}") for i in range(2)]
        wqes = [Wqe(opcode=Opcode.NOP, wr_id=index) for index in range(3)]
        for qp in qps:
            qp.advance_send_producer(3)  # an empty lap: the next run starts at slot 3
            qp.hw.send_consumer = 3
        qps[0].post_send_batch(wqes)
        qps[1].post_send_packed(b"".join(w.pack() for w in wqes), len(wqes))
        rings = [a.memory.read(qp.send_ring.addr, 4 * WQE_SIZE) for qp in qps]
        assert rings[0] == rings[1]
        assert [Wqe.unpack(rings[1][i * 64 : i * 64 + 64]).wr_id for i in (3, 0, 1)] == [0, 1, 2]
        assert [qp.hw.send_producer for qp in qps] == [6, 6]
        with pytest.raises(RuntimeError, match="overflow"):
            qps[1].post_send_packed(bytes(2 * WQE_SIZE), 2)

    def test_advance_beyond_capacity_rejected(self, rig):
        sim, a, b = rig
        qp = a.dev.create_qp(send_slots=4, name="q")
        with pytest.raises(RuntimeError, match="overflow"):
            qp.advance_send_producer(5)
        with pytest.raises(ValueError):
            qp.advance_send_producer(-1)

    def test_post_cost_scales(self, rig):
        sim, a, b = rig
        qp = a.dev.create_qp(name="q")
        assert qp.post_cost(3) == 3 * qp.post_cost(1)
