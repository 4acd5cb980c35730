"""Edge-case unit tests for the RNIC engines."""

import pytest

from repro.hw import AccessFlags, Cluster
from repro.hw.wqe import FLAG_SGL, FLAG_SIGNALED, FLAG_VALID, Opcode, Wqe
from repro.sim import MS, Simulator, US


def _rig():
    sim = Simulator(seed=19)
    cluster = Cluster(sim, n_hosts=2, n_cores=2)
    a, b = cluster[0], cluster[1]
    qp_a = a.dev.create_qp(name="a")
    qp_b = b.dev.create_qp(name="b")
    qp_a.connect(qp_b)
    buf_a = a.memory.alloc(8192)
    buf_b = b.memory.alloc(8192)
    mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
    return sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b


@pytest.fixture
def rig():
    return _rig()


class TestZeroLength:
    def test_zero_length_write_completes(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SIGNALED,
                length=0,
                local_addr=buf_a.addr,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
            )
        )
        sim.run(until=1 * MS)
        cqes = qp_a.send_cq.poll()
        assert len(cqes) == 1 and cqes[0].ok

    def test_zero_length_send_consumes_recv(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        qp_b.post_recv(Wqe(local_addr=buf_b.addr, length=64, wr_id=5))
        qp_a.post_send(Wqe(opcode=Opcode.SEND, length=0, local_addr=buf_a.addr))
        sim.run(until=1 * MS)
        cqes = qp_b.recv_cq.poll()
        assert len(cqes) == 1 and cqes[0].wr_id == 5 and cqes[0].byte_len == 0


class TestGatherWrite:
    def test_sgl_gather_on_write(self, rig):
        """WRITE can gather from an SGE table too (used by the tail's
        result-map ack)."""
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        buf_a.write(0, b"AA")
        buf_a.write(512, b"BBB")
        table = a.dev.sge_table_bytes([(buf_a.addr, 2), (buf_a.addr + 512, 3)])
        buf_a.write(4096, table)
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_SGL | FLAG_SIGNALED,
                length=2,
                local_addr=buf_a.addr + 4096,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
            )
        )
        sim.run(until=1 * MS)
        assert qp_a.send_cq.poll()[0].ok
        assert b.nic.cache.read(buf_b.addr, 5) == b"AABBB"


class TestOrderingAcrossOpcodes:
    def test_write_then_read_then_send_execute_in_order(self, rig):
        """RC in-order execution at the responder: the READ's flush
        covers the preceding WRITE; the SEND observes both."""
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        buf_a.write(0, b"ordered!")
        qp_b.post_recv(Wqe(local_addr=buf_b.addr + 4096, length=64))
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                length=8,
                local_addr=buf_a.addr,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
            )
        )
        qp_a.post_send(
            Wqe(
                opcode=Opcode.READ,
                length=0,
                local_addr=buf_a.addr + 100,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
            )
        )
        qp_a.post_send(
            Wqe(opcode=Opcode.SEND, flags=FLAG_SIGNALED, length=8, local_addr=buf_a.addr)
        )
        sim.run(until=1 * MS)
        # By the time the SEND completed, the WRITE must be durable
        # (the 0-byte READ between them flushed the cache).
        assert qp_a.send_cq.completions_total >= 1
        b.nic.cache.drop()
        assert buf_b.read(0, 8) == b"ordered!"


class TestCacheDrainScheduling:
    def test_single_drain_scheduled_for_burst(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        for index in range(10):
            qp_a.post_send(
                Wqe(
                    opcode=Opcode.WRITE,
                    length=8,
                    local_addr=buf_a.addr,
                    remote_addr=buf_b.addr + index * 8,
                    rkey=mr_b.rkey,
                )
            )
        sim.run(until=1 * MS)
        assert not b.nic.cache.dirty  # lazy drain happened
        assert buf_b.read(0, 8) == bytes(8)

    def test_unknown_qp_message_raises(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        from repro.hw.nic import _WireMsg

        with pytest.raises(RuntimeError, match="unknown QP"):
            b.nic._on_wire("a", _WireMsg("write", 1, 9999))


class TestHostWriteCoherence:
    def test_host_write_not_resurrected_by_cache(self, rig):
        """A CPU store over a region the NIC recently wrote must not
        be undone by later cache activity (driver reposting rings)."""
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        qp_a.post_send(
            Wqe(
                opcode=Opcode.WRITE,
                length=8,
                local_addr=buf_a.addr,
                remote_addr=buf_b.addr,
                rkey=mr_b.rkey,
            )
        )
        sim.run(until=10 * US)  # delivered, still in the volatile window
        b.nic.host_write(buf_b.addr, b"CPUWRITE")
        b.nic.cache.drop()  # power-failure-style revert of other entries
        assert buf_b.read(0, 8) == b"CPUWRITE"


def _write(qp_a, buf_a, buf_b, mr_b, index):
    buf_a.write(index * 8, b"msg%05d" % index)
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


def _step_until(sim, predicate, limit=1 * MS):
    while not predicate():
        assert sim.now < limit, "condition not reached"
        sim.run(until=sim.now + 1)


class TestFaultMidReceive:
    """What a fault does to the message the receive path is working on.

    The halt gate sits in front of the sequence check, once per
    message: a message already past it runs to completion — bytes land,
    the ack goes out — on a stalled and even on a crashed NIC. Recorded
    as it is, not as it should be (a crashed NIC answering is ROADMAP
    item 8's kind of hole)."""

    def _three_writes_first_one_in_rx_process(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        for index in range(3):
            _write(qp_a, buf_a, buf_b, mr_b, index)
        # The first message on a cold QP pays the context fetch, so the
        # other two arrive and queue while it is in rx_process.
        _step_until(sim, lambda: qp_b.hw._rx_next_seq == 1)
        assert sim.now == 2259
        sim.run(until=sim.now + 400)
        assert len(qp_b.hw.ingress) == 2

    @staticmethod
    def _landed(b, buf_b):
        return [b.nic.cache.read(buf_b.addr + i * 8, 8) != bytes(8) for i in range(3)]

    def test_stall_lets_it_finish_and_holds_the_rest(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        self._three_writes_first_one_in_rx_process(rig)
        b.nic.stall()
        sim.run(until=sim.now + 100 * US)
        assert self._landed(b, buf_b) == [True, False, False]
        assert [c.wr_id for c in qp_a.send_cq.poll()] == [0]
        # One message waits at the halt gate, one is still queued.
        assert qp_b.hw._rx_next_seq == 1 and len(qp_b.hw.ingress) == 1
        b.nic.resume()
        sim.run(until=sim.now + 100 * US)
        assert self._landed(b, buf_b) == [True, True, True]
        assert [c.wr_id for c in qp_a.send_cq.poll()] == [1, 2]

    def test_crash_lets_it_finish_and_drops_the_rest(self, rig):
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        self._three_writes_first_one_in_rx_process(rig)
        b.nic.crash()
        assert len(qp_b.hw.ingress) == 0
        sim.run(until=sim.now + 100 * US)
        # Executed after the crash, into the emptied cache, and acked.
        assert self._landed(b, buf_b) == [True, False, False]
        assert [c.wr_id for c in qp_a.send_cq.poll()] == [0]
        b.nic.restart()
        sim.run(until=sim.now + 100 * US)
        assert self._landed(b, buf_b) == [True, False, False]
        assert qp_b.hw._rx_next_seq == 1
        assert qp_a.send_cq.poll() == []


class TestDryRecvRing:
    def test_send_parks_on_the_recv_doorbell_and_keeps_the_queue_in_order(self, rig):
        """A SEND that finds no recv WQE holds the QP's receive path
        (head of line) until the recv doorbell rings; what queued
        behind it then runs in arrival order."""
        sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = rig
        buf_a.write(4096, b"two-sided")
        qp_a.post_send(
            Wqe(opcode=Opcode.SEND, flags=FLAG_SIGNALED, length=9,
                local_addr=buf_a.addr + 4096, wr_id=100)
        )
        _write(qp_a, buf_a, buf_b, mr_b, 1)
        qp_a.post_send(
            Wqe(opcode=Opcode.SEND, flags=FLAG_SIGNALED, length=9,
                local_addr=buf_a.addr + 4096, wr_id=102)
        )
        _write(qp_a, buf_a, buf_b, mr_b, 3)
        sim.run(until=200 * US)
        assert qp_b.recv_cq.completions_total == 0
        assert qp_a.send_cq.completions_total == 0
        assert len(qp_b.hw.ingress) == 3
        # One recv WQE: the first SEND and the WRITE behind it go, the
        # second SEND parks in turn.
        qp_b.post_recv(Wqe(local_addr=buf_b.addr + 1024, length=64, wr_id=7))
        sim.run(until=400 * US)
        assert [c.wr_id for c in qp_b.recv_cq.poll()] == [7]
        assert [c.wr_id for c in qp_a.send_cq.poll()] == [100, 1]
        assert b.nic.cache.read(buf_b.addr + 1024, 9) == b"two-sided"
        assert b.nic.cache.read(buf_b.addr + 24, 8) == bytes(8)
        qp_b.post_recv(Wqe(local_addr=buf_b.addr + 2048, length=64, wr_id=8))
        sim.run(until=600 * US)
        assert [c.wr_id for c in qp_b.recv_cq.poll()] == [8]
        assert [c.wr_id for c in qp_a.send_cq.poll()] == [102, 3]
        assert b.nic.cache.read(buf_b.addr + 24, 8) == b"msg00003"


class TestSequenceCheck:
    def test_future_sequence_is_dropped_unexecuted(self):
        """Go-back-N responder: a sequence number ahead of the expected
        one is a gap the requester will retransmit into — no execution,
        no reply, the expected number does not move. (The replayed half
        is ``test_faults.py::test_duplicate_after_ack_is_deduped``.)"""
        from dataclasses import replace

        from repro.obs import tracing

        captured, acks = [], []

        def tap(src, dst, payload, nbytes):
            kind = getattr(payload, "kind", None)
            if kind == "write":
                captured.append((src, dst, payload, nbytes))
            elif kind == "ack":
                acks.append(payload)
            return None

        with tracing(record_kernel=False) as tracer:
            sim, a, b, qp_a, qp_b, buf_a, buf_b, mr_b = _rig()
            a.nic.fabric.install_fault_filter(tap)
            _write(qp_a, buf_a, buf_b, mr_b, 0)
            sim.run(until=100 * US)
            assert len(captured) == 1 and len(acks) == 1
            src, dst, payload, nbytes = captured[0]
            future = replace(payload, seq=payload.seq + 3, payload=b"FUTURE!!")
            a.nic.fabric.send(src, dst, future, nbytes)
            sim.run(until=200 * US)
            assert b.nic.cache.read(buf_b.addr, 8) == b"msg00000"
            assert qp_b.hw._rx_next_seq == 1 and len(acks) == 1
            assert tracer.counters["nic.rx_out_of_order"] == 1
            # The stream goes on where it was.
            _write(qp_a, buf_a, buf_b, mr_b, 1)
            sim.run(until=300 * US)
            assert qp_b.hw._rx_next_seq == 2 and len(acks) == 2
