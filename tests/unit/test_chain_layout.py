"""Unit tests for HyperLoop chain layout and blob construction."""

import pytest

from repro.core import HyperLoopGroup, OpSpec, SKIP_SENTINEL
from repro.core.chain import GCAS, GMEMCPY, GWRITE
from repro.hw import Cluster
from repro.hw.wqe import Opcode, WQE_SIZE, Wqe
from repro.sim import Simulator


@pytest.fixture
def group():
    sim = Simulator(seed=41)
    cluster = Cluster(sim, n_hosts=4, n_cores=2)
    return HyperLoopGroup(
        cluster[0], cluster.hosts[1:4], region_size=1 << 16, rounds=8,
        autostart=False, name="lg",
    )


class TestLayout:
    def test_blob_sizes(self, group):
        chain = group.chains[GWRITE]
        assert chain.result_size == 3 * 8
        assert chain.blob_size == 3 * 8 + 3 * WQE_SIZE
        assert chain.payload_size == chain.blob_size + WQE_SIZE

    def test_slots_per_round(self, group):
        # durable gwrite: WAIT + WRITE + flush READ + SEND
        assert group.chains[GWRITE].spr_next == 4
        # gmemcpy/gcas downstream: WAIT + SEND
        assert group.chains[GMEMCPY].spr_next == 2
        # durable gmemcpy loopback: WAIT + copy + flush READ
        assert group.chains[GMEMCPY].spr_loop == 3
        # gcas loopback: WAIT + CAS
        assert group.chains[GCAS].spr_loop == 2

    def test_loopback_only_where_needed(self, group):
        assert not group.chains[GWRITE].uses_loopback
        assert group.chains[GMEMCPY].uses_loopback
        assert group.chains[GCAS].uses_loopback

    def test_op_slot_addresses_fall_in_the_right_ring(self, group):
        chain = group.chains[GWRITE]
        for replica in range(2):  # non-tail replicas
            for round_ in range(20):
                addr = chain.op_slot_addr(replica, round_)
                ring = chain.replicas[replica].qp_next.send_ring
                assert ring.addr <= addr < ring.addr + ring.length
        cas_chain = group.chains[GCAS]
        for replica in range(3):
            addr = cas_chain.op_slot_addr(replica, 5)
            ring = cas_chain.replicas[replica].qp_loop.send_ring
            assert ring.addr <= addr < ring.addr + ring.length

    def test_op_slots_wrap_with_ring(self, group):
        chain = group.chains[GWRITE]
        assert chain.op_slot_addr(0, 0) == chain.op_slot_addr(0, chain.rounds)

    def test_staging_slots_are_disjoint_per_round(self, group):
        chain = group.chains[GWRITE]
        state = chain.replicas[0]
        addresses = {
            chain.staging_slot_addr(state, round_) for round_ in range(chain.rounds)
        }
        assert len(addresses) == chain.rounds


class TestBlobConstruction:
    def test_gwrite_patch_targets_next_replica(self, group):
        chain = group.chains[GWRITE]
        patch = Wqe.unpack(chain.build_patch(0, 0, OpSpec(GWRITE, offset=100, size=50)))
        assert patch.opcode == Opcode.WRITE
        assert patch.valid
        assert patch.length == 50
        assert patch.local_addr == group.replica_mrs[0].addr + 100
        assert patch.remote_addr == group.replica_mrs[1].addr + 100
        assert patch.rkey == group.replica_mrs[1].rkey

    def test_gwrite_tail_patch_is_blank(self, group):
        chain = group.chains[GWRITE]
        assert chain.build_patch(2, 0, OpSpec(GWRITE, offset=0, size=8)) == bytes(WQE_SIZE)

    def test_gmemcpy_patch_is_local_loopback_write(self, group):
        chain = group.chains[GMEMCPY]
        patch = Wqe.unpack(
            chain.build_patch(1, 0, OpSpec(GMEMCPY, src_offset=0, dst_offset=4096, size=64))
        )
        assert patch.opcode == Opcode.WRITE
        assert patch.local_addr == group.replica_mrs[1].addr
        assert patch.remote_addr == group.replica_mrs[1].addr + 4096
        assert patch.rkey == group.replica_mrs[1].rkey

    def test_gcas_patch_execute_map(self, group):
        chain = group.chains[GCAS]
        spec = OpSpec(GCAS, offset=8, compare=1, swap=2, execute_map=[True, False, True])
        executed = Wqe.unpack(chain.build_patch(0, 0, spec))
        skipped = Wqe.unpack(chain.build_patch(1, 0, spec))
        assert executed.opcode == Opcode.CAS
        assert executed.compare == 1 and executed.swap == 2
        assert skipped.opcode == Opcode.NOP
        assert skipped.signaled  # a NOP must still advance the WAIT

    def test_gcas_result_lands_in_staging(self, group):
        chain = group.chains[GCAS]
        patch = Wqe.unpack(chain.build_patch(1, 3, OpSpec(GCAS, offset=0, compare=0, swap=1)))
        state = chain.replicas[1]
        expected = chain.staging_slot_addr(state, 3) + 1 * 8
        assert patch.local_addr == expected

    def test_payload_is_blob_plus_head_patch(self, group):
        chain = group.chains[GWRITE]
        spec = OpSpec(GWRITE, offset=0, size=16)
        payload = chain.build_payload(0, spec)
        assert len(payload) == chain.payload_size
        # Result map initialized to the skip sentinel.
        sentinel = SKIP_SENTINEL.to_bytes(8, "little")
        assert payload[: chain.result_size] == sentinel * 3
        # Trailing patch equals replica 0's patch.
        head_patch = chain.build_patch(0, 0, spec)
        assert payload[-WQE_SIZE:] == head_patch

    def test_retired_rounds_starts_at_zero(self, group):
        chain = group.chains[GWRITE]
        for replica in range(3):
            assert chain.retired_rounds(replica) == 0


def _post_round_field_by_field(chain, replica, round_):
    """The per-field way to post a round — one ``Wqe`` built, packed and
    written per slot — kept here as the reference for the packed
    template ``Chain.post_replica_round`` writes instead."""
    from repro.core.chain import _SGE_ENTRY
    from repro.hw.wqe import FLAG_SGL, FLAG_SIGNALED, FLAG_VALID

    state = chain.replicas[replica]
    tail = replica == chain.g - 1
    position = round_ % chain.rounds
    tables = position * 2 * _SGE_ENTRY
    state.qp_prev.post_recv(
        Wqe(flags=FLAG_SGL, local_addr=state.scatter_tables + tables, length=2, wr_id=round_)
    )
    posted = 1
    if chain.uses_loopback:
        loop = [
            Wqe(opcode=Opcode.WAIT, flags=FLAG_VALID, compare=1, swap=state.qp_prev.recv_cq.cqn),
            Wqe(opcode=Opcode.NOP, flags=0, wr_id=round_),
        ]
        if chain.primitive == GMEMCPY and chain.durable:
            region = chain.group.replica_mrs[replica]
            loop.append(
                Wqe(opcode=Opcode.READ, flags=FLAG_VALID | FLAG_SIGNALED, length=0,
                    local_addr=state.scratch_addr, remote_addr=region.addr,
                    rkey=region.rkey, wr_id=round_)
            )
        state.qp_loop.post_send_batch(loop, defer_ownership=True)
        posted += len(loop)
    watched = state.qp_loop.send_cq if chain.uses_loopback else state.qp_prev.recv_cq
    down = [Wqe(opcode=Opcode.WAIT, flags=FLAG_VALID, compare=1, swap=watched.cqn)]
    if tail:
        down.append(
            Wqe(opcode=Opcode.WRITE_IMM, flags=FLAG_VALID | FLAG_SGL, length=1,
                local_addr=state.gather_tables + tables,
                remote_addr=chain.ack_region.addr + position * chain.result_size,
                rkey=chain.ack_region.rkey, compare=position, wr_id=round_)
        )
    else:
        if chain.primitive == GWRITE:
            down.append(Wqe(opcode=Opcode.NOP, flags=0, wr_id=round_))
            if chain.durable:
                region = chain.group.replica_mrs[replica + 1]
                down.append(
                    Wqe(opcode=Opcode.READ, flags=FLAG_VALID, length=0,
                        local_addr=state.scratch_addr, remote_addr=region.addr,
                        rkey=region.rkey, wr_id=round_)
                )
        down.append(
            Wqe(opcode=Opcode.SEND, flags=FLAG_VALID | FLAG_SGL, length=2,
                local_addr=state.gather_tables + tables, wr_id=round_)
        )
    state.qp_next.post_send_batch(down, defer_ownership=True)
    return posted + len(down)


class TestPackedRounds:
    @staticmethod
    def _build(durable, rounds=8):
        sim = Simulator(seed=41)
        cluster = Cluster(sim, n_hosts=4, n_cores=2)
        return HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 16, rounds=rounds,
            durable=durable, autostart=False, name="lg",
        )

    @staticmethod
    def _image(group):
        """Every byte a replica's round program lives in, plus the
        driver-side posting state."""
        image = {}
        for kind, chain in group.chains.items():
            for state in chain.replicas:
                qps = [q for q in (state.qp_prev, state.qp_next, state.qp_loop) if q]
                image[kind, state.index] = (
                    [qp.send_ring.read(0, qp.send_ring.length) for qp in qps],
                    [qp.recv_ring.read(0, qp.recv_ring.length) for qp in qps],
                    state.host.memory.read(
                        state.scatter_tables, state.scratch_addr + 64 - state.scatter_tables
                    ),
                    state.staging_mr.region.read(0, state.staging_mr.region.length),
                    [(qp.send_posted, qp.recv_posted, qp.hw.send_producer, qp.hw.recv_producer)
                     for qp in qps],
                    state.posted_rounds,
                )
        return image

    @pytest.mark.parametrize("durable", [False, True])
    def test_every_round_is_byte_identical_to_the_per_field_path(self, durable, monkeypatch):
        """Every chain kind x replica position (head, middle, tail) x
        ``durable``: rings, SGE tables, staging and producer indices
        after setup are what posting each WQE field by field leaves."""
        from repro.core.chain import Chain

        packed = self._image(self._build(durable))
        monkeypatch.setattr(Chain, "post_replica_round", _post_round_field_by_field)
        reference = self._image(self._build(durable))
        assert set(packed) == {(k, i) for k in (GWRITE, GMEMCPY, GCAS) for i in range(3)}
        for key in reference:
            assert packed[key] == reference[key], key

    def test_a_later_lap_patches_the_same_fields(self):
        """Round numbers past the first lap (``wr_id`` keeps counting,
        positions repeat) — posted over retired slots on both paths."""
        from repro.core.chain import Chain

        def relap(group):
            for chain in group.chains.values():
                for state in chain.replicas:
                    for qp in (state.qp_prev, state.qp_next, state.qp_loop):
                        if qp:  # pretend the NIC consumed the first lap
                            qp.hw.send_consumer = qp.send_posted
                            qp.hw.recv_consumer = qp.recv_posted
                    for round_ in range(chain.rounds, chain.rounds + 5):
                        chain.post_replica_round(state.index, round_)
            return self._image(group)

        packed = relap(self._build(True))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Chain, "post_replica_round", _post_round_field_by_field)
            reference = relap(self._build(True))
        assert packed == reference
