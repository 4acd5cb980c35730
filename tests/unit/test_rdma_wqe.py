"""Unit tests for the WQE/CQE formats (repro.hw.wqe)."""

import pytest

from repro.hw.wqe import (
    Cqe,
    FLAG_SGL,
    FLAG_SIGNALED,
    FLAG_VALID,
    OFF_FLAGS,
    OFF_LENGTH,
    OFF_LOCAL_ADDR,
    OFF_OPCODE,
    OFF_REMOTE_ADDR,
    Opcode,
    WC_SUCCESS,
    WQE_SIZE,
    Wqe,
)


class TestPackUnpack:
    def test_roundtrip_all_fields(self):
        wqe = Wqe(
            opcode=Opcode.WRITE,
            flags=FLAG_VALID | FLAG_SIGNALED,
            length=4096,
            local_addr=0xDEAD_BEEF,
            remote_addr=0xCAFE_BABE,
            rkey=0x1234,
            lkey=0x5678,
            compare=0x1111_2222_3333_4444,
            swap=0x5555_6666_7777_8888,
            wr_id=99,
        )
        assert Wqe.unpack(wqe.pack()) == wqe

    def test_packed_size(self):
        assert len(Wqe().pack()) == WQE_SIZE == 64

    def test_unpack_wrong_size_raises(self):
        with pytest.raises(ValueError):
            Wqe.unpack(b"\x00" * 63)

    def test_default_wqe_is_valid_nop(self):
        wqe = Wqe()
        assert wqe.opcode == Opcode.NOP
        assert wqe.valid
        assert not wqe.signaled

    def test_flag_properties(self):
        assert not Wqe(flags=0).valid
        assert Wqe(flags=FLAG_SIGNALED).signaled
        assert Wqe(flags=FLAG_SGL).flags & FLAG_SGL

    def test_wait_field_aliases(self):
        wqe = Wqe(opcode=Opcode.WAIT, compare=17, swap=3)
        assert wqe.wait_threshold == 17
        assert wqe.wait_cqn == 3

    def test_imm_is_32_bits(self):
        wqe = Wqe(opcode=Opcode.WRITE_IMM, compare=0x1_0000_0005)
        assert wqe.imm == 5


class TestFieldOffsets:
    """The byte offsets are the contract HyperLoop patches against."""

    def test_opcode_offset(self):
        packed = bytearray(Wqe(opcode=Opcode.CAS).pack())
        assert packed[OFF_OPCODE] == Opcode.CAS
        packed[OFF_OPCODE] = Opcode.NOP
        assert Wqe.unpack(bytes(packed)).opcode == Opcode.NOP

    def test_flags_offset_grants_ownership(self):
        packed = bytearray(Wqe(flags=0).pack())
        assert not Wqe.unpack(bytes(packed)).valid
        packed[OFF_FLAGS] |= FLAG_VALID
        assert Wqe.unpack(bytes(packed)).valid

    def test_length_offset(self):
        packed = bytearray(Wqe(length=1).pack())
        packed[OFF_LENGTH : OFF_LENGTH + 4] = (8192).to_bytes(4, "little")
        assert Wqe.unpack(bytes(packed)).length == 8192

    def test_addr_offsets(self):
        packed = bytearray(Wqe().pack())
        packed[OFF_LOCAL_ADDR : OFF_LOCAL_ADDR + 8] = (0xAB).to_bytes(8, "little")
        packed[OFF_REMOTE_ADDR : OFF_REMOTE_ADDR + 8] = (0xCD).to_bytes(8, "little")
        decoded = Wqe.unpack(bytes(packed))
        assert decoded.local_addr == 0xAB
        assert decoded.remote_addr == 0xCD


class TestCqe:
    def test_ok_property(self):
        assert Cqe(wr_id=1, opcode=Opcode.SEND).ok
        assert not Cqe(wr_id=1, opcode=Opcode.SEND, status=10).ok

    def test_repr_mentions_opcode(self):
        assert "SEND" in repr(Cqe(wr_id=1, opcode=Opcode.SEND))
