"""Work-queue element (WQE) and completion (CQE) formats.

A WQE is a **64-byte struct living in simulated host memory**. The
driver serializes work requests into a ring of these structs; the NIC
send engine re-reads the struct bytes *at execution time*. This is the
property HyperLoop's remote work-request manipulation rests on: a
remote RDMA WRITE that lands in the ring literally changes what the
NIC will execute, and the deferred VALID bit means a pre-posted WQE is
inert until the incoming metadata grants ownership to the NIC.

Layout (little-endian)::

    off  size  field
    0    1     opcode
    1    1     flags        (bit0 VALID, bit1 SIGNALED)
    2    2     (reserved)
    4    4     length
    8    8     local_addr
    16   8     remote_addr
    24   4     rkey
    28   4     lkey
    32   8     compare      (CAS) / wait threshold (WAIT) / imm (WRITE_IMM)
    40   8     swap         (CAS) / wait target CQN (WAIT)
    48   8     wr_id
    56   8     (reserved)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from ..obs.trace import TRACER

__all__ = [
    "Opcode",
    "WQE_SIZE",
    "FLAG_VALID",
    "FLAG_SIGNALED",
    "FLAG_SGL",
    "Wqe",
    "Cqe",
    "WC_SUCCESS",
    "WC_REMOTE_ACCESS_ERROR",
    "WC_REMOTE_OP_ERROR",
    "WC_RETRY_EXCEEDED",
    "decode_cached",
    "pack_wqe",
]

WQE_SIZE = 64

FLAG_VALID = 0x01
FLAG_SIGNALED = 0x02
FLAG_SGL = 0x04
"""Scatter/gather mode: ``local_addr`` points at a packed SGE table in
host memory and ``length`` is the number of entries (the NIC reads the
table at execution time, like inline SGE lists on real adapters)."""

# Completion statuses (subset of ibv_wc_status).
WC_SUCCESS = 0
WC_REMOTE_ACCESS_ERROR = 10
WC_REMOTE_OP_ERROR = 11
WC_RETRY_EXCEEDED = 12
"""Transport retry counter exhausted (IBV_WC_RETRY_EXC_ERR): the
responder never acknowledged despite retransmission — a partition that
outlasted the retry budget, or a crashed peer NIC."""


class Opcode:
    """WQE opcodes. Values are part of the in-memory format."""

    NOP = 0
    SEND = 1
    RECV = 2
    WRITE = 3
    READ = 4
    CAS = 5
    WAIT = 6
    WRITE_IMM = 7

    NAMES = {
        0: "NOP",
        1: "SEND",
        2: "RECV",
        3: "WRITE",
        4: "READ",
        5: "CAS",
        6: "WAIT",
        7: "WRITE_IMM",
    }


_STRUCT = struct.Struct("<BBHIQQIIQQQQ")
assert _STRUCT.size == WQE_SIZE


@dataclass(slots=True)
class Wqe:
    """A decoded work-queue element.

    Field meaning depends on ``opcode``:

    * SEND / WRITE / WRITE_IMM: ``local_addr``/``length`` is the
      gather source; WRITE* also use ``remote_addr``/``rkey``.
      WRITE_IMM carries ``compare`` as the 32-bit immediate.
    * READ: ``remote_addr``/``rkey`` is the remote source,
      ``local_addr`` the local destination; ``length`` may be zero
      (pure flush — §4.2 gFLUSH).
    * CAS: ``remote_addr`` is the 8-byte target, ``compare``/``swap``
      the operands, ``local_addr`` receives the original value.
    * RECV: ``local_addr``/``length`` is the scatter destination.
    * WAIT: block the queue until CQ number ``swap`` has seen at least
      ``compare`` completions in total (CORE-Direct semantics).
    * NOP: complete immediately (used by gCAS execute maps to skip a
      replica without breaking the chain's completion flow).
    """

    opcode: int = Opcode.NOP
    flags: int = FLAG_VALID
    length: int = 0
    local_addr: int = 0
    remote_addr: int = 0
    rkey: int = 0
    lkey: int = 0
    compare: int = 0
    swap: int = 0
    wr_id: int = 0

    @property
    def valid(self) -> bool:
        """Whether the NIC owns this WQE (may execute it)."""
        return bool(self.flags & FLAG_VALID)

    @property
    def signaled(self) -> bool:
        """Whether completion should generate a CQE."""
        return bool(self.flags & FLAG_SIGNALED)

    @property
    def wait_threshold(self) -> int:
        """WAIT: total completions required on the target CQ."""
        return self.compare

    @property
    def wait_cqn(self) -> int:
        """WAIT: target completion queue number."""
        return self.swap

    @property
    def imm(self) -> int:
        """WRITE_IMM: the 32-bit immediate value."""
        return self.compare & 0xFFFFFFFF

    def pack(self) -> bytes:
        """Serialize to the 64-byte in-memory format."""
        return pack_wqe(
            self.opcode,
            self.flags,
            self.length,
            self.local_addr,
            self.remote_addr,
            self.rkey,
            self.lkey,
            self.compare,
            self.swap,
            self.wr_id,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "Wqe":
        """Decode a 64-byte struct."""
        if len(data) != WQE_SIZE:
            raise ValueError(f"WQE must be {WQE_SIZE} bytes, got {len(data)}")
        (
            opcode,
            flags,
            _res0,
            length,
            local_addr,
            remote_addr,
            rkey,
            lkey,
            compare,
            swap,
            wr_id,
            _res1,
        ) = _STRUCT.unpack(data)
        return cls(
            opcode,
            flags,
            length,
            local_addr,
            remote_addr,
            rkey,
            lkey,
            compare,
            swap,
            wr_id,
        )

    def __repr__(self) -> str:
        name = Opcode.NAMES.get(self.opcode, f"op{self.opcode}")
        bits = "V" if self.valid else "-"
        bits += "S" if self.signaled else "-"
        return (
            f"<Wqe {name} [{bits}] len={self.length} "
            f"la={self.local_addr:#x} ra={self.remote_addr:#x} wr_id={self.wr_id}>"
        )


def pack_wqe(
    opcode: int,
    flags: int,
    length: int,
    local_addr: int,
    remote_addr: int,
    rkey: int,
    lkey: int,
    compare: int,
    swap: int,
    wr_id: int,
) -> bytes:
    """The 64-byte image of the WQE with these fields, in
    :class:`Wqe`'s field order: ``Wqe(*fields).pack()`` without the
    object, for drivers that build a descriptor per operation."""
    return _STRUCT.pack(
        opcode, flags, 0, length, local_addr, remote_addr, rkey, lkey, compare, swap, wr_id, 0
    )


# Decode cache, keyed on the raw 64-byte slot contents. The NIC send
# engine re-reads ring slots at execution time (that is the property
# HyperLoop exploits), but between remote patches the bytes are
# unchanged lap after lap — chained groups re-execute the same
# pre-posted descriptors thousands of times. Caching the decode turns
# those laps into one dict hit. Entries are shared: callers must treat
# a cached ``Wqe`` as immutable (the NIC execute path only reads).
#
# Nearly every miss is the first sighting of a slot's bytes (on
# gwrite_chain 33,193 misses for 33,077 distinct contents in 73,503
# reads), because a round's descriptors carry their wr_id. A key
# without wr_id would lift the ceiling from 0.55 to 0.70 there, but
# every read would then extract its own wr_id, and in Python a decode
# costs one object, not a field: about 0.5% of a gWRITE's host time,
# for carrying wr_id beside every decoded descriptor. The key stays
# whole.
_DECODE_CACHE: dict = {}
_DECODE_CACHE_MAX = 4096


def decode_cached(raw: bytes) -> Wqe:
    """Decode a 64-byte WQE, reusing a shared instance for repeated bytes.

    ``raw`` is the slot as one ``bytes`` read from memory and is the
    key as is. The returned object is cached and shared across calls
    with identical contents — **read-only** by contract. Driver-side
    code that constructs and mutates WQEs before posting must keep
    using :meth:`Wqe.unpack`.
    """
    wqe = _DECODE_CACHE.get(raw)
    if TRACER.enabled:
        TRACER.count("nic.wqe_decode_hits" if wqe is not None else "nic.wqe_decode_misses")
    if wqe is None:
        if len(_DECODE_CACHE) >= _DECODE_CACHE_MAX:
            # Rings hold a few hundred distinct descriptors per run;
            # blowing past the cap means churn, so reset wholesale
            # rather than track LRU order on the hot path.
            _DECODE_CACHE.clear()
        wqe = Wqe.unpack(raw)
        _DECODE_CACHE[raw] = wqe
    return wqe


# Field byte offsets, used by HyperLoop's metadata construction to
# patch exactly the descriptor fields of a pre-posted WQE.
OFF_OPCODE = 0
OFF_FLAGS = 1
OFF_LENGTH = 4
OFF_LOCAL_ADDR = 8
OFF_REMOTE_ADDR = 16
OFF_COMPARE = 32
OFF_SWAP = 40


@dataclass(slots=True)
class Cqe:
    """A completion-queue entry."""

    wr_id: int
    opcode: int
    status: int = WC_SUCCESS
    qpn: int = 0
    byte_len: int = 0
    imm: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == WC_SUCCESS

    def __repr__(self) -> str:
        name = Opcode.NAMES.get(self.opcode, f"op{self.opcode}")
        state = "ok" if self.ok else f"err{self.status}"
        return f"<Cqe {name} wr_id={self.wr_id} {state} len={self.byte_len}>"
