"""One HyperLoop chain: the pre-posted WQE program for a primitive.

A :class:`Chain` owns, for one primitive (gWRITE, gMEMCPY or gCAS) over
one replication group, everything §4 describes:

* per-replica QPs — to the previous node, to the next node, and (for
  gMEMCPY/gCAS) a loopback QP for local RDMA;
* per-round pre-posted programs: a RECV on the previous-node QP whose
  SGL scatter lands the incoming metadata blob in a staging area *and
  on the pre-posted op WQE itself* (remote work-request manipulation,
  Figure 5); a WAIT + op (+ 0-byte READ for durability) + forwarding
  SEND on the downstream QPs (Figure 4);
* the metadata blob format the client builds per operation.

Blob layout for group size ``g`` (one blob per round)::

    [ result map: g * 8 bytes ][ patches: g * 64-byte WQE images ]

The wire payload to replica ``r`` is ``blob ++ patches[r]`` — the
duplicated trailing patch is what the RECV scatters onto ``r``'s own
op slot; the blob body is staged and forwarded down the chain by a
*static* gather SEND (its SGE table points at the staging slot plus
the next replica's patch inside it, so nothing about forwarding needs
patching). The tail replica acks the client with a WRITE_WITH_IMM
carrying the result map.

Everything a replica executes per operation is done by its NIC; the
replica CPU only refills consumed rounds, off the critical path (see
:class:`repro.core.group.HyperLoopGroup`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..hw.host import Host
from ..hw.nic import AccessFlags
from ..obs.trace import TRACER
from ..hw.wqe import (
    FLAG_SGL,
    FLAG_SIGNALED,
    FLAG_VALID,
    Opcode,
    Wqe,
    WQE_SIZE,
)
from ..rdma.verbs import Mr, QueuePair

__all__ = ["Chain", "OpSpec", "GWRITE", "GMEMCPY", "GCAS", "SKIP_SENTINEL"]

GWRITE = "gwrite"
GMEMCPY = "gmemcpy"
GCAS = "gcas"

SKIP_SENTINEL = 0xFFFF_FFFF_FFFF_FFFF
"""Result-map value meaning "this replica did not execute" (gCAS
execute-map skip)."""

_SGE_ENTRY = 12  # packed (u64 addr, u32 len)
_U64 = struct.Struct("<Q")


@dataclass
class OpSpec:
    """Client-side description of one group operation."""

    kind: str
    offset: int = 0
    size: int = 0
    src_offset: int = 0
    dst_offset: int = 0
    compare: int = 0
    swap: int = 0
    execute_map: Optional[Sequence[bool]] = None


@dataclass
class _ReplicaState:
    """Everything one replica contributes to a chain."""

    host: Host
    index: int
    qp_prev: QueuePair = None
    qp_next: QueuePair = None
    qp_loop: Optional[QueuePair] = None
    staging_mr: Mr = None
    scatter_tables: int = 0  # base address of R recv-scatter SGE tables
    gather_tables: int = 0  # base address of R send-gather SGE tables
    scratch_addr: int = 0  # 64B sink for patches no WQE needs
    posted_rounds: int = 0
    templates: Optional[list] = None  # packed round per ring (Chain._templates)


class Chain:
    """The pre-posted NIC program for one primitive on one group."""

    def __init__(
        self,
        group,
        primitive: str,
        durable: bool,
        rounds: int,
    ):
        if primitive not in (GWRITE, GMEMCPY, GCAS):
            raise ValueError(f"unknown primitive {primitive!r}")
        self.group = group
        self.primitive = primitive
        self.durable = durable
        self.rounds = rounds
        self.g = len(group.replicas)
        self.result_size = self.g * 8
        self.blob_size = self.result_size + self.g * WQE_SIZE
        self.payload_size = self.blob_size + WQE_SIZE
        self.next_round = 0  # next round index the client will use
        # Validation state for Available-Copies reads: when this chain
        # was built (virtual time) and when its newest round was acked.
        # A chain with ``last_ack_ns`` set has completed a full
        # replica-spanning round since construction — every member has
        # been written since the chain (re)formed.
        self.born_ns = group.client.sim.now
        self.last_ack_ns: Optional[int] = None
        self.replicas: List[_ReplicaState] = []
        # Client-side resources (filled by _setup_client).
        self.client_qp: QueuePair = None
        self.ack_qp: QueuePair = None
        self.client_staging: Mr = None
        self.ack_region: Mr = None
        self._ack_recv_template: Optional[Wqe] = None
        self._setup()

    # -- layout ----------------------------------------------------------------

    @property
    def uses_loopback(self) -> bool:
        return self.primitive in (GMEMCPY, GCAS)

    @property
    def spr_next(self) -> int:
        """Send-ring slots per round on the next-node QP."""
        if self.primitive == GWRITE:
            # WAIT, forward-WRITE, [flush READ], SEND
            return 4 if self.durable else 3
        # WAIT, SEND
        return 2

    @property
    def spr_tail(self) -> int:
        """Send-ring slots per round on the tail's ack QP."""
        return 2  # WAIT, WRITE_IMM

    @property
    def spr_loop(self) -> int:
        """Send-ring slots per round on the loopback QP."""
        if not self.uses_loopback:
            return 0
        # WAIT, local op, [flush READ]
        return 3 if (self.primitive == GMEMCPY and self.durable) else 2

    def patch_offset(self, replica: int) -> int:
        """Offset of ``replica``'s patch inside a blob."""
        return self.result_size + replica * WQE_SIZE

    def staging_slot_addr(self, state: _ReplicaState, round_: int) -> int:
        return state.staging_mr.addr + (round_ % self.rounds) * self.payload_size

    def op_slot_index(self, replica: int, round_: int) -> int:
        """Absolute send-ring index of the patchable op WQE."""
        spr = self.spr_loop if self.uses_loopback else self._next_spr(replica)
        return round_ * spr + 1  # slot 0 of each round is the WAIT

    def op_slot_addr(self, replica: int, round_: int) -> int:
        state = self.replicas[replica]
        qp = state.qp_loop if self.uses_loopback else state.qp_next
        return qp.send_slot_addr(self.op_slot_index(replica, round_))

    def _next_spr(self, replica: int) -> int:
        return self.spr_tail if replica == self.g - 1 else self.spr_next

    def _is_tail(self, replica: int) -> bool:
        return replica == self.g - 1

    # -- setup -----------------------------------------------------------------

    def _setup(self) -> None:
        name = f"{self.group.name}.{self.primitive}"
        for index, host in enumerate(self.group.replicas):
            self.replicas.append(self._setup_replica(host, index, name))
        for state in self.replicas:
            self._write_static_tables(state)
        self._setup_client(name)
        self._connect(name)
        for index in range(self.g):
            for round_ in range(self.rounds):
                self.post_replica_round(index, round_)
            self.replicas[index].posted_rounds = self.rounds
        for round_ in range(self.rounds):
            self.post_ack_recv()

    def _setup_replica(self, host: Host, index: int, name: str) -> _ReplicaState:
        state = _ReplicaState(host=host, index=index)
        dev = host.dev
        label = f"{name}.r{index}"
        state.qp_prev = dev.create_qp(
            send_slots=8, recv_slots=self.rounds, name=f"{label}.prev"
        )
        next_spr = self._next_spr(index)
        state.qp_next = dev.create_qp(
            send_slots=self.rounds * next_spr, recv_slots=8, name=f"{label}.next"
        )
        dev.expose_send_ring(state.qp_next)
        if self.uses_loopback:
            state.qp_loop = dev.create_qp(
                send_slots=self.rounds * self.spr_loop,
                recv_slots=8,
                name=f"{label}.loop",
            )
            dev.expose_send_ring(state.qp_loop)
            state.qp_loop.connect_loopback()
        staging = host.memory.alloc(
            self.rounds * self.payload_size, label=f"{label}.staging"
        )
        state.staging_mr = dev.reg_mr(staging, AccessFlags.REMOTE_WRITE)
        tables = host.memory.alloc(
            self.rounds * 2 * 2 * _SGE_ENTRY + 64, label=f"{label}.tables"
        )
        state.scatter_tables = tables.addr
        state.gather_tables = tables.addr + self.rounds * 2 * _SGE_ENTRY
        state.scratch_addr = tables.end - 64
        return state

    def _write_static_tables(self, state: _ReplicaState) -> None:
        """Fill the per-ring-position SGE tables (all static)."""
        nic = state.host.nic
        for position in range(self.rounds):
            staging = self.staging_slot_addr(state, position)
            # RECV scatter: blob into staging, trailing patch onto the
            # op WQE slot (or scratch where no op exists).
            if self.primitive == GWRITE and self._is_tail(state.index):
                patch_target = state.scratch_addr
            else:
                patch_target = self.op_slot_addr(state.index, position)
            scatter = struct.pack(
                "<QIQI", staging, self.blob_size, patch_target, WQE_SIZE
            )
            nic.host_write(
                state.scatter_tables + position * 2 * _SGE_ENTRY, scatter
            )
            # SEND gather: forward the blob plus the *next* replica's
            # patch (both inside the staging slot). The tail instead
            # gathers only the result map for the client ack.
            if self._is_tail(state.index):
                gather = struct.pack("<QI", staging, self.result_size)
                gather += bytes(_SGE_ENTRY)
            else:
                next_patch = staging + self.patch_offset(state.index + 1)
                gather = struct.pack(
                    "<QIQI", staging, self.blob_size, next_patch, WQE_SIZE
                )
            nic.host_write(state.gather_tables + position * 2 * _SGE_ENTRY, gather)

    def _setup_client(self, name: str) -> None:
        client = self.group.client
        self.client_qp = client.dev.create_qp(
            send_slots=self.rounds * 4, recv_slots=8, name=f"{name}.client"
        )
        self.ack_qp = client.dev.create_qp(
            send_slots=8, recv_slots=self.rounds, name=f"{name}.ack"
        )
        staging = client.memory.alloc(
            self.rounds * self.payload_size, label=f"{name}.cstaging"
        )
        self.client_staging = client.dev.reg_mr(staging)
        acks = client.memory.alloc(
            self.rounds * self.result_size, label=f"{name}.acks"
        )
        self.ack_region = client.dev.reg_mr(acks, AccessFlags.REMOTE_WRITE)

    def _connect(self, name: str) -> None:
        self.client_qp.connect(self.replicas[0].qp_prev)
        for index in range(self.g - 1):
            self.replicas[index].qp_next.connect(self.replicas[index + 1].qp_prev)
        self.replicas[-1].qp_next.connect(self.ack_qp)

    # -- replica-side round posting (driver level; caller charges CPU) -----------

    def post_replica_round(self, replica: int, round_: int) -> int:
        """(Re-)post the full per-round program on one replica.

        Returns the number of WQEs posted, so CPU-cost accounting can
        charge the maintenance task accurately.

        The program is the same 64-byte images every round but for a
        few 8-byte fields that move linearly with the round number
        (``wr_id``) or the ring position (table and ack addresses, the
        immediate): each ring's run is packed once (:meth:`_templates`)
        and a round is that image with those fields patched, one write
        per ring.
        """
        state = self.replicas[replica]
        if state.templates is None:
            state.templates = self._templates(replica)
        position = round_ % self.rounds
        posted = 0
        for qp, count, image, patches in state.templates:
            raw = bytearray(image)
            for offset, base, per_position, per_round in patches:
                _U64.pack_into(
                    raw, offset, base + position * per_position + round_ * per_round
                )
            if qp is state.qp_prev:
                qp.post_recv_packed(raw)
            else:
                qp.post_send_packed(raw, count)
            posted += count
        return posted

    def _templates(self, replica: int):
        """Per ring of ``replica``'s round: ``(qp, WQE count, packed
        image at round 0, [(byte offset, base, per position, per
        round)])`` — the fields that differ between rounds, found by
        packing the program at three (round, position) points."""

        def packed(round_, position):
            return [
                (qp, len(wqes), b"".join(wqe.pack() for wqe in wqes))
                for qp, wqes in self._round_program(replica, round_, position)
            ]

        next_round, next_position = packed(1, 0), packed(0, 1)
        templates = []
        for ring, (qp, count, image) in enumerate(packed(0, 0)):
            patches = []
            for offset in range(0, len(image), 8):
                (base,) = _U64.unpack_from(image, offset)
                per_round = _U64.unpack_from(next_round[ring][2], offset)[0] - base
                per_position = _U64.unpack_from(next_position[ring][2], offset)[0] - base
                if per_round or per_position:
                    patches.append((offset, base, per_position, per_round))
            templates.append((qp, count, image, patches))
        return templates

    def _round_program(self, replica: int, round_: int, position: int):
        """The WQEs of one round on one replica, ring by ring, in
        posting order: ``[(qp, [wqe, ...]), ...]``."""
        state = self.replicas[replica]
        tables = position * 2 * _SGE_ENTRY
        # 1. RECV on the previous-node QP with the SGL scatter.
        program = [
            (
                state.qp_prev,
                [
                    Wqe(
                        opcode=Opcode.RECV,
                        flags=FLAG_VALID | FLAG_SGL,
                        local_addr=state.scatter_tables + tables,
                        length=2,
                        wr_id=round_,
                    )
                ],
            )
        ]
        # 2. Loopback program (gMEMCPY / gCAS).
        if self.uses_loopback:
            loop_wqes = [
                Wqe(
                    opcode=Opcode.WAIT,
                    flags=FLAG_VALID,
                    compare=1,  # consume one recv completion
                    swap=state.qp_prev.recv_cq.cqn,
                ),
                Wqe(opcode=Opcode.NOP, flags=0, wr_id=round_),  # patched later
            ]
            if self.primitive == GMEMCPY and self.durable:
                region = self.group.replica_mrs[replica]
                loop_wqes.append(
                    Wqe(
                        opcode=Opcode.READ,
                        flags=FLAG_VALID | FLAG_SIGNALED,
                        length=0,
                        local_addr=state.scratch_addr,
                        remote_addr=region.addr,
                        rkey=region.rkey,
                        wr_id=round_,
                    )
                )
            program.append((state.qp_loop, loop_wqes))
        # 3. Downstream program on the next-node QP.
        watched_cq = (
            state.qp_loop.send_cq if self.uses_loopback else state.qp_prev.recv_cq
        )
        next_wqes: List[Wqe] = [
            Wqe(
                opcode=Opcode.WAIT,
                flags=FLAG_VALID,
                compare=1,  # consume one completion
                swap=watched_cq.cqn,
            )
        ]
        if self._is_tail(replica):
            next_wqes.append(
                Wqe(
                    opcode=Opcode.WRITE_IMM,
                    flags=FLAG_VALID | FLAG_SGL,
                    length=1,
                    local_addr=state.gather_tables + tables,
                    remote_addr=self.ack_region.addr + position * self.result_size,
                    rkey=self.ack_region.rkey,
                    compare=position,  # imm: ring position (lap-invariant)
                    wr_id=round_,
                )
            )
        else:
            if self.primitive == GWRITE:
                next_wqes.append(Wqe(opcode=Opcode.NOP, flags=0, wr_id=round_))
                if self.durable:
                    next_region = self.group.replica_mrs[replica + 1]
                    next_wqes.append(
                        Wqe(
                            opcode=Opcode.READ,
                            flags=FLAG_VALID,
                            length=0,
                            local_addr=state.scratch_addr,
                            remote_addr=next_region.addr,
                            rkey=next_region.rkey,
                            wr_id=round_,
                        )
                    )
            next_wqes.append(
                Wqe(
                    opcode=Opcode.SEND,
                    flags=FLAG_VALID | FLAG_SGL,
                    length=2,
                    local_addr=state.gather_tables + tables,
                    wr_id=round_,
                )
            )
        program.append((state.qp_next, next_wqes))
        return program

    def retired_rounds(self, replica: int) -> int:
        """Rounds whose ring slots the NIC has fully consumed on every
        ring this replica posts to — the safe refill horizon."""
        state = self.replicas[replica]
        retired = state.qp_prev.hw.recv_consumer
        retired = min(retired, state.qp_next.hw.send_consumer // self._next_spr(replica))
        if state.qp_loop is not None:
            retired = min(retired, state.qp_loop.hw.send_consumer // self.spr_loop)
        return retired

    def advance_lap(self, replica: int, rounds: int) -> None:
        """Re-arm ``rounds`` consumed rounds on a replica's rings.

        The per-round WQE programs are lap-invariant (consuming WAITs,
        per-position addresses, client-patched descriptors), so this
        is doorbell writes only — the near-zero replica CPU cost the
        paper claims for sustained operation.
        """
        state = self.replicas[replica]
        state.qp_prev.advance_recv_producer(rounds)
        state.qp_next.advance_send_producer(rounds * self._next_spr(replica))
        if state.qp_loop is not None:
            state.qp_loop.advance_send_producer(rounds * self.spr_loop)
        state.posted_rounds += rounds

    def post_ack_recv(self) -> None:
        """Post one client-side RECV for a tail WRITE_IMM ack."""
        self.ack_qp.post_recv(Wqe(local_addr=0, length=0))

    # -- client-side per-operation construction ------------------------------------

    def build_patch(self, replica: int, round_: int, op: OpSpec) -> bytes:
        """The 64-byte WQE image the client writes onto a replica's op
        slot for this operation."""
        state = self.replicas[replica]
        region = self.group.replica_mrs[replica]
        if op.kind == GWRITE:
            if self._is_tail(replica):
                return bytes(WQE_SIZE)  # tail has no forward op
            next_region = self.group.replica_mrs[replica + 1]
            return Wqe(
                opcode=Opcode.WRITE,
                flags=FLAG_VALID,
                length=op.size,
                local_addr=region.addr + op.offset,
                remote_addr=next_region.addr + op.offset,
                rkey=next_region.rkey,
                wr_id=round_,
            ).pack()
        if op.kind == GMEMCPY:
            flags = FLAG_VALID | (0 if self.durable else FLAG_SIGNALED)
            return Wqe(
                opcode=Opcode.WRITE,
                flags=flags,
                length=op.size,
                local_addr=region.addr + op.src_offset,
                remote_addr=region.addr + op.dst_offset,
                rkey=region.rkey,
                wr_id=round_,
            ).pack()
        if op.kind == GCAS:
            execute = op.execute_map[replica] if op.execute_map else True
            result_slot = self.staging_slot_addr(state, round_) + replica * 8
            return Wqe(
                opcode=Opcode.CAS if execute else Opcode.NOP,
                flags=FLAG_VALID | FLAG_SIGNALED,
                length=8,
                local_addr=result_slot,
                remote_addr=region.addr + op.offset,
                rkey=region.rkey,
                compare=op.compare,
                swap=op.swap,
                wr_id=round_,
            ).pack()
        raise ValueError(f"bad op kind {op.kind!r}")

    def build_payload(self, round_: int, op: OpSpec) -> bytes:
        """The full wire payload for the head replica:
        ``result map ++ all patches ++ head patch`` (Figure 5)."""
        result_map = struct.pack("<Q", SKIP_SENTINEL) * self.g
        patches = b"".join(
            self.build_patch(replica, round_, op) for replica in range(self.g)
        )
        blob = result_map + patches
        return blob + blob[self.patch_offset(0) : self.patch_offset(0) + WQE_SIZE]

    def client_post(self, op: OpSpec) -> int:
        """Build and post one operation. Returns its round number.

        Pure driver work — the calling task is responsible for
        charging CPU (see :meth:`client_post_cost`).
        """
        round_ = self.next_round
        self.next_round += 1
        position = round_ % self.rounds
        payload = self.build_payload(round_, op)
        staging_addr = self.client_staging.addr + position * self.payload_size
        self.group.client.nic.host_write(staging_addr, payload)
        wqes: List[Wqe] = []
        head = self.group.replica_mrs[0]
        if op.kind == GWRITE and op.size > 0:
            wqes.append(
                Wqe(
                    opcode=Opcode.WRITE,
                    flags=FLAG_VALID,
                    length=op.size,
                    local_addr=self.group.client_region.addr + op.offset,
                    remote_addr=head.addr + op.offset,
                    rkey=head.rkey,
                    wr_id=round_,
                )
            )
        if op.kind == GWRITE and self.durable:
            wqes.append(
                Wqe(
                    opcode=Opcode.READ,
                    flags=FLAG_VALID,
                    length=0,
                    local_addr=staging_addr,
                    remote_addr=head.addr,
                    rkey=head.rkey,
                    wr_id=round_,
                )
            )
        wqes.append(
            Wqe(
                opcode=Opcode.SEND,
                flags=FLAG_VALID,
                length=len(payload),
                local_addr=staging_addr,
                wr_id=round_,
            )
        )
        self.client_qp.post_send_batch(wqes)
        if TRACER.enabled:
            TRACER.record(
                self.group.sim.now,
                "i",
                "group",
                f"chain.post.{self.primitive}",
                pid=f"group:{self.group.name}",
                tid=f"chain/{self.primitive}",
                args={"round": round_, "wqes": len(wqes)},
            )
        return round_

    def client_post_cost(self, op: OpSpec) -> int:
        """CPU ns the client should charge for one :meth:`client_post`."""
        wqes = 1 + (2 if op.kind == GWRITE and self.durable else 1)
        build = 300 + self.payload_size // 8
        return wqes * 200 + build

    def parse_result_map(self, round_: int) -> List[Optional[int]]:
        """Read a completed round's result map from the ack region."""
        self.last_ack_ns = self.group.client.sim.now
        position = round_ % self.rounds
        raw = self.group.client.nic.cache.read(
            self.ack_region.addr + position * self.result_size, self.result_size
        )
        out: List[Optional[int]] = []
        for replica in range(self.g):
            (value,) = struct.unpack_from("<Q", raw, replica * 8)
            out.append(None if value == SKIP_SENTINEL else value)
        return out

    def __repr__(self) -> str:
        return (
            f"<Chain {self.primitive} g={self.g} durable={self.durable} "
            f"round={self.next_round}>"
        )
