"""NIC-offloaded fan-out replication — the §7 extension.

The paper sketches how HyperLoop's techniques generalize beyond chain
replication: "if a storage application has to rely on a fan-out
replication (a single primary coordinates with multiple backups) such
as in FaRM, HyperLoop can be used to help the client offload the
coordination between the primary and backups from the primary's CPU
to the primary's NIC." This module implements that sketch for gWRITE.

Per pre-posted round, the primary's NIC runs (no primary CPU):

1. ``RECV`` on the client QP — scatters the client's per-backup WQE
   patches directly onto the pre-posted fan-out WRITE slots;
2. a loopback *trigger* queue — ``WAIT(recv, 1)`` then ``g-1``
   signaled NOPs, turning one receive completion into one completion
   per backup queue (a completion fan-out, needed because consuming
   WAITs absorb their trigger);
3. per-backup QPs (sharing one send CQ) — ``WAIT(trigger, 1)`` then
   the patched WRITE (+ 0-byte flush READ when durable);
4. an ack queue — ``WAIT(shared backup CQ, g-1)`` then WRITE_WITH_IMM
   to the client.

Everything is lap-invariant, so primary maintenance is doorbell laps,
exactly like the chain. The ablation benchmark compares this topology
against the chain: latency is comparable, but the primary's NIC
carries (g-1)× the egress — the §7 load-balancing argument for
chains, reproduced among NIC-offloaded designs.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence

from ..hw.host import Host
from ..hw.nic import AccessFlags
from ..hw.wqe import FLAG_SGL, FLAG_SIGNALED, FLAG_VALID, Opcode, Wqe, WQE_SIZE
from ..rdma.verbs import QueuePair
from ..sim import US
from .base import GroupBase, RingRefill
from .chain import GWRITE, OpSpec

__all__ = ["HyperFanoutGroup"]

_SGE_ENTRY = 12


class HyperFanoutGroup(GroupBase):
    """Fan-out gWRITE offloaded to the primary's NIC (§7).

    The shell is :class:`~repro.core.base.GroupBase`'s, ``client_mode``
    included (acks are reaped by :mod:`repro.core.acks`); the group runs
    gWRITE (and gFLUSH) only. Replica 0 is the primary, the rest are
    backups it coordinates.
    """

    primitives = (GWRITE,)

    def __init__(
        self,
        client: Host,
        replicas: Sequence[Host],
        region_size: int = 1 << 20,
        rounds: int = 256,
        durable: bool = True,
        nvm: bool = True,
        client_mode: str = "event",
        maintenance_interval: int = 200 * US,
        client_core: Optional[int] = None,
        name: str = "hfan",
        autostart: bool = True,
    ):
        if len(replicas) < 2:
            raise ValueError("fan-out needs a primary and at least one backup")
        super().__init__(
            client, replicas, region_size, rounds, durable, nvm, name, client_mode, client_core
        )
        self.maintenance_interval = maintenance_interval
        self.n_backups = self.g - 1
        self.payload_size = self.n_backups * WQE_SIZE
        self.next_round = 0
        self._setup()
        self._one_ack_path(lambda round_: round_, lap=rounds)
        if autostart:
            self.start()

    # -- layout -------------------------------------------------------------------

    @property
    def spr_backup(self) -> int:
        # WAIT, WRITE, [flush READ]
        return 3 if self.durable else 2

    @property
    def spr_trigger(self) -> int:
        # WAIT + one NOP per backup
        return 1 + self.n_backups

    def _write_slot_addr(self, backup: int, position: int) -> int:
        qp = self.backup_qps[backup]
        return qp.send_slot_addr(position * self.spr_backup + 1)

    # -- setup --------------------------------------------------------------------

    def _setup(self) -> None:
        primary = self.replicas[0]
        rounds = self.rounds
        # Client -> primary data/metadata path.
        self.client_qp = self.client.dev.create_qp(
            send_slots=rounds * 4, recv_slots=8, name=f"{self.name}.c"
        )
        self.primary_qp = primary.dev.create_qp(
            send_slots=8, recv_slots=rounds, name=f"{self.name}.p"
        )
        self.client_qp.connect(self.primary_qp)
        # Completion fan-out trigger (loopback NOP queue).
        self.trigger_qp = primary.dev.create_qp(
            send_slots=rounds * self.spr_trigger, recv_slots=8, name=f"{self.name}.trig"
        )
        self.trigger_qp.connect_loopback()
        # Per-backup QPs, all completing into one shared CQ.
        shared_cq = primary.dev.create_cq(name=f"{self.name}.shared")
        self.backup_qps: List[QueuePair] = []
        for index in range(1, self.g):
            qp = primary.dev.create_qp(
                send_cq=shared_cq,
                send_slots=rounds * self.spr_backup,
                recv_slots=8,
                name=f"{self.name}.b{index}",
            )
            primary.dev.expose_send_ring(qp)
            remote = self.replicas[index].dev.create_qp(
                send_slots=8, recv_slots=8, name=f"{self.name}.b{index}r"
            )
            qp.connect(remote)
            self.backup_qps.append(qp)
        self.shared_cq = shared_cq
        # Ack path primary -> client.
        self.ack_qp = self.client.dev.create_qp(
            send_slots=8, recv_slots=rounds, name=f"{self.name}.ack"
        )
        self.primary_ack_qp = primary.dev.create_qp(
            send_slots=rounds * 2, recv_slots=8, name=f"{self.name}.pack"
        )
        self.primary_ack_qp.connect(self.ack_qp)
        ack_region = self.client.memory.alloc(rounds * 8, label=f"{self.name}.acks")
        self.ack_region = self.client.dev.reg_mr(ack_region, AccessFlags.REMOTE_WRITE)
        # Client staging + primary scatter tables.
        self.client_staging = self.client.memory.alloc(
            rounds * self.payload_size, label=f"{self.name}.cstage"
        )
        tables = primary.memory.alloc(
            rounds * self.n_backups * _SGE_ENTRY, label=f"{self.name}.tables"
        )
        self._scatter_tables = tables.addr
        for position in range(rounds):
            entries = b"".join(
                struct.pack("<QI", self._write_slot_addr(backup, position), WQE_SIZE)
                for backup in range(self.n_backups)
            )
            primary.nic.host_write(
                tables.addr + position * self.n_backups * _SGE_ENTRY, entries
            )
        scratch = primary.memory.alloc(64, label=f"{self.name}.scratch")
        self._scratch_addr = scratch.addr
        # Pre-post all rounds.
        for position in range(rounds):
            self._post_round(position)
        self.posted_rounds = rounds
        for _ in range(rounds):
            self.ack_qp.post_recv(Wqe(local_addr=0, length=0))

    def _post_round(self, round_: int) -> None:
        position = round_ % self.rounds
        # 1. RECV scattering the patches onto the fan-out WRITE slots.
        self.primary_qp.post_recv(
            Wqe(
                flags=FLAG_SGL,
                local_addr=self._scatter_tables + position * self.n_backups * _SGE_ENTRY,
                length=self.n_backups,
                wr_id=round_,
            )
        )
        # 2. Trigger queue: one recv completion -> n_backups CQEs.
        trigger_wqes = [
            Wqe(
                opcode=Opcode.WAIT,
                flags=FLAG_VALID,
                compare=1,
                swap=self.primary_qp.recv_cq.cqn,
            )
        ]
        trigger_wqes.extend(
            Wqe(opcode=Opcode.NOP, flags=FLAG_VALID | FLAG_SIGNALED, wr_id=round_)
            for _ in range(self.n_backups)
        )
        self.trigger_qp.post_send_batch(trigger_wqes, defer_ownership=True)
        # 3. Per-backup: WAIT on the trigger, patched WRITE, flush.
        for backup, qp in enumerate(self.backup_qps):
            wqes = [
                Wqe(
                    opcode=Opcode.WAIT,
                    flags=FLAG_VALID,
                    compare=1,
                    swap=self.trigger_qp.send_cq.cqn,
                ),
                Wqe(opcode=Opcode.NOP, flags=0, wr_id=round_),  # patched
            ]
            if self.durable:
                mr = self.replica_mrs[backup + 1]
                wqes.append(
                    Wqe(
                        opcode=Opcode.READ,
                        flags=FLAG_VALID | FLAG_SIGNALED,
                        length=0,
                        local_addr=self._scratch_addr,
                        remote_addr=mr.addr,
                        rkey=mr.rkey,
                        wr_id=round_,
                    )
                )
            qp.post_send_batch(wqes, defer_ownership=True)
        # 4. Ack once every backup's (flushed) WRITE completed.
        self.primary_ack_qp.post_send_batch(
            [
                Wqe(
                    opcode=Opcode.WAIT,
                    flags=FLAG_VALID,
                    compare=self.n_backups,
                    swap=self.shared_cq.cqn,
                ),
                Wqe(
                    opcode=Opcode.WRITE_IMM,
                    flags=FLAG_VALID,
                    length=0,
                    local_addr=self._scratch_addr,
                    remote_addr=self.ack_region.addr + position * 8,
                    rkey=self.ack_region.rkey,
                    compare=position,  # imm
                    wr_id=round_,
                ),
            ],
            defer_ownership=True,
        )

    # -- the data path: the primary NIC's fan-out ---------------------------------------

    def _post_cost(self, op: OpSpec) -> int:
        return 700 + self.payload_size // 8

    def _post(self, op: OpSpec) -> int:
        offset, size = op.offset, op.size
        round_ = self.next_round
        self.next_round += 1
        position = round_ % self.rounds
        payload = b"".join(
            self._build_patch(backup, round_, offset, size)
            for backup in range(self.n_backups)
        )
        staging = self.client_staging.addr + position * self.payload_size
        self.client.nic.host_write(staging, payload)
        primary_mr = self.replica_mrs[0]
        wqes = []
        if size > 0:
            wqes.append(
                Wqe(
                    opcode=Opcode.WRITE,
                    flags=FLAG_VALID,
                    length=size,
                    local_addr=self.client_region.addr + offset,
                    remote_addr=primary_mr.addr + offset,
                    rkey=primary_mr.rkey,
                    wr_id=round_,
                )
            )
        if self.durable:
            wqes.append(
                Wqe(
                    opcode=Opcode.READ,
                    flags=FLAG_VALID,
                    length=0,
                    local_addr=staging,
                    remote_addr=primary_mr.addr,
                    rkey=primary_mr.rkey,
                    wr_id=round_,
                )
            )
        wqes.append(
            Wqe(
                opcode=Opcode.SEND,
                flags=FLAG_VALID,
                length=self.payload_size,
                local_addr=staging,
                wr_id=round_,
            )
        )
        self.client_qp.post_send_batch(wqes)
        return round_

    def _build_patch(self, backup: int, round_: int, offset: int, size: int) -> bytes:
        primary_mr = self.replica_mrs[0]
        backup_mr = self.replica_mrs[backup + 1]
        flags = FLAG_VALID | (0 if self.durable else FLAG_SIGNALED)
        return Wqe(
            opcode=Opcode.WRITE,
            flags=flags,
            length=size,
            local_addr=primary_mr.addr + offset,
            remote_addr=backup_mr.addr + offset,
            rkey=backup_mr.rkey,
            wr_id=round_,
        ).pack()

    # -- primary maintenance ----------------------------------------

    def lap(self, replica: int):
        """The primary's ``(posted, retired, recv CQ counting rounds)``."""
        retired = self.primary_qp.hw.recv_consumer
        retired = min(retired, self.trigger_qp.hw.send_consumer // self.spr_trigger)
        for qp in self.backup_qps:
            retired = min(retired, qp.hw.send_consumer // self.spr_backup)
        retired = min(retired, self.primary_ack_qp.hw.send_consumer // 2)
        return self.posted_rounds, retired, self.primary_qp.recv_cq

    def advance_lap(self, replica: int, rounds: int) -> None:
        self.primary_qp.advance_recv_producer(rounds)
        self.trigger_qp.advance_send_producer(rounds * self.spr_trigger)
        for qp in self.backup_qps:
            qp.advance_send_producer(rounds * self.spr_backup)
        self.primary_ack_qp.advance_send_producer(rounds * 2)
        self.posted_rounds += rounds

    def replica_cqs(self, replica: int):
        return [self.primary_qp.recv_cq, self.primary_qp.send_cq, self.trigger_qp.send_cq,
                self.shared_cq, self.primary_ack_qp.send_cq]

    def error_label(self, replica: int) -> str:
        return "primary"

    def _rings(self, replica: int):
        return (self,)

    def _spawn(self):
        refill = RingRefill(self, 0)
        yield self.replicas[0].os.spawn(refill.body, name=f"{self.name}.maint")
