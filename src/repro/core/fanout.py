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
from typing import Dict, Generator, List, Optional, Sequence

from ..hw.cpu import Task
from ..hw.host import Host
from ..hw.nic import AccessFlags
from ..hw.wqe import FLAG_SGL, FLAG_SIGNALED, FLAG_VALID, Opcode, Wqe, WQE_SIZE
from ..rdma.reader import RemoteReader
from ..rdma.verbs import Mr, QueuePair
from ..sim import Event, Resource, US

__all__ = ["HyperFanoutGroup"]

_SGE_ENTRY = 12


class HyperFanoutGroup:
    """Fan-out gWRITE offloaded to the primary's NIC (§7).

    API mirrors the gwrite surface of
    :class:`~repro.core.group.HyperLoopGroup`; replica 0 is the
    primary, the rest are backups it coordinates.
    """

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
        self.client = client
        self.replicas = list(replicas)
        self.region_size = region_size
        self.rounds = rounds
        self.durable = durable
        self.name = name
        self.client_mode = client_mode
        self.maintenance_interval = maintenance_interval
        self.client_core = client_core
        self.g = len(self.replicas)
        self.n_backups = self.g - 1
        self.payload_size = self.n_backups * WQE_SIZE
        self.next_round = 0
        self.errors: List[str] = []
        self.client_region = client.memory.alloc(region_size, label=f"{name}.client")
        self.replica_mrs: List[Mr] = []
        for index, host in enumerate(self.replicas):
            region = host.memory.alloc(region_size, nvm=nvm, label=f"{name}.r{index}")
            self.replica_mrs.append(host.dev.reg_mr(region, AccessFlags.ALL_REMOTE))
        self._reader = RemoteReader(client, self.replicas, self.replica_mrs, name)
        self._setup()
        self._flow = Resource(client.sim, capacity=max(rounds // 2, 1))
        self._waiters: Dict[int, Event] = {}
        self._tasks: List[Task] = []
        self._started = False
        if autostart:
            self.start()

    @property
    def sim(self):
        return self.client.sim

    @property
    def group_size(self) -> int:
        return self.g

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

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._tasks.append(
            self.client.os.spawn(
                self._ack_body(), name=f"{self.name}.acks", pinned_core=self.client_core
            )
        )
        self._tasks.append(
            self.replicas[0].os.spawn(self._maintenance_body(), name=f"{self.name}.maint")
        )

    # -- operations -------------------------------------------------------------------

    def write_local(self, offset: int, data: bytes) -> None:
        self.client_region.write(offset, data)

    def read_replica(self, replica: int, offset: int, size: int) -> bytes:
        mr = self.replica_mrs[replica]
        return self.replicas[replica].nic.cache.read(mr.addr + offset, size)

    def pread(self, task: Task, replica: int, offset: int, size: int) -> Generator:
        """One-sided RDMA READ from a replica (no replica CPU)."""
        data = yield from self._reader.pread(task, replica, offset, size)
        return data

    def post_reads(self, task: Task, replica: int, extents) -> Generator:
        """Post one-sided READs of several ``(offset, size)`` extents as
        one batch; returns the :class:`~repro.rdma.reader.PostedReads`
        whose ``wait`` yields their bytes in order. Post and wait are
        separate so a caller can have reads in flight on several groups
        at once; :meth:`pread` is one extent, posted and waited for."""
        posted = yield from self._reader.post(task, replica, extents)
        return posted

    def gwrite(self, task: Task, offset: int, size: int) -> Generator:
        """Replicate via the primary NIC's fan-out; returns the round."""
        if offset < 0 or size < 0 or offset + size > self.region_size:
            raise ValueError(f"[{offset}, {offset + size}) outside region")
        yield from task.wait(self._flow.acquire())
        try:
            yield from task.compute(700 + self.payload_size // 8)
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
            ack = self.sim.event(name=f"{self.name}.op{round_}")
            self._waiters[round_] = ack
            result = yield from task.wait(ack)
        finally:
            self._flow.release()
        return result

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

    # -- client ack handling + primary maintenance ----------------------------------------

    def _ack_body(self):
        def body(task: Task) -> Generator:
            expected = 0
            cq = self.ack_qp.recv_cq
            while True:
                if self.client_mode == "polling":
                    yield from task.poll_wait(cq.next_event())
                else:
                    yield from task.wait(cq.next_event())
                cqes = cq.poll(64)
                if cqes:
                    yield from task.compute(300 * len(cqes))
                for cqe in cqes:
                    if not cqe.ok:
                        self.errors.append(f"ack error: {cqe!r}")
                        continue
                    round_ = expected
                    expected += 1
                    if cqe.imm != round_ % self.rounds:
                        self.errors.append(
                            f"imm {cqe.imm} != position {round_ % self.rounds}"
                        )
                    self.ack_qp.post_recv(Wqe(local_addr=0, length=0))
                    waiter = self._waiters.pop(round_, None)
                    if waiter is not None:
                        waiter.succeed(round_)

        return body

    def _retired_rounds(self) -> int:
        retired = self.primary_qp.hw.recv_consumer
        retired = min(retired, self.trigger_qp.hw.send_consumer // self.spr_trigger)
        for qp in self.backup_qps:
            retired = min(retired, qp.hw.send_consumer // self.spr_backup)
        retired = min(retired, self.primary_ack_qp.hw.send_consumer // 2)
        return retired

    def _maintenance_body(self):
        def body(task: Task) -> Generator:
            while True:
                yield from task.sleep(self.maintenance_interval)
                yield from task.compute(500)
                half_lap = max(self.rounds // 2, 1)
                while self._retired_rounds() >= self.posted_rounds - self.rounds + half_lap:
                    self.primary_qp.advance_recv_producer(half_lap)
                    self.trigger_qp.advance_send_producer(half_lap * self.spr_trigger)
                    for qp in self.backup_qps:
                        qp.advance_send_producer(half_lap * self.spr_backup)
                    self.primary_ack_qp.advance_send_producer(half_lap * 2)
                    self.posted_rounds += half_lap
                    yield from task.compute(300)
                for cq in self._primary_cqs():
                    for cqe in cq.poll(1 << 16):
                        if not cqe.ok:
                            self.errors.append(f"primary: {cqe!r}")

        return body

    def _primary_cqs(self):
        cqs = [
            self.primary_qp.recv_cq,
            self.primary_qp.send_cq,
            self.trigger_qp.send_cq,
            self.shared_cq,
            self.primary_ack_qp.send_cq,
        ]
        return cqs

    def replica_cpu_ns(self) -> int:
        """CPU consumed on replica hosts (primary maintenance only)."""
        return sum(
            task.cpu_ns for task in self._tasks if task.os is not self.client.os
        )

    def __repr__(self) -> str:
        return f"<HyperFanoutGroup {self.name} g={self.g} durable={self.durable}>"
