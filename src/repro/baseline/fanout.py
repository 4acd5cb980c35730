"""Fan-out replication: one primary coordinates all backups (§7).

The paper argues for chain replication partly on NIC load-balancing
grounds: "Chain replication has a good load balancing property where
there is at most one active write-QP per active partition as opposed
to several per partition such as in fan-out protocols." This variant
exists to measure that claim (the chain-vs-fanout ablation bench):

* The client sends data + command to the primary (replica 0).
* The primary's **CPU** posts one WRITE+SEND per backup (all egress
  serialized through the primary's one NIC port), waits for every
  backup's ack, then acks the client.

Functionally equivalent to :class:`~repro.baseline.naive.NaiveGroup`
for gWRITE; only the topology differs.
"""

from __future__ import annotations

import struct
from typing import Generator, List, Sequence

from ..core.acks import AckReaper
from ..core.chain import check_range
from ..hw.cpu import Task
from ..hw.host import Host
from ..hw.nic import AccessFlags
from ..hw.wqe import FLAG_VALID, Opcode, Wqe
from ..sim import Resource
from ..rdma.verbs import Mr, QueuePair

__all__ = ["FanoutGroup"]

_CMD = struct.Struct("<QQI")  # round, offset, size


class FanoutGroup:
    """Primary/backup fan-out replication of gWRITE (ablation only).

    The client is an event-mode one: acks are reaped by
    :mod:`repro.core.acks`, as for the other group types."""

    def __init__(
        self,
        client: Host,
        replicas: Sequence[Host],
        region_size: int = 1 << 20,
        rounds: int = 256,
        nvm: bool = True,
        replica_mode: str = "event",
        name: str = "fanout",
        autostart: bool = True,
    ):
        if len(replicas) < 2:
            raise ValueError("fan-out needs a primary and at least one backup")
        self.client = client
        self.replicas = list(replicas)
        self.region_size = region_size
        self.rounds = rounds
        self.replica_mode = replica_mode
        self.name = name
        self.g = len(self.replicas)
        self.next_round = 0
        self.errors: List[str] = []
        self._acks = AckReaper(client.sim, name, "event", self.errors)
        self.client_region = client.memory.alloc(region_size, label=f"{name}.client")
        self.replica_mrs: List[Mr] = []
        for index, host in enumerate(self.replicas):
            region = host.memory.alloc(region_size, nvm=nvm, label=f"{name}.r{index}")
            self.replica_mrs.append(host.dev.reg_mr(region, AccessFlags.ALL_REMOTE))
        self._setup()
        self._flow = Resource(client.sim, capacity=max(rounds // 2, 1))
        self._waiters = self._acks.attach(
            self.ack_qp.recv_cq, lambda round_: round_,
            lambda: self.ack_qp.post_recv(Wqe(local_addr=0, length=0)), lap=1 << 32,
        )
        self._tasks = []
        self._replica_tasks = []
        self._started = False
        if autostart:
            self.start()

    @property
    def sim(self):
        return self.client.sim

    @property
    def group_size(self) -> int:
        return self.g

    def _setup(self) -> None:
        primary = self.replicas[0]
        self.cmd_size = _CMD.size
        # client -> primary
        self.client_qp = self.client.dev.create_qp(
            send_slots=self.rounds * 4, recv_slots=8, name=f"{self.name}.c"
        )
        self.primary_qp = primary.dev.create_qp(
            send_slots=8, recv_slots=self.rounds, name=f"{self.name}.p"
        )
        self.client_qp.connect(self.primary_qp)
        # primary -> each backup (several active write QPs on one NIC:
        # the §7 scalability concern, reproduced structurally)
        self.backup_qps: List[QueuePair] = []
        self.backup_remote_qps: List[QueuePair] = []
        for index in range(1, self.g):
            qp = primary.dev.create_qp(
                send_slots=self.rounds * 4, recv_slots=8, name=f"{self.name}.pb{index}"
            )
            remote = self.replicas[index].dev.create_qp(
                send_slots=8, recv_slots=self.rounds, name=f"{self.name}.b{index}"
            )
            qp.connect(remote)
            self.backup_qps.append(qp)
            self.backup_remote_qps.append(remote)
        # primary -> client acks
        self.ack_qp = self.client.dev.create_qp(
            send_slots=8, recv_slots=self.rounds, name=f"{self.name}.ack"
        )
        self.primary_ack_qp = primary.dev.create_qp(
            send_slots=self.rounds * 2, recv_slots=8, name=f"{self.name}.pack"
        )
        self.primary_ack_qp.connect(self.ack_qp)
        ack_region = self.client.memory.alloc(8, label=f"{self.name}.ackslot")
        self.ack_region = self.client.dev.reg_mr(ack_region, AccessFlags.REMOTE_WRITE)
        # buffers
        self.cmd_buf = primary.dev.reg_mr(
            primary.memory.alloc(self.rounds * self.cmd_size, label=f"{self.name}.cmds")
        )
        self.client_staging = self.client.memory.alloc(
            self.rounds * self.cmd_size, label=f"{self.name}.cstage"
        )
        backup_cmds = []
        for index in range(1, self.g):
            region = self.replicas[index].memory.alloc(
                self.rounds * self.cmd_size, label=f"{self.name}.b{index}.cmds"
            )
            backup_cmds.append(self.replicas[index].dev.reg_mr(region))
        self.backup_cmds = backup_cmds
        for position in range(self.rounds):
            # A slot per round: the next command must not overwrite this one.
            slot = self.cmd_buf.addr + position * self.cmd_size
            self.primary_qp.post_recv(Wqe(local_addr=slot, length=self.cmd_size))
            for index, remote in enumerate(self.backup_remote_qps):
                remote.post_recv(
                    Wqe(local_addr=backup_cmds[index].addr, length=self.cmd_size)
                )
            self.ack_qp.post_recv(Wqe(local_addr=0, length=0))

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        primary_task = self.replicas[0].os.spawn(
            self._primary_body(), name=f"{self.name}.primary"
        )
        self._tasks.append(primary_task)
        self._replica_tasks.append(primary_task)
        for index in range(1, self.g):
            task = self.replicas[index].os.spawn(
                self._backup_body(index), name=f"{self.name}.b{index}"
            )
            self._tasks.append(task)
            self._replica_tasks.append(task)
        self._acks.start(self.client.os)

    # -- public API (gwrite only; the ablation's subject) ---------------------------

    def write_local(self, offset: int, data: bytes) -> None:
        self.client_region.write(offset, data)

    def read_replica(self, replica: int, offset: int, size: int) -> bytes:
        mr = self.replica_mrs[replica]
        return self.replicas[replica].nic.cache.read(mr.addr + offset, size)

    def gwrite(self, task: Task, offset: int, size: int) -> Generator:
        """Replicate via the primary's fan-out."""
        check_range(offset, size, self.region_size)
        yield from task.wait(self._flow.acquire())
        try:
            yield from task.compute(700)
            round_ = self.next_round
            self.next_round += 1
            command = _CMD.pack(round_, offset, size)
            staging = self.client_staging.addr + (round_ % self.rounds) * self.cmd_size
            self.client.nic.host_write(staging, command)
            primary_mr = self.replica_mrs[0]
            self.client_qp.post_send_batch(
                [
                    Wqe(
                        opcode=Opcode.WRITE,
                        flags=FLAG_VALID,
                        length=size,
                        local_addr=self.client_region.addr + offset,
                        remote_addr=primary_mr.addr + offset,
                        rkey=primary_mr.rkey,
                    ),
                    Wqe(
                        opcode=Opcode.SEND,
                        flags=FLAG_VALID,
                        length=self.cmd_size,
                        local_addr=staging,
                    ),
                ]
            )
            ack = self.sim.event(name=f"{self.name}.op{round_}")
            self._waiters[round_] = ack
            result = yield from self._acks.wait(task, ack)
        finally:
            self._flow.release()
        return result

    # -- daemons ---------------------------------------------------------------------

    def _primary_body(self):
        primary = self.replicas[0]
        region = self.replica_mrs[0]

        def body(task: Task) -> Generator:
            cq = self.primary_qp.recv_cq
            backup_ack_counts = [qp.send_cq for qp in self.backup_qps]
            handled = 0
            while True:
                if self.replica_mode == "polling":
                    yield from task.poll_wait(cq.next_event())
                else:
                    yield from task.wait(cq.next_event())
                cqes = cq.poll(16)
                yield from task.compute(600 * max(len(cqes), 1))
                for cqe in cqes:
                    slot = self.cmd_buf.addr + (handled % self.rounds) * self.cmd_size
                    raw = primary.nic.cache.read(slot, self.cmd_size)
                    round_, offset, size = _CMD.unpack(raw)
                    self.primary_qp.post_recv(Wqe(local_addr=slot, length=self.cmd_size))
                    # Fan out: one WRITE + SEND per backup, all through
                    # the primary's single NIC port.
                    expected = []
                    for index, qp in enumerate(self.backup_qps):
                        backup_mr = self.replica_mrs[index + 1]
                        yield from task.compute(qp.post_cost(2))
                        qp.post_send_batch(
                            [
                                Wqe(
                                    opcode=Opcode.WRITE,
                                    flags=FLAG_VALID,
                                    length=size,
                                    local_addr=region.addr + offset,
                                    remote_addr=backup_mr.addr + offset,
                                    rkey=backup_mr.rkey,
                                ),
                                Wqe(
                                    opcode=Opcode.SEND,
                                    flags=FLAG_VALID | 0x02,  # signaled
                                    length=self.cmd_size,
                                    local_addr=slot,
                                ),
                            ]
                        )
                        expected.append(qp.send_cq.completions_total + 1)
                    # Wait for every backup's transport-level ack, then
                    # wait for their application-level acks (backup
                    # daemons bump a counter via their own sends).
                    for index, qp in enumerate(self.backup_qps):
                        yield from task.wait(
                            qp.send_cq.threshold_event(expected[index])
                        )
                        qp.send_cq.poll(16)
                    yield from task.compute(self.primary_ack_qp.post_cost(1))
                    self.primary_ack_qp.post_send(
                        Wqe(
                            opcode=Opcode.WRITE_IMM,
                            flags=FLAG_VALID,
                            length=0,
                            local_addr=region.addr,
                            remote_addr=self.ack_region.addr,
                            rkey=self.ack_region.rkey,
                            compare=round_ & 0xFFFF_FFFF,
                        )
                    )
                    handled += 1

        return body

    def _backup_body(self, index: int):
        qp = self.backup_remote_qps[index - 1]
        cmd_mr = self.backup_cmds[index - 1]

        def body(task: Task) -> Generator:
            cq = qp.recv_cq
            while True:
                if self.replica_mode == "polling":
                    yield from task.poll_wait(cq.next_event())
                else:
                    yield from task.wait(cq.next_event())
                cqes = cq.poll(16)
                yield from task.compute(600 * max(len(cqes), 1))
                for _cqe in cqes:
                    qp.post_recv(Wqe(local_addr=cmd_mr.addr, length=self.cmd_size))

        return body

    def replica_cpu_ns(self) -> int:
        return sum(task.cpu_ns for task in self._replica_tasks)

    def __repr__(self) -> str:
        return f"<FanoutGroup {self.name} g={self.g}>"
