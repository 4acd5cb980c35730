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

from ..core.base import GroupBase
from ..core.chain import GWRITE, OpSpec
from ..hw.cpu import Task
from ..hw.host import Host
from ..hw.nic import AccessFlags
from ..hw.wqe import FLAG_VALID, Opcode, Wqe
from ..rdma.verbs import QueuePair

__all__ = ["FanoutGroup"]

_CMD = struct.Struct("<QQI")  # round, offset, size


class FanoutGroup(GroupBase):
    """Primary/backup fan-out replication of gWRITE (ablation only).

    The shell is :class:`~repro.core.base.GroupBase`'s with an
    event-mode client. The group runs gWRITE only: its backups do not
    flush, so it is not durable and gFLUSH raises."""

    primitives = (GWRITE,)

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
        super().__init__(client, replicas, region_size, rounds, False, nvm, name)
        self.replica_mode = replica_mode
        self.next_round = 0
        self._setup()
        self._one_ack_path(lambda round_: round_, lap=1 << 32)
        if autostart:
            self.start()

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

    # -- the data path: the primary CPU's fan-out ---------------------------------------

    def _post_cost(self, op: OpSpec) -> int:
        return 700

    def _post(self, op: OpSpec) -> int:
        round_ = self.next_round
        self.next_round += 1
        command = _CMD.pack(round_, op.offset, op.size)
        staging = self.client_staging.addr + (round_ % self.rounds) * self.cmd_size
        self.client.nic.host_write(staging, command)
        primary_mr = self.replica_mrs[0]
        self.client_qp.post_send_batch(
            [
                Wqe(
                    opcode=Opcode.WRITE,
                    flags=FLAG_VALID,
                    length=op.size,
                    local_addr=self.client_region.addr + op.offset,
                    remote_addr=primary_mr.addr + op.offset,
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
        return round_

    # -- daemons ---------------------------------------------------------------------

    def _spawn(self):
        yield self.replicas[0].os.spawn(self._primary_body(), name=f"{self.name}.primary")
        for index in range(1, self.g):
            yield self.replicas[index].os.spawn(
                self._backup_body(index), name=f"{self.name}.b{index}"
            )

    def _primary_body(self):
        primary = self.replicas[0]
        region = self.replica_mrs[0]

        def body(task: Task) -> Generator:
            cq = self.primary_qp.recv_cq
            handled = 0
            while not self._stopping:
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
            while not self._stopping:
                if self.replica_mode == "polling":
                    yield from task.poll_wait(cq.next_event())
                else:
                    yield from task.wait(cq.next_event())
                cqes = cq.poll(16)
                yield from task.compute(600 * max(len(cqes), 1))
                for _cqe in cqes:
                    qp.post_recv(Wqe(local_addr=cmd_mr.addr, length=self.cmd_size))

        return body
