"""Naïve-RDMA baseline: the same group operations, CPU-forwarded.

This is the comparison point the paper builds (§6, "Baseline RDMA
implementation"): it performs the same set of operations (gWRITE,
gMEMCPY, gCAS) and provides the same API as HyperLoop, but involves
**backup CPUs** to receive, parse, execute and forward every message.

Per replica a daemon task:

1. learns of an inbound command — either by blocking on the
   completion channel (``replica_mode="event"``) or by busy-polling
   the CQ (``replica_mode="polling"``, optionally on a pinned core);
2. parses the command and executes it against local memory with the
   CPU (memcpy for gMEMCPY, compare-and-swap for gCAS, durability
   flush for all durable ops);
3. posts the forwarding work requests to the next node in the chain
   (or the ack to the client at the tail).

Every one of those steps needs the daemon to *hold a core*, so under
multi-tenant CPU load the per-hop latency inherits the host's
scheduling delays — which is precisely the effect Figures 8-12
measure. The RDMA data path underneath is identical to HyperLoop's
(same NICs, same fabric); only the control transfer differs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence

from ..core.chain import GCAS, GMEMCPY, GWRITE, OpSpec, SKIP_SENTINEL
from ..hw.cpu import Task
from ..hw.host import Host
from ..hw.nic import AccessFlags
from ..hw.wqe import FLAG_VALID, Opcode, Wqe
from ..rdma.reader import RemoteReader
from ..rdma.verbs import Mr, QueuePair
from ..sim import Event, Resource

__all__ = ["NaiveGroup", "NaiveParams"]

# Command header: kind, round, offset, size, src, dst, compare, swap,
# execute bitmap. The result map (g * 8 bytes) follows.
_CMD = struct.Struct("<BQQIQQQQQ")
_KINDS = {GWRITE: 1, GMEMCPY: 2, GCAS: 3}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}


@dataclass
class NaiveParams:
    """CPU costs of the software data path (per message)."""

    parse_ns: int = 600
    """Receive handling: completion demux + command parse."""
    handle_ns: int = 400
    """Bookkeeping per operation around the actual work."""
    post_ns: int = 200
    """Per posted work request (same as the verbs layer's figure)."""
    memcpy_ns_per_byte: float = 0.12
    """CPU copy throughput ~ 8 GB/s including cache effects."""
    flush_base_ns: int = 300
    """Fixed cost of a durability flush (clflush/fence sequence)."""
    poll_slice_ns: int = 200
    """CPU burned per empty poll iteration in polling mode."""


class _ReplicaPlumbing:
    """Per-replica QPs and buffers for the software chain."""

    def __init__(self, host: Host, index: int):
        self.host = host
        self.index = index
        self.qp_prev: QueuePair = None
        self.qp_next: QueuePair = None
        self.cmd_region: Mr = None  # R command slots
        self.posted_recvs = 0


class NaiveGroup:
    """CPU-forwarded replication group (drop-in for HyperLoopGroup).

    Parameters mirror :class:`~repro.core.group.HyperLoopGroup`;
    additionally ``replica_mode`` selects event-driven or polling
    daemons and ``replica_cores`` optionally pins each daemon.
    """

    def __init__(
        self,
        client: Host,
        replicas: Sequence[Host],
        region_size: int = 1 << 20,
        rounds: int = 256,
        durable: bool = True,
        nvm: bool = True,
        replica_mode: str = "event",
        replica_cores: Optional[Sequence[Optional[int]]] = None,
        client_mode: str = "event",
        client_core: Optional[int] = None,
        params: Optional[NaiveParams] = None,
        name: str = "naive",
        autostart: bool = True,
    ):
        if not replicas:
            raise ValueError("a group needs at least one replica")
        if replica_mode not in ("event", "polling"):
            raise ValueError(f"bad replica_mode {replica_mode!r}")
        if client_mode not in ("event", "polling"):
            raise ValueError(f"bad client_mode {client_mode!r}")
        self.client = client
        self.replicas = list(replicas)
        self.region_size = region_size
        self.rounds = rounds
        self.durable = durable
        self.replica_mode = replica_mode
        self.replica_cores = list(replica_cores or [None] * len(replicas))
        self.client_mode = client_mode
        self.client_core = client_core
        self.params = params or NaiveParams()
        self.name = name
        self.errors: List[str] = []
        self.g = len(self.replicas)
        self.result_size = self.g * 8
        self.cmd_size = _CMD.size + self.result_size
        self.next_round = 0
        self.client_region = client.memory.alloc(
            region_size, label=f"{name}.client_region"
        )
        self.replica_mrs: List[Mr] = []
        for index, host in enumerate(self.replicas):
            region = host.memory.alloc(
                region_size, nvm=nvm, label=f"{name}.r{index}.region"
            )
            self.replica_mrs.append(host.dev.reg_mr(region, AccessFlags.ALL_REMOTE))
        self._reader = RemoteReader(client, self.replicas, self.replica_mrs, name)
        self._plumbing: List[_ReplicaPlumbing] = []
        self._setup()
        self._flow = Resource(client.sim, capacity=max(rounds // 2, 1))
        self._waiters: Dict[int, Event] = {}
        self._tasks: List[Task] = []
        self._replica_tasks: List[Task] = []
        self._started = False
        if autostart:
            self.start()

    @property
    def sim(self):
        return self.client.sim

    @property
    def group_size(self) -> int:
        return self.g

    # -- wiring ---------------------------------------------------------------

    def _setup(self) -> None:
        for index, host in enumerate(self.replicas):
            plumbing = _ReplicaPlumbing(host, index)
            label = f"{self.name}.r{index}"
            plumbing.qp_prev = host.dev.create_qp(
                send_slots=8, recv_slots=self.rounds, name=f"{label}.prev"
            )
            plumbing.qp_next = host.dev.create_qp(
                send_slots=self.rounds * 4, recv_slots=8, name=f"{label}.next"
            )
            cmd_region = host.memory.alloc(
                self.rounds * self.cmd_size, label=f"{label}.cmds"
            )
            plumbing.cmd_region = host.dev.reg_mr(cmd_region)
            self._plumbing.append(plumbing)
        client = self.client
        self.client_qp = client.dev.create_qp(
            send_slots=self.rounds * 4, recv_slots=8, name=f"{self.name}.client"
        )
        self.ack_qp = client.dev.create_qp(
            send_slots=8, recv_slots=self.rounds, name=f"{self.name}.ack"
        )
        acks = client.memory.alloc(
            self.rounds * self.result_size, label=f"{self.name}.acks"
        )
        self.ack_region = client.dev.reg_mr(acks, AccessFlags.REMOTE_WRITE)
        staging = client.memory.alloc(
            self.rounds * self.cmd_size, label=f"{self.name}.cstaging"
        )
        self.client_staging = staging
        self.client_qp.connect(self._plumbing[0].qp_prev)
        for index in range(self.g - 1):
            self._plumbing[index].qp_next.connect(self._plumbing[index + 1].qp_prev)
        self._plumbing[-1].qp_next.connect(self.ack_qp)
        for plumbing in self._plumbing:
            for round_ in range(self.rounds):
                self._post_cmd_recv(plumbing)
        for _ in range(self.rounds):
            self.ack_qp.post_recv(Wqe(local_addr=0, length=0))

    def _post_cmd_recv(self, plumbing: _ReplicaPlumbing) -> None:
        slot = plumbing.posted_recvs % self.rounds
        plumbing.qp_prev.post_recv(
            Wqe(
                local_addr=plumbing.cmd_region.addr + slot * self.cmd_size,
                length=self.cmd_size,
                wr_id=plumbing.posted_recvs,
            )
        )
        plumbing.posted_recvs += 1

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Spawn replica daemons and the client completion handler."""
        if self._started:
            return
        self._started = True
        for index in range(self.g):
            task = self.replicas[index].os.spawn(
                self._daemon_body(index),
                name=f"{self.name}.r{index}.daemon",
                pinned_core=self.replica_cores[index],
            )
            self._tasks.append(task)
            self._replica_tasks.append(task)
        task = self.client.os.spawn(
            self._ack_handler_body(),
            name=f"{self.name}.acks",
            pinned_core=self.client_core,
        )
        self._tasks.append(task)

    # -- public operations (same surface as HyperLoopGroup) ----------------------------

    def write_local(self, offset: int, data: bytes) -> None:
        """Stage data in the client's local copy (see gwrite)."""
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
        """Replicate ``size`` bytes at ``offset`` to all replicas."""
        result = yield from self._run(task, OpSpec(GWRITE, offset=offset, size=size))
        return result

    def gflush(self, task: Task) -> Generator:
        """Explicit durability barrier (zero-byte durable gwrite)."""
        result = yield from self._run(task, OpSpec(GWRITE, offset=0, size=0))
        return result

    def gmemcpy(self, task: Task, src_offset: int, dst_offset: int, size: int) -> Generator:
        """CPU copy of ``size`` bytes on every replica."""
        result = yield from self._run(
            task, OpSpec(GMEMCPY, src_offset=src_offset, dst_offset=dst_offset, size=size)
        )
        return result

    def gcas(
        self,
        task: Task,
        offset: int,
        compare: int,
        swap: int,
        execute_map: Optional[Sequence[bool]] = None,
    ) -> Generator:
        """Group compare-and-swap executed by replica CPUs."""
        result = yield from self._run(
            task,
            OpSpec(GCAS, offset=offset, compare=compare, swap=swap, execute_map=execute_map),
        )
        return result

    def _run(self, task: Task, op: OpSpec) -> Generator:
        """The blocking form of every verb: :meth:`submit`, then wait."""
        ack = yield from self.submit(task, op)
        return (yield from task.wait(ack))

    def submit(self, task: Task, op: OpSpec) -> Generator:
        """Post ``op``; returns its ack event (see
        :meth:`HyperLoopGroup.submit <repro.core.group.HyperLoopGroup.submit>`).

        All primitives share the one software chain here, so every op
        executes and acks in post order. The flow slot is released
        when the ack fires.
        """
        flow = self._flow
        yield from task.wait(flow.acquire())
        try:
            cost = 300 + self.params.post_ns * (2 if op.kind == GWRITE else 1)
            yield from task.compute(cost)
            round_ = self._client_post(op)
        except BaseException:
            flow.release()
            raise
        ack = self.sim.event(name=f"{self.name}.op{round_}")
        ack.add_callback(lambda _ack: flow.release())
        self._waiters[round_] = ack
        return ack

    def _client_post(self, op: OpSpec) -> int:
        round_ = self.next_round
        self.next_round += 1
        position = round_ % self.rounds
        execute_bits = 0
        for index in range(self.g):
            if op.execute_map is None or op.execute_map[index]:
                execute_bits |= 1 << index
        command = _CMD.pack(
            _KINDS[op.kind],
            round_,
            op.offset,
            op.size,
            op.src_offset,
            op.dst_offset,
            op.compare,
            op.swap,
            execute_bits,
        ) + struct.pack("<Q", SKIP_SENTINEL) * self.g
        staging_addr = self.client_staging.addr + position * self.cmd_size
        self.client.nic.host_write(staging_addr, command)
        wqes: List[Wqe] = []
        head = self.replica_mrs[0]
        if op.kind == GWRITE and op.size > 0:
            wqes.append(
                Wqe(
                    opcode=Opcode.WRITE,
                    flags=FLAG_VALID,
                    length=op.size,
                    local_addr=self.client_region.addr + op.offset,
                    remote_addr=head.addr + op.offset,
                    rkey=head.rkey,
                    wr_id=round_,
                )
            )
        wqes.append(
            Wqe(
                opcode=Opcode.SEND,
                flags=FLAG_VALID,
                length=self.cmd_size,
                local_addr=staging_addr,
                wr_id=round_,
            )
        )
        self.client_qp.post_send_batch(wqes)
        return round_

    # -- replica daemon ------------------------------------------------------------------

    def _daemon_body(self, index: int):
        plumbing = self._plumbing[index]
        params = self.params
        host = self.replicas[index]
        region = self.replica_mrs[index]
        is_tail = index == self.g - 1

        def handle(task: Task, round_: int) -> Generator:
            position = round_ % self.rounds
            cmd_addr = plumbing.cmd_region.addr + position * self.cmd_size
            raw = host.nic.cache.read(cmd_addr, self.cmd_size)
            (kind, cmd_round, offset, size, src, dst, compare, swap, bits) = _CMD.unpack(
                raw[: _CMD.size]
            )
            if cmd_round != round_:
                self.errors.append(f"r{index}: round skew {cmd_round} != {round_}")
            yield from task.compute(params.handle_ns)
            if kind == _KINDS[GWRITE]:
                if self.durable:
                    # Data arrived via RDMA into the NIC's volatile
                    # window; the CPU forces it to the durable domain.
                    yield from task.compute(
                        params.flush_base_ns + int(size * 0.01)
                    )
                    host.nic.cache.flush_all()
            elif kind == _KINDS[GMEMCPY]:
                data = host.nic.cache.read(region.addr + src, size)
                yield from task.compute(
                    int(size * params.memcpy_ns_per_byte) + 100
                )
                host.memory.write(region.addr + dst, data)
                if self.durable:
                    yield from task.compute(params.flush_base_ns)
            elif kind == _KINDS[GCAS]:
                if bits & (1 << index):
                    original = host.nic.cache.read(region.addr + offset, 8)
                    if original == compare.to_bytes(8, "little"):
                        host.memory.write(region.addr + offset, swap.to_bytes(8, "little"))
                    result_off = _CMD.size + index * 8
                    host.memory.write(cmd_addr + result_off, original)
            else:
                self.errors.append(f"r{index}: bad command kind {kind}")
                return
            # Forward down the chain (or ack the client from the tail).
            if is_tail:
                wqes = [
                    Wqe(
                        opcode=Opcode.WRITE_IMM,
                        flags=FLAG_VALID,
                        length=self.result_size,
                        local_addr=cmd_addr + _CMD.size,
                        remote_addr=self.ack_region.addr + position * self.result_size,
                        rkey=self.ack_region.rkey,
                        compare=round_ & 0xFFFF_FFFF,
                        wr_id=round_,
                    )
                ]
            else:
                next_region = self.replica_mrs[index + 1]
                wqes = []
                if kind == _KINDS[GWRITE] and size > 0:
                    wqes.append(
                        Wqe(
                            opcode=Opcode.WRITE,
                            flags=FLAG_VALID,
                            length=size,
                            local_addr=region.addr + offset,
                            remote_addr=next_region.addr + offset,
                            rkey=next_region.rkey,
                            wr_id=round_,
                        )
                    )
                wqes.append(
                    Wqe(
                        opcode=Opcode.SEND,
                        flags=FLAG_VALID,
                        length=self.cmd_size,
                        local_addr=cmd_addr,
                        wr_id=round_,
                    )
                )
            yield from task.compute(params.post_ns * (len(wqes) + 1))
            plumbing.qp_next.post_send_batch(wqes)
            self._post_cmd_recv(plumbing)

        def body(task: Task) -> Generator:
            handled = 0
            cq = plumbing.qp_prev.recv_cq
            while True:
                if self.replica_mode == "polling":
                    yield from task.poll_wait(
                        cq.next_event(), check_ns=params.poll_slice_ns
                    )
                else:
                    yield from task.wait(cq.next_event())
                cqes = cq.poll(64)
                if cqes:
                    yield from task.compute(params.parse_ns * len(cqes))
                for cqe in cqes:
                    if not cqe.ok:
                        self.errors.append(f"r{index}: recv error {cqe!r}")
                        continue
                    yield from handle(task, handled)
                    handled += 1
                # Drain send CQ (errors only; sends are unsignaled).
                for cqe in plumbing.qp_next.send_cq.poll(64):
                    if not cqe.ok:
                        self.errors.append(f"r{index}: send error {cqe!r}")

        return body

    # -- client completion handling --------------------------------------------------------

    def _ack_handler_body(self):
        params = self.params

        def body(task: Task) -> Generator:
            expected = 0
            cq = self.ack_qp.recv_cq
            while True:
                if self.client_mode == "polling":
                    yield from task.poll_wait(
                        cq.next_event(), check_ns=params.poll_slice_ns
                    )
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
                    result = self._parse_result_map(round_)
                    self.ack_qp.post_recv(Wqe(local_addr=0, length=0))
                    waiter = self._waiters.pop(round_, None)
                    if waiter is not None:
                        waiter.succeed(result)

        return body

    def _parse_result_map(self, round_: int) -> List[Optional[int]]:
        position = round_ % self.rounds
        raw = self.client.nic.cache.read(
            self.ack_region.addr + position * self.result_size, self.result_size
        )
        out: List[Optional[int]] = []
        for replica in range(self.g):
            (value,) = struct.unpack_from("<Q", raw, replica * 8)
            out.append(None if value == SKIP_SENTINEL else value)
        return out

    # -- metrics ---------------------------------------------------------------------------

    def replica_cpu_ns(self) -> int:
        """Total CPU time burned by replica daemons."""
        return sum(task.cpu_ns for task in self._replica_tasks)

    def __repr__(self) -> str:
        return (
            f"<NaiveGroup {self.name} g={self.g} mode={self.replica_mode} "
            f"durable={self.durable}>"
        )
