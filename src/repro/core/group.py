"""HyperLoopGroup: the public API of the primitive library.

One group = one client (transaction coordinator) plus ``g`` replicas
in a chain, with a shared replicated data region. Matches the paper's
architecture (Figure 3):

* :meth:`gwrite` — replicate client bytes at ``offset`` to every
  replica's region (log replication; Table 1 gWRITE).
* :meth:`gmemcpy` — every replica's NIC copies ``size`` bytes from
  ``src_offset`` to ``dst_offset`` locally (log processing /
  transaction execution; Table 1 gMEMCPY).
* :meth:`gcas` — compare-and-swap at ``offset`` on the replicas
  selected by the execute map; returns the result map (group locking;
  Table 1 gCAS).
* :meth:`gflush` — force all previously replicated data into the
  durable domain on every replica (Table 1 gFLUSH). Durability can
  also be interleaved per-operation (``durable=True``, the default),
  in which case every gwrite/gmemcpy is flushed in-line exactly as
  §4.2 describes.

All operations are generator methods to be driven from an OS
:class:`~repro.hw.cpu.Task` on the client — the client CPU is on the
critical path (it builds metadata and posts work), replica CPUs are
not. Replica-side CPU involvement is limited to a maintenance task
that refills consumed pre-posted rounds off the critical path.

A group pays only for the primitives it runs: each primitive's
:class:`~repro.core.chain.Chain` — its QPs, rings and pre-posted
rounds on every replica — is built by the first operation that uses
it (:meth:`HyperLoopGroup.chain`), not at construction. A group that
only ever replicates a log (the §5.1 RocksDB port: gWRITE + gFLUSH)
never builds the gMEMCPY and gCAS chains.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..hw.cpu import Task
from ..hw.host import Host
from ..hw.nic import AccessFlags
from ..obs.trace import TRACER
from ..rdma.reader import RemoteReader
from ..sim import Event, Resource, US
from .acks import AckReaper
from .chain import Chain, GCAS, GMEMCPY, GWRITE, OpSpec

__all__ = ["HyperLoopGroup"]


class HyperLoopGroup:
    """A replication group offloaded to NICs.

    Construction allocates the replicated regions and the read path;
    a primitive's chain is built by its first operation, so
    :attr:`chains` holds only the chains used so far.

    Parameters
    ----------
    client:
        The coordinator host (storage front-end).
    replicas:
        Ordered chain of replica hosts (head first).
    region_size:
        Size in bytes of the replicated data region on every node.
    rounds:
        Pre-posted rounds per chain; at most ``rounds // 2``
        operations may be in flight per primitive.
    durable:
        Interleave gFLUSH with every gwrite/gmemcpy (§4.2).
    nvm:
        Place replica regions in NVM (battery-backed DRAM).
    primitives:
        The chains the group *may* build. Each is built on its first
        operation (or an explicit :meth:`chain` call); an operation
        on a primitive not listed raises ``RuntimeError``.
    client_mode:
        ``"event"`` — an ack wakes the task waiting on the op (normal
        tenants); ``"polling"`` — a client thread busy-polls the ack
        CQs (dedicated-core clients, e.g. the latency microbenchmark).
        See :mod:`repro.core.acks`.
    maintenance_interval:
        How often replica CPUs wake to refill rounds (off the
        critical path).
    """

    def __init__(
        self,
        client: Host,
        replicas: Sequence[Host],
        region_size: int = 1 << 20,
        rounds: int = 256,
        durable: bool = True,
        nvm: bool = True,
        primitives: Sequence[str] = (GWRITE, GMEMCPY, GCAS),
        client_mode: str = "event",
        maintenance_interval: int = 200 * US,
        client_core: Optional[int] = None,
        name: str = "group",
        autostart: bool = True,
    ):
        if not replicas:
            raise ValueError("a group needs at least one replica")
        for primitive in primitives:
            if primitive not in (GWRITE, GMEMCPY, GCAS):
                raise ValueError(f"unknown primitive {primitive!r}")
        self.errors: List[str] = []
        self._acks = AckReaper(client.sim, name, client_mode, self.errors)
        self.client = client
        self.replicas = list(replicas)
        self.region_size = region_size
        self.rounds = rounds
        self.durable = durable
        self.name = name
        self.maintenance_interval = maintenance_interval
        self.client_core = client_core
        # Replicated data regions: one local copy on the client, one
        # remotely accessible region per replica.
        self.client_region = client.memory.alloc(
            region_size, label=f"{name}.client_region"
        )
        self.client_region_mr = client.dev.reg_mr(self.client_region)
        self.replica_mrs = []
        for index, host in enumerate(self.replicas):
            region = host.memory.alloc(
                region_size, nvm=nvm, label=f"{name}.r{index}.region"
            )
            self.replica_mrs.append(host.dev.reg_mr(region, AccessFlags.ALL_REMOTE))
        self._reader = RemoteReader(client, self.replicas, self.replica_mrs, name)
        self.primitives: Tuple[str, ...] = tuple(primitives)
        # Built chains only, keyed in ``primitives`` order (see chain()).
        self.chains: Dict[str, Chain] = {}
        self._flow: Dict[str, Resource] = {
            primitive: Resource(client.sim, capacity=max(rounds // 2, 1))
            for primitive in self.primitives
        }
        self._waiters: Dict[str, Dict[int, Event]] = {}  # per built chain
        self._tasks: List[Task] = []
        self._started = False
        self._stopping = False
        if autostart:
            self.start()

    @property
    def sim(self):
        return self.client.sim

    @property
    def group_size(self) -> int:
        return len(self.replicas)

    @property
    def validated_since_birth(self) -> bool:
        """Whether an acked write round completed on this group's chain.

        The Available-Copies read rule: a chain freshly built (e.g. by
        ``ChainRepair`` after a membership change) must be *written
        since recovery* before its copies may serve snapshot reads.
        An acked gWRITE round traverses every member, so one ack since
        construction re-validates the whole chain.
        """
        chain = self.chains.get(GWRITE)
        return chain is not None and chain.last_ack_ns is not None

    def readable_replicas(self) -> List[int]:
        """Replica indices currently eligible to serve one-sided reads.

        Excludes crashed hosts, halted NICs, and replicas restarted
        after the chain's newest acked write — a restarted site holds
        whatever survived in NVM and must see a committed write land
        before its copy is trusted again (Available-Copies).
        """
        chain = self.chains.get(GWRITE)
        last_ack = chain.last_ack_ns if chain is not None else None
        out: List[int] = []
        for index, host in enumerate(self.replicas):
            if host.down or host.nic.halted:
                continue
            if host.last_restart_ns is not None and (
                last_ack is None or last_ack <= host.last_restart_ns
            ):
                continue
            out.append(index)
        return out

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Start reaping acks and spawn the replica maintenance tasks."""
        if self._started:
            return
        self._started = True
        self._acks.start(self.client.os, self.client_core)
        for index, host in enumerate(self.replicas):
            task = host.os.spawn(
                self._maintenance_body(index),
                name=f"{self.name}.r{index}.maint",
            )
            self._tasks.append(task)

    def stop(self) -> None:
        """Retire the group: background tasks exit at their next wakeup.

        Used on membership change — :class:`~repro.storage.recovery.
        ChainRepair` abandons the old group wholesale, and without this
        its replica maintenance tasks would keep waking forever. Acks
        are no longer reaped; a polling thread parked on a dead chain
        simply stays dormant, and no new timer events are scheduled
        once tasks observe the flag.
        """
        self._stopping = True
        self._acks.stop()

    def reattach_client(self) -> None:
        """Rebuild the client's read path after a client crash/restart.

        A crashed client NIC loses its volatile QP/ring state, so the
        old :class:`~repro.rdma.reader.RemoteReader` QPs are dead on
        the client side. The replica regions themselves are retained
        NIC/memory state, so a fresh reader — new QP pairs on both
        ends, same replica MRs — restores one-sided pread access for
        catch-up. Chain QPs are *not* rebuilt here; recovery replaces
        the group (fresh chains) once the client has caught up, exactly
        as :class:`~repro.storage.recovery.ChainRepair` does for
        replica failures.
        """
        self._reader = RemoteReader(
            self.client,
            self.replicas,
            self.replica_mrs,
            f"{self.name}.reattach",
        )

    # -- public operations (drive from a client Task) ---------------------------------

    def write_local(self, offset: int, data: bytes) -> None:
        """Stage ``data`` in the client's local copy of the region.

        gwrite replicates *from this region*; storage layers call this
        while building log records.
        """
        self.client_region.write(offset, data)

    def read_replica(self, replica: int, offset: int, size: int) -> bytes:
        """Read a replica's region directly (test/verification hook)."""
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

    def read_backlog(self, replica: int) -> int:
        """Read batches in flight on ``replica``'s channel plus those
        queued for a lane of it."""
        return self._reader.backlog(replica)

    def gwrite(self, task: Task, offset: int, size: int) -> Generator:
        """Replicate ``size`` bytes at ``offset`` to all replicas.

        Yields until the group ACK (tail WRITE_WITH_IMM) arrives;
        returns the operation's round number.
        """
        result = yield from self._run(task, OpSpec(GWRITE, offset=offset, size=size))
        return result

    def gflush(self, task: Task) -> Generator:
        """Explicitly flush the chain (a zero-byte durable gwrite)."""
        if not self.durable:
            raise RuntimeError(
                "gflush needs the gwrite chain built with durable=True"
            )
        result = yield from self._run(task, OpSpec(GWRITE, offset=0, size=0))
        return result

    def gmemcpy(self, task: Task, src_offset: int, dst_offset: int, size: int) -> Generator:
        """NIC-local copy of ``size`` bytes on every replica."""
        result = yield from self._run(
            task,
            OpSpec(GMEMCPY, src_offset=src_offset, dst_offset=dst_offset, size=size),
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
        """Group compare-and-swap; returns the result map.

        The result map is a list with one entry per replica: the
        original 8-byte value at ``offset`` where the CAS executed, or
        ``None`` where the execute map skipped the replica.
        """
        result = yield from self._run(
            task,
            OpSpec(GCAS, offset=offset, compare=compare, swap=swap, execute_map=execute_map),
        )
        return result

    def chain(self, primitive: str) -> Chain:
        """The chain for ``primitive``, built on first use.

        Building pre-posts every round on every replica and starts the
        chain's NIC engines at the current instant; its ack CQ and
        client send CQ join the group's ack reaper, served in declared
        ``primitives`` order like the chains built before it.
        """
        chain = self.chains.get(primitive)
        if chain is not None:
            return chain
        if primitive not in self.primitives:
            raise RuntimeError(f"group built without the {primitive} chain")
        chain = Chain(self, primitive, self.durable, self.rounds)
        self._waiters[primitive] = self._acks.attach(
            chain.ack_qp.recv_cq, chain.parse_result_map, chain.post_ack_recv,
            lap=chain.rounds, label=primitive, send_cq=chain.client_qp.send_cq,
            rank=self.primitives.index(primitive),
        )
        # A fresh dict, not an insert: the maintenance tasks may be
        # suspended inside a loop over the old one. Declared order, so
        # every loop over the chains is independent of first use.
        built = {**self.chains, primitive: chain}
        self.chains = {p: built[p] for p in self.primitives if p in built}
        return chain

    def _run(self, task: Task, op: OpSpec) -> Generator:
        """The blocking form of every verb: :meth:`submit`, then
        :meth:`wait`."""
        ack = yield from self.submit(task, op)
        return (yield from self.wait(task, ack))

    def wait(self, task: Task, acks) -> Generator:
        """Park on one ack event from :meth:`submit` or a list of them
        (:meth:`AckReaper.wait <repro.core.acks.AckReaper.wait>`)."""
        return (yield from self._acks.wait(task, acks))

    def submit(self, task: Task, op: OpSpec) -> Generator:
        """Post ``op`` on its primitive's chain; returns its ack event.

        The issue half of every group operation: build the chain if
        this is its first op (:meth:`chain`), take a flow slot, charge
        the client CPU for building the metadata, post. The
        caller waits on the returned event (:meth:`wait`) whenever it
        needs the result (the event's value is what the blocking verb
        returns), and may post more work first. Ordering is the RC queue pair's:
        ops on the *same* chain execute and ack in post order; ops on
        different chains are unordered, so an op that depends on one
        from another chain must be posted only after that one's ack.

        The flow slot is released when the ack fires, not when the
        issuing task next runs — a batch larger than ``rounds // 2``
        drains through its own slots instead of deadlocking on them.
        """
        primitive = op.kind
        if primitive not in self.primitives:
            raise RuntimeError(f"group built without the {primitive} chain")
        op.check(self.region_size, self.group_size)
        chain = self.chain(primitive)
        flow = self._flow[primitive]
        yield from task.wait(flow.acquire())
        try:
            yield from task.compute(chain.client_post_cost(op))
            round_ = chain.client_post(op)
        except BaseException:
            flow.release()
            raise
        ack = self.sim.event(name=f"{self.name}.{primitive}.{round_}")
        ack.add_callback(lambda _ack: flow.release())
        self._waiters[primitive][round_] = ack
        if TRACER.enabled:
            self._trace_op(task, primitive, op, round_, ack)
        return ack

    def _trace_op(self, task: Task, primitive: str, op: OpSpec, round_: int, ack: Event) -> None:
        # One complete ("X") span per op on the issuing task's lane,
        # emitted when the ack fires: a task may have several ops in
        # flight, so begin/end pairs would interleave within the tid.
        posted = self.sim.now
        pid = f"group:{self.name}"
        TRACER.count("group.ops")
        TRACER.record(
            posted, "i", "group", "posted", pid=pid, tid=task.name, args={"round": round_}
        )
        ack.add_callback(
            lambda _ack: TRACER.record(
                posted,
                "X",
                "group",
                f"{self.name}.{primitive}",
                pid=pid,
                tid=task.name,
                dur=self.sim.now - posted,
                args={"size": op.size, "round": round_},
            )
        )

    def _maintenance_body(self, index: int) -> Generator:
        """Replica-side task: refill consumed rounds, drain CQs.

        This is the only CPU work replicas ever do for the group, and
        it is batched and off the critical path (§5.1: "Replicas need
        to wake up periodically off the critical path").
        """

        def body(task: Task) -> Generator:
            while True:
                yield from task.sleep(self.maintenance_interval)
                if self._stopping:
                    return
                # Timer wakeup + ring/CQ state checks.
                yield from task.compute(500)
                for chain in self.chains.values():
                    state = chain.replicas[index]
                    # Re-arm consumed rounds in half-lap batches: the
                    # programs are lap-invariant, so this is a doorbell
                    # write per ring, not WQE re-serialization.
                    half_lap = max(chain.rounds // 2, 1)
                    while (
                        chain.retired_rounds(index)
                        >= state.posted_rounds - chain.rounds + half_lap
                    ):
                        chain.advance_lap(index, half_lap)
                        yield from task.compute(300)
                    # Drain CQs so hardware queues stay bounded; check
                    # for errors the NIC surfaced.
                    for cq in self._replica_cqs(chain, index):
                        cqes = cq.poll(1 << 16)
                        for cqe in cqes:
                            if not cqe.ok:
                                self.errors.append(
                                    f"r{index} {chain.primitive}: {cqe!r}"
                                )

        return body

    def _replica_cqs(self, chain: Chain, index: int):
        state = chain.replicas[index]
        cqs = [
            state.qp_prev.recv_cq,
            state.qp_prev.send_cq,
            state.qp_next.send_cq,
            state.qp_next.recv_cq,
        ]
        if state.qp_loop is not None:
            cqs.extend([state.qp_loop.send_cq, state.qp_loop.recv_cq])
        return cqs

    # -- metrics -------------------------------------------------------------------------

    def replica_cpu_ns(self) -> int:
        """Total CPU time consumed on replica hosts by group tasks."""
        return sum(
            task.cpu_ns
            for task in self._tasks
            if task.os is not self.client.os
        )

    def stats(self) -> Dict[str, int]:
        """Operational counters (observability surface)."""
        return {
            "ops_issued": sum(c.next_round for c in self.chains.values()),
            "rounds_posted": sum(
                state.posted_rounds
                for chain in self.chains.values()
                for state in chain.replicas
            ),
            "replica_cpu_ns": self.replica_cpu_ns(),
            "errors": len(self.errors),
        }

    def __repr__(self) -> str:
        return f"<HyperLoopGroup {self.name} g={self.group_size} durable={self.durable}>"
