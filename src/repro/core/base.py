"""GroupBase: the shell every replication group type shares.

The paper's baseline "performs the same set of operations and provides
the same API as HyperLoop" (§6); so do the two fan-out ablations (§7).
This base is that API. It owns the client and the replicas, the
replicated regions (one local copy on the client, one remotely
accessible MR per replica), the one-sided read path, the ack reaper
(:mod:`repro.core.acks`), the read-availability surface the
Available-Copies rules query, the lifecycle, and the verbs — each a
:meth:`submit` of one :class:`~repro.core.chain.OpSpec` plus the one
:meth:`wait`.

A group type keeps only its data path: its post and what the client
CPU pays for it (:meth:`_post_cost`, :meth:`_post`), its setup (chains
and WAIT rings, replica daemons, or fan-out rounds), the bodies of its
background tasks (:meth:`_spawn`), and the ack path that validates a
copy — one :meth:`_one_ack_path` for every type but HyperLoop, whose
per-chain flows and waiter maps hook in through :meth:`_path`.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from ..hw.cpu import Task
from ..hw.host import Host
from ..hw.nic import AccessFlags
from ..hw.wqe import Wqe
from ..obs.trace import TRACER
from ..rdma.reader import RemoteReader
from ..sim import Event, Resource
from .acks import AckReaper
from .chain import GCAS, GMEMCPY, GWRITE, OpSpec

__all__ = ["GroupBase"]


class GroupBase:
    """One client plus ``g`` replicas sharing a replicated data region.

    The constructor allocates the client region, registers one region
    per replica (in NVM when ``nvm``) and builds the read path, in that
    order; a subclass then builds its data path.
    """

    primitives = (GWRITE, GMEMCPY, GCAS)
    """The primitives this group runs; any other raises at :meth:`submit`."""

    def __init__(
        self, client: Host, replicas: Sequence[Host], region_size: int, rounds: int,
        durable: bool, nvm: bool, name: str, client_mode: str = "event",
        client_core: Optional[int] = None,
    ):
        if not replicas:
            raise ValueError("a group needs at least one replica")
        self.errors: List[str] = []
        self._acks = AckReaper(client.sim, name, client_mode, self.errors)
        self.client = client
        self.replicas = list(replicas)
        self.g = len(self.replicas)
        self.region_size = region_size
        self.rounds = rounds
        self.durable = durable
        self.name = name
        self.client_core = client_core
        self.client_region = client.memory.alloc(region_size, label=f"{name}.client_region")
        self.replica_mrs = []
        for index, host in enumerate(self.replicas):
            region = host.memory.alloc(region_size, nvm=nvm, label=f"{name}.r{index}.region")
            self.replica_mrs.append(host.dev.reg_mr(region, AccessFlags.ALL_REMOTE))
        self._reader = RemoteReader(client, self.replicas, self.replica_mrs, name)
        self._validating = None  # the ack queue whose acks validate every copy
        self._tasks: List[Task] = []
        self._started = False
        self._stopping = False

    def _one_ack_path(self, parse, lap: int) -> None:
        """Reap ``self.ack_qp`` as the group's one ack path: one flow of
        ``rounds // 2`` slots, and every ack validates every copy."""
        self._flow = Resource(self.sim, capacity=max(self.rounds // 2, 1))
        self._validating = self._acks.attach(
            self.ack_qp.recv_cq, parse,
            lambda: self.ack_qp.post_recv(Wqe(local_addr=0, length=0)), lap=lap,
        )
        self._waiters = self._validating.waiters

    @property
    def sim(self):
        return self.client.sim

    @property
    def group_size(self) -> int:
        return self.g

    # -- replica availability ----------------------------------------------------

    @property
    def validated_since_birth(self) -> bool:
        """Whether an op acked on the validating path since construction.

        The Available-Copies read rule: a group freshly built (e.g. by
        ``ChainRepair`` after a membership change) must be *written
        since recovery* before its copies may serve snapshot reads.
        An acked op on that path reached every member, so one ack
        re-validates them all.
        """
        return self._validating is not None and self._validating.last_ack_ns is not None

    def readable_replicas(self) -> List[int]:
        """Replica indices currently eligible to serve one-sided reads.

        Excludes crashed hosts, halted NICs, and replicas restarted
        after the newest validating ack — a restarted site holds
        whatever survived in NVM and must see a committed write land
        before its copy is trusted again (Available-Copies).
        """
        last_ack = self._validating.last_ack_ns if self._validating is not None else None
        out: List[int] = []
        for index, host in enumerate(self.replicas):
            if host.down or host.nic.halted:
                continue
            restarted = host.last_restart_ns
            if restarted is not None and (last_ack is None or last_ack <= restarted):
                continue
            out.append(index)
        return out

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start reaping acks and spawn the type's background tasks."""
        if self._started:
            return
        self._started = True
        self._acks.start(self.client.os, self.client_core)
        self._tasks.extend(self._spawn())

    def _spawn(self) -> Iterable[Task]:
        """Spawn the type's background tasks; yields each."""
        raise NotImplementedError

    def stop(self) -> None:
        """Retire the group: background tasks exit at their next wakeup.

        Used on membership change — :class:`~repro.storage.recovery.
        ChainRepair` abandons the old group wholesale, and without this
        its replica tasks would keep waking forever. Acks are no longer
        reaped; a poller parked on a dead path simply stays dormant.
        """
        self._stopping = True
        self._acks.stop()

    def reattach_client(self) -> None:
        """Rebuild the client's read path after a client crash/restart.

        A crashed client NIC loses its volatile QP/ring state, so the
        old :class:`~repro.rdma.reader.RemoteReader` QPs are dead on
        the client side. The replica regions are retained NIC/memory
        state, so a fresh reader — new QP pairs on both ends, same
        replica MRs — restores one-sided pread access for catch-up.
        The data path is *not* rebuilt; recovery replaces the group
        once the client has caught up, as
        :class:`~repro.storage.recovery.ChainRepair` does for replica
        failures.
        """
        self._reader = RemoteReader(
            self.client, self.replicas, self.replica_mrs, f"{self.name}.reattach"
        )

    def replica_cpu_ns(self) -> int:
        """Total CPU time consumed on replica hosts by group tasks."""
        return sum(task.cpu_ns for task in self._tasks if task.os is not self.client.os)

    # -- regions and one-sided reads ----------------------------------------------

    def write_local(self, offset: int, data: bytes) -> None:
        """Stage ``data`` in the client's local copy of the region;
        gwrite replicates *from this region*."""
        self.client_region.write(offset, data)

    def read_replica(self, replica: int, offset: int, size: int) -> bytes:
        """Read a replica's region directly (test/verification hook)."""
        mr = self.replica_mrs[replica]
        return self.replicas[replica].nic.cache.read(mr.addr + offset, size)

    def pread(self, task: Task, replica: int, offset: int, size: int) -> Generator:
        """One-sided RDMA READ from a replica (no replica CPU)."""
        return (yield from self._reader.pread(task, replica, offset, size))

    def post_reads(self, task: Task, replica: int, extents) -> Generator:
        """Post one-sided READs of several ``(offset, size)`` extents as
        one batch; returns the :class:`~repro.rdma.reader.PostedReads`
        whose ``wait`` yields their bytes in order. Post and wait are
        separate so a caller can have reads in flight on several groups
        at once; :meth:`pread` is one extent, posted and waited for."""
        return (yield from self._reader.post(task, replica, extents))

    def read_backlog(self, replica: int) -> int:
        """Read batches in flight on ``replica``'s channel plus those
        queued for a lane of it."""
        return self._reader.backlog(replica)

    # -- the verbs (drive from a client Task) --------------------------------------

    def gwrite(self, task: Task, offset: int, size: int) -> Generator:
        """Replicate ``size`` bytes at ``offset`` to every replica; yields
        until the group ack arrives."""
        return (yield from self._run(task, OpSpec(GWRITE, offset=offset, size=size)))

    def gflush(self, task: Task) -> Generator:
        """Explicit durability barrier: a zero-byte durable gwrite."""
        if not self.durable:
            raise RuntimeError("gflush needs a group built with durable=True")
        return (yield from self._run(task, OpSpec(GWRITE, offset=0, size=0)))

    def gmemcpy(self, task: Task, src_offset: int, dst_offset: int, size: int) -> Generator:
        """Copy ``size`` bytes from ``src_offset`` to ``dst_offset`` on every replica."""
        op = OpSpec(GMEMCPY, src_offset=src_offset, dst_offset=dst_offset, size=size)
        return (yield from self._run(task, op))

    def gcas(
        self, task: Task, offset: int, compare: int, swap: int,
        execute_map: Optional[Sequence[bool]] = None,
    ) -> Generator:
        """Group compare-and-swap; returns the result map: per replica,
        the original 8-byte value at ``offset`` where the CAS executed,
        or ``None`` where the execute map skipped it."""
        op = OpSpec(GCAS, offset=offset, compare=compare, swap=swap, execute_map=execute_map)
        return (yield from self._run(task, op))

    def _run(self, task: Task, op: OpSpec) -> Generator:
        """The blocking form of every verb: :meth:`submit`, then :meth:`wait`."""
        ack = yield from self.submit(task, op)
        return (yield from self.wait(task, ack))

    def wait(self, task: Task, acks) -> Generator:
        """Park on one ack event from :meth:`submit` or a list of them
        (:meth:`AckReaper.wait <repro.core.acks.AckReaper.wait>`)."""
        return (yield from self._acks.wait(task, acks))

    def would_wait(self, op: OpSpec) -> bool:
        """Whether :meth:`submit` would wait for a flow slot to post
        ``op`` (building its chain on first use, as submit would)."""
        flow = self._path(op.kind)[0]
        return flow.in_use >= flow.capacity

    def submit(self, task: Task, op: OpSpec) -> Generator:
        """Post ``op``; returns its ack event.

        The posting half of every group operation: check the op, take a
        flow slot, charge the client CPU for the post, post. The caller
        waits on the returned event (:meth:`wait`) whenever it needs the
        result — the event's value is what the blocking verb returns —
        and may post more work first. Ordering is the RC queue pair's:
        ops on one ack path execute and ack in post order; ops on
        different paths (HyperLoop's chains) are unordered, so an op
        that depends on one from another path must be posted only after
        that one's ack.

        The flow slot is released when the ack fires, not when the
        issuing task next runs — a batch larger than ``rounds // 2``
        drains through its own slots instead of deadlocking on them.
        """
        primitive = op.kind
        if primitive not in self.primitives:
            raise RuntimeError(f"{self.name} does not run {primitive}")
        op.check(self.region_size, self.g)
        flow, waiters = self._path(primitive)
        yield from task.wait(flow.acquire())
        try:
            yield from task.compute(self._post_cost(op))
            round_ = self._post(op)
        except BaseException:
            flow.release()
            raise
        ack = self.sim.event(name=f"{self.name}.{primitive}.{round_}")
        ack.add_callback(lambda _ack: flow.release())
        waiters[round_] = ack
        if TRACER.enabled:
            self._trace_op(task, op, round_, ack)
        return ack

    def _path(self, primitive: str):
        """The flow-slot pool and round → ack-event map ``primitive``'s
        ops run on."""
        return self._flow, self._waiters

    def _post_cost(self, op: OpSpec) -> int:
        """Client CPU ns to build and post ``op``."""
        raise NotImplementedError

    def _post(self, op: OpSpec) -> int:
        """Post ``op`` without charging CPU; returns its round."""
        raise NotImplementedError

    def _trace_op(self, task: Task, op: OpSpec, round_: int, ack: Event) -> None:
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
                posted, "X", "group", f"{self.name}.{op.kind}", pid=pid, tid=task.name,
                dur=self.sim.now - posted, args={"size": op.size, "round": round_},
            )
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} g={self.g} durable={self.durable}>"


class RingRefill:
    """One replica's refill task, the rule both NIC-offloaded groups share.

    Re-arms a ring's rounds half a lap at a time once half a lap is
    retired, the only CPU work a replica does for a group (§5.1). It
    wakes on a threshold on the ring's recv CQ at that point (CQ
    moderation: refills trail consumption) and on the one pending
    ``maintenance_interval`` tick, which drains CQs and surfaces errors.
    Each ring keeps one threshold waiter, replaced once it fired or its
    NIC crashed (a crash drops them). A ring (``group._rings``) has
    ``rounds``, ``lap``, ``advance_lap``, ``replica_cqs``, ``error_label``.
    """

    def __init__(self, group: GroupBase, replica: int):
        self.group = group
        self.replica = replica
        self.nic = group.replicas[replica].nic
        self.parked: Optional[Event] = None  # what the task sleeps on
        self.armed: Dict[object, Tuple[Event, int]] = {}  # ring -> (waiter, NIC crashes)

    def nudge(self, _event: Event) -> None:
        parked = self.parked
        if parked is not None and not parked.triggered:
            parked.succeed()

    def due(self, ring) -> bool:
        """Whether ``ring`` has half a lap to re-arm; if not, keep one
        threshold waiter armed for the completion that may bring it."""
        posted, retired, cq = ring.lap(self.replica)
        point = posted - ring.rounds + max(ring.rounds // 2, 1)
        if retired >= point:
            return True
        armed = self.armed.get(ring)
        if armed is None or armed[0].triggered or armed[1] != self.nic.crashes:
            # The recv CQ counts a round before its send rings retire
            # it, so a wake can come a round early: then the next one.
            waiter = cq.threshold_event(max(point, cq.completions_total + 1))
            waiter.add_callback(self.nudge)
            self.armed[ring] = (waiter, self.nic.crashes)
        return False

    def body(self, task: Task) -> Generator:
        group, replica = self.group, self.replica
        for ring in group._rings(replica):
            self.due(ring)
        ticked = True
        while True:
            if ticked:
                tick = group.sim.timeout(group.maintenance_interval)
                tick.add_callback(self.nudge)
            # A waiter that fired while the task ran is a wake it owes.
            if not tick.triggered and not any(w.triggered for w, _ in self.armed.values()):
                self.parked = group.sim.event()
                yield from task.wait(self.parked)
            if group._stopping:
                return
            # Wakeup + ring/CQ state checks.
            yield from task.compute(500)
            ticked = tick.triggered
            for ring in group._rings(replica):
                # The programs are lap-invariant, so a re-arm is a
                # doorbell write per ring, not WQE re-serialization.
                while self.due(ring):
                    ring.advance_lap(replica, max(ring.rounds // 2, 1))
                    yield from task.compute(300)
                if ticked:
                    # Keep hardware queues bounded; surface NIC errors.
                    for cq in ring.replica_cqs(replica):
                        for cqe in cq.poll(1 << 16):
                            if not cqe.ok:
                                group.errors.append(f"{ring.error_label(replica)}: {cqe!r}")
