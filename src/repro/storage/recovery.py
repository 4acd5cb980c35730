"""Failure detection and chain repair (§5's control path).

HyperLoop accelerates the *data path* only; "group failures are
detected and repaired in an application specific manner" (§3.2), with
heartbeats and a configurable miss threshold (§5.1, citing the
heartbeat failure detector). This module provides that control path:

* :class:`HeartbeatMonitor` — each replica's CPU posts a tiny RDMA
  WRITE into the coordinator's heartbeat region every interval; the
  coordinator declares a replica failed after ``miss_threshold``
  consecutive missing beats.
* :class:`ChainRepair` — the §5.1 recovery flow: writes pause, a
  replacement host catches up by copying the region from a surviving
  replica (or from the coordinator's authoritative mirror), a fresh
  group is built over the new membership, and writes resume.

Rebuilding the group wholesale is deliberate: pre-posted WQE chains
are wired to specific QPs, and the paper likewise tears down and
re-establishes "a newly established HyperLoop data path" on
membership change rather than patching one in place.
"""

from __future__ import annotations

import struct
from typing import Callable, Collection, Generator, Optional, Sequence

from ..hw.cpu import Task
from ..hw.host import Host
from ..hw.nic import AccessFlags
from ..hw.wqe import FLAG_VALID, Opcode, Wqe
from ..obs.trace import TRACER
from ..sim import MS

__all__ = ["HeartbeatMonitor", "ChainRepair", "ClientReattach"]


class HeartbeatMonitor:
    """Heartbeats from replicas to the coordinator.

    Parameters
    ----------
    client:
        The coordinator host (receives beats).
    replicas:
        Hosts to monitor.
    interval:
        Beat period; a replica is suspected after
        ``miss_threshold * interval`` without a beat.
    """

    def __init__(
        self,
        client: Host,
        replicas: Sequence[Host],
        interval: int = 5 * MS,
        miss_threshold: int = 3,
        name: str = "hb",
    ):
        self.client = client
        self.replicas = list(replicas)
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.name = name
        self._region = client.memory.alloc(8 * len(self.replicas), label=f"{name}.beats")
        self._mr = client.dev.reg_mr(self._region, AccessFlags.REMOTE_WRITE)
        self._stopped = [False] * len(self.replicas)
        self._tasks = []
        for index, replica in enumerate(self.replicas):
            qp = replica.dev.create_qp(send_slots=16, recv_slots=8, name=f"{name}.r{index}")
            remote = client.dev.create_qp(send_slots=8, recv_slots=8, name=f"{name}.c{index}")
            qp.connect(remote)
            staging = replica.memory.alloc(8, label=f"{name}.r{index}.stage")
            task = replica.os.spawn(
                self._beat_body(index, qp, staging), name=f"{name}.r{index}.beat"
            )
            self._tasks.append(task)

    def _beat_body(self, index: int, qp, staging):
        def body(task: Task) -> Generator:
            while True:
                yield from task.sleep(self.interval)
                if self._stopped[index]:
                    return
                host = self.replicas[index]
                if host.down or host.nic.halted:
                    # A crashed/stalled replica can't reach the wire;
                    # posting would only overflow the send ring. Keep
                    # the task alive so beats resume after a restart.
                    continue
                host.nic.host_write(staging.addr, struct.pack("<Q", task.sim.now))
                yield from task.compute(qp.post_cost(1))
                qp.post_send(
                    Wqe(
                        opcode=Opcode.WRITE,
                        flags=FLAG_VALID,
                        length=8,
                        local_addr=staging.addr,
                        remote_addr=self._region.addr + index * 8,
                        rkey=self._mr.rkey,
                    )
                )

        return body

    def stop_beats(self, index: int) -> None:
        """Crash injection: the replica stops heart-beating."""
        self._stopped[index] = True

    def last_beat(self, index: int) -> int:
        """Timestamp of the last received beat (0 = never)."""
        raw = self.client.nic.cache.read(self._region.addr + index * 8, 8)
        return struct.unpack("<Q", raw)[0]

    def suspected(self, index: int) -> bool:
        """Whether the replica has missed ``miss_threshold`` beats."""
        now = self.client.sim.now
        deadline = self.miss_threshold * self.interval
        last = self.last_beat(index)
        reference = last if last else 0
        return now - reference > deadline

    def wait_for_suspicion(self, task: Task, exclude: Collection[int] = ()) -> Generator:
        """Block until some replica not in ``exclude`` is suspected;
        returns its index. Polls once per beat interval."""
        while True:
            for index in range(len(self.replicas)):
                if index not in exclude and self.suspected(index):
                    return index
            yield from task.sleep(self.interval)


class ChainRepair:
    """Membership change: catch up a replacement and rebuild the group.

    Parameters
    ----------
    group_factory:
        ``group_factory(replica_hosts) -> group`` building a fresh
        group (HyperLoop or Naïve) over the given membership with the
        same region size. Called once membership is decided.
    """

    def __init__(
        self,
        client: Host,
        group,
        group_factory: Callable,
        on_phase: Optional[Callable[[str], None]] = None,
    ):
        self.client = client
        self.group = group
        self.group_factory = group_factory
        self.paused = False
        self.repairs = 0
        # Control-path phase hook: called with "repair" the moment a
        # repair starts and "repair-done" once the new group is live.
        # Chaos scenarios feed this into ``FaultInjector.notify_phase``
        # so a plan can land a fault *inside* the repair window, whose
        # absolute time depends on detection latency; the transaction
        # layer's availability tracker uses the same hook to pause and
        # resume snapshot reads around the catch-up window.
        self.on_phase = on_phase

    def repair(
        self,
        task: Task,
        failed_index: int,
        replacement: Host,
        copy_from: Optional[int] = None,
    ) -> Generator:
        """Replace a failed replica; returns the new group.

        Writes must be paused by the caller for the duration (§5.1:
        "writes are paused for a short duration of catch-up phase").
        The replacement's region contents come from a surviving
        replica via one-sided READs — no survivor CPU involved — and
        are installed through the *new* group's chain so every member
        ends identical.
        """
        self.paused = True
        if self.on_phase is not None:
            self.on_phase("repair")
        started = task.sim.now
        if TRACER.enabled:
            TRACER.record(
                started,
                "B",
                "fault",
                "chain_repair",
                pid="recovery",
                tid=task.name,
                args={"failed": failed_index, "replacement": replacement.name},
            )
        survivors = [
            host
            for index, host in enumerate(self.group.replicas)
            if index != failed_index
        ]
        source = copy_from
        if source is None:
            source = 0 if failed_index != 0 else 1
        region_size = self.group.region_size
        # 1. Catch-up: pull the authoritative bytes from a survivor.
        chunk = 8192
        image = bytearray()
        for offset in range(0, region_size, chunk):
            size = min(chunk, region_size - offset)
            piece = yield from self.group.pread(task, source, offset, size)
            image.extend(piece)
        # 2. New membership: survivors keep their order, the
        #    replacement joins at the tail. The old group is retired —
        #    its chains are wired to the failed member's QPs.
        self.group.stop()
        members = survivors + [replacement]
        new_group = self.group_factory(members)
        if new_group.region_size != region_size:
            raise ValueError("replacement group must keep the region size")
        # 3. Install the image through the new chain so all members
        #    (including survivors' new regions) are identical.
        new_group.client_region.write(0, bytes(image))
        for offset in range(0, region_size, chunk):
            size = min(chunk, region_size - offset)
            yield from new_group.gwrite(task, offset, size)
        self.group = new_group
        self.paused = False
        self.repairs += 1
        if self.on_phase is not None:
            self.on_phase("repair-done")
        if TRACER.enabled:
            TRACER.record(
                task.sim.now,
                "E",
                "fault",
                "chain_repair",
                pid="recovery",
                tid=task.name,
                args={"catch_up_bytes": region_size},
            )
            TRACER.count("recovery.repairs")
        return new_group


class ClientReattach:
    """Client crash recovery: re-attach the coordinator to its group.

    The §3.2 "application specific" recovery flow for the *client*
    side. After the coordinator host restarts, its NIC has lost every
    volatile QP and ring — the old chain is unreachable from the
    client — but the replicas' regions are retained NIC/memory state
    holding the last replicated image. Recovery mirrors
    :class:`ChainRepair`:

    1. Rebuild a one-sided read path over fresh QPs
       (:meth:`~repro.core.base.GroupBase.reattach_client`).
    2. Pull the authoritative image from the chain *head* (replica 0):
       in chain replication every acked write has reached the head, so
       the head's bytes are a superset of everything acknowledged.
    3. Build a fresh group (fresh chains, fresh regions) over the same
       membership and install the image through the new chain, so all
       members end identical — including writes that were mid-chain at
       crash time, which re-converge to the head's view.
    """

    def __init__(self, client: Host, group, group_factory: Callable):
        self.client = client
        self.group = group
        self.group_factory = group_factory
        self.reattaches = 0

    def reattach(self, task: Task) -> Generator:
        """Recover after a client restart; returns the new group."""
        started = task.sim.now
        if TRACER.enabled:
            TRACER.record(
                started,
                "B",
                "fault",
                "client_reattach",
                pid="recovery",
                tid=task.name,
                args={"client": self.client.name},
            )
        old = self.group
        region_size = old.region_size
        old.stop()
        old.reattach_client()
        chunk = 8192
        image = bytearray()
        for offset in range(0, region_size, chunk):
            size = min(chunk, region_size - offset)
            piece = yield from old.pread(task, 0, offset, size)
            image.extend(piece)
        new_group = self.group_factory(list(old.replicas))
        if new_group.region_size != region_size:
            raise ValueError("reattached group must keep the region size")
        new_group.client_region.write(0, bytes(image))
        for offset in range(0, region_size, chunk):
            size = min(chunk, region_size - offset)
            yield from new_group.gwrite(task, offset, size)
        self.group = new_group
        self.reattaches += 1
        if TRACER.enabled:
            TRACER.record(
                task.sim.now,
                "E",
                "fault",
                "client_reattach",
                pid="recovery",
                tid=task.name,
                args={"catch_up_bytes": region_size},
            )
            TRACER.count("recovery.reattaches")
        return new_group
