"""One-sided remote reads from the client to any replica.

Storage systems read from replicas with RDMA READ — no replica CPU —
for lock words, lock-free one-sided value reads (the FaRM-style mode
§5 mentions), and recovery catch-up. This helper owns one *channel*
per replica: a dedicated QP whose bounce buffer is cut into
``_LANES`` lanes, so that many batches can be in flight on it at once.
An RC QP keeps many READs outstanding and completes them in post
order, and two reads of one copy do not conflict.

Reads go out in batches, and posting is split from waiting the way
``group.submit`` splits it for writes. :meth:`RemoteReader.post` takes
a lane of the replica's channel, lays the batch's extents back to back
in the lane's slice of the bounce buffer — one READ WQE per run of
adjacent extents, at most the lane's share of the send ring — and
rings one doorbell; :meth:`PostedReads.wait` parks once until the
batch's last completion, copies the extents out and gives the lane
back. A batch queues only once every lane of its replica is held. A
caller that reads several replicas posts to all of them before it
waits on any (in one global order, or two such callers could each
hold the last lane the other queues on). :meth:`RemoteReader.preadv`
is post + wait and :meth:`RemoteReader.pread` its one-extent case.

Completion is counted by *posted index*: every WQE on a channel's QP
is a signaled READ, so the QP's ``i``-th WQE has completed exactly
when its CQ has seen ``i + 1`` completions. A batch waits for the
index of its own last WQE, and whichever batch polls the CQ marks each
error completion on the lane whose READ it was, so only the batch that
posted a failed READ raises. A lane is not reused before the READs
last posted into it have landed: a reader closed with READs in flight
leaves them to land in its lane, never in another batch's bytes.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from ..hw.cpu import Task
from ..hw.host import Host
from ..hw.wqe import FLAG_SIGNALED, FLAG_VALID, Cqe, Opcode, Wqe
from ..obs.trace import TRACER
from ..sim import Resource
from .verbs import Mr, QueuePair

__all__ = ["RemoteReader", "PostedReads"]

_BUFFER_SIZE = 1 << 16
_LANES = 4
_LANE_SIZE = _BUFFER_SIZE // _LANES

Extent = Tuple[int, int]
"""``(offset, size)`` within a replica's region."""


class _Lane:
    """One slice of a channel's bounce buffer and the READs last posted
    into it: posted indices ``[first, expect)``, landed once the CQ has
    seen ``expect`` completions. ``error`` is the first of them that
    completed in error; ``held`` is whether a batch owns the lane."""

    __slots__ = ("buffer_addr", "first", "expect", "error", "held")

    def __init__(self, buffer_addr: int):
        self.buffer_addr = buffer_addr
        self.first = 0
        self.expect = 0
        self.error: Optional[Cqe] = None
        self.held = False


class _Channel:
    """What reading one replica takes: the QP, its lanes (read back
    through the client NIC's cache), the replica's region key, and
    ``slots`` — one per lane, so a batch queues only when every lane is
    held."""

    __slots__ = ("qp", "slots", "lanes", "cache", "mr")

    def __init__(self, qp: QueuePair, slots: Resource, buffer_addr: int, cache, mr: Mr):
        self.qp = qp
        self.slots = slots
        self.lanes = tuple(
            _Lane(buffer_addr + index * _LANE_SIZE) for index in range(_LANES)
        )
        self.cache = cache
        self.mr = mr

    def take_lane(self) -> _Lane:
        """The lowest free lane whose READs have all landed, else the
        free lane that will land first. A slot is held, so one is free."""
        total = self.qp.send_cq.completions_total
        for lane in self.lanes:
            if not lane.held and lane.expect <= total:
                break
        else:
            lane = min(
                (lane for lane in self.lanes if not lane.held),
                key=lambda lane: lane.expect,
            )
        lane.held = True
        return lane

    def collect(self) -> None:
        """Poll every completion the CQ holds, marking each error on the
        lane whose READ it was: the CQ's ``k``-th completion is the QP's
        ``k``-th WQE. An error of READs a closed reader abandoned on a
        lane since reused falls in no lane's range and is dropped."""
        cq = self.qp.send_cq
        entries = cq.poll(len(cq.entries))
        index = cq.completions_total - len(entries)
        for cqe in entries:
            if not cqe.ok:
                for lane in self.lanes:
                    if lane.first <= index < lane.expect and lane.error is None:
                        lane.error = cqe
            index += 1


class PostedReads:
    """A batch of READs in flight on one lane of a replica's channel.

    What :meth:`RemoteReader.post` hands back. The ticket owns the lane
    until :meth:`wait` has returned (or raised) or :meth:`abandon`
    gives it back unread — exactly once either way: abandoning a
    collected or already abandoned ticket does nothing, so a caller
    holding several tickets may abandon them all on its way out.
    """

    __slots__ = ("extents", "_channel", "_lane", "_posted")

    def __init__(self, channel: _Channel, extents: List[Extent]):
        self.extents = extents
        self._channel: Optional[_Channel] = channel
        self._lane: Optional[_Lane] = None
        self._posted = 0  # extents[:_posted] have been posted

    def _post_next(self, task: Task) -> Generator:
        """Post the longest run of not-yet-posted extents that fits the
        lane and its share of the send ring: one doorbell."""
        channel, lane = self._channel, self._lane
        qp, mr = channel.qp, channel.mr
        share = qp.send_slots // _LANES
        wqes: List[Wqe] = []
        filled = 0
        end = None  # remote offset just past the previous extent
        for offset, size in self.extents[self._posted :]:
            if filled + size > _LANE_SIZE:
                break
            if offset == end:
                # Adjacent in the region, adjacent in the lane: the
                # same READ fetches both.
                wqes[-1].length += size
            elif len(wqes) == share:
                break
            else:
                wqes.append(
                    Wqe(
                        opcode=Opcode.READ,
                        flags=FLAG_VALID | FLAG_SIGNALED,
                        length=size,
                        local_addr=lane.buffer_addr + filled,
                        remote_addr=mr.addr + offset,
                        rkey=mr.rkey,
                    )
                )
            filled += size
            end = offset + size
            self._posted += 1
        yield from task.compute(qp.post_cost(len(wqes)))
        lane.first = qp.post_send_batch(wqes)
        lane.expect = lane.first + len(wqes)
        lane.error = None
        if TRACER.enabled:
            TRACER.count("reader.batches")
            TRACER.count("reader.wqes", len(wqes))

    def wait(self, task: Task) -> Generator:
        """Park until the batch's last READ has completed, copy the
        extents out of the lane and give it back. Returns one ``bytes``
        per extent, in the order given.

        A batch too large for one post goes out as consecutive
        sub-batches here, each when the one before it is collected.
        The lane is given back on every way out: results, an error
        completion of the batch's own, or the generator being closed
        while parked.
        """
        channel = self._channel
        if channel is None:
            raise RuntimeError("this read batch already gave its lane back")
        lane = self._lane
        cq = channel.qp.send_cq
        results: List[bytes] = []
        try:
            while True:
                yield from task.wait(cq.threshold_event(lane.expect))
                channel.collect()
                if lane.error is not None:
                    raise RuntimeError(f"pread failed: {lane.error!r}")
                address = lane.buffer_addr
                for _, size in self.extents[len(results) : self._posted]:
                    results.append(channel.cache.read(address, size))
                    address += size
                if self._posted == len(self.extents):
                    return results
                yield from self._post_next(task)
        finally:
            self.abandon()

    def abandon(self) -> None:
        """Give the lane back without collecting the batch.

        READs already posted still complete into the lane; its next
        holder waits them out before it posts.
        """
        channel, self._channel = self._channel, None
        if channel is not None:
            if self._lane is not None:
                self._lane.held = False
            channel.slots.release()


class RemoteReader:
    """Client-side READ channels to each replica's region."""

    def __init__(self, client: Host, replicas: Sequence[Host], mrs: Sequence[Mr], name: str):
        buffer_region = client.memory.alloc(
            _BUFFER_SIZE * len(mrs), label=f"{name}.readbuf"
        )
        # A crash of the client NIC drops READs in flight without
        # completions: a channel's CQ can then never catch up with what
        # was posted, and the reader is dead (see post).
        self._nic = client.nic
        self._nic_crashes = client.nic.crashes
        self._channels: List[_Channel] = []
        for index, replica in enumerate(replicas):
            qp = client.dev.create_qp(send_slots=32, recv_slots=8, name=f"{name}.rd{index}")
            remote = replica.dev.create_qp(send_slots=8, recv_slots=8, name=f"{name}.rd{index}r")
            qp.connect(remote)
            self._channels.append(
                _Channel(
                    qp=qp,
                    slots=Resource(client.sim, capacity=_LANES, name=f"{name}.rdlanes{index}"),
                    buffer_addr=buffer_region.addr + index * _BUFFER_SIZE,
                    cache=client.nic.cache,
                    mr=mrs[index],
                )
            )

    def backlog(self, replica: int) -> int:
        """Batches in flight on a replica's channel plus those queued
        for a lane of it."""
        slots = self._channels[replica].slots
        return slots.in_use + slots.queue_length

    def pread(self, task: Task, replica: int, offset: int, size: int) -> Generator:
        """RDMA READ ``size`` bytes at ``offset`` of a replica's region.

        Pays the real round trip; returns the bytes. The one-extent
        case of :meth:`preadv`.
        """
        (data,) = yield from self.preadv(task, replica, [(offset, size)])
        return data

    def preadv(
        self, task: Task, replica: int, extents: Sequence[Extent]
    ) -> Generator:
        """RDMA READ every ``(offset, size)`` extent of a replica's
        region on one lane — one round trip unless the batch outgrows
        the lane or its share of the send ring. Returns the extents'
        bytes in the order given."""
        posted = yield from self.post(task, replica, extents)
        return (yield from posted.wait(task))

    def post(
        self, task: Task, replica: int, extents: Sequence[Extent]
    ) -> Generator:
        """Take a lane of the replica's channel and post the batch's
        READs. Returns the :class:`PostedReads` to wait on (or
        abandon); the caller owes it one or the other on every path."""
        extents = list(extents)
        if not extents:
            raise ValueError("a read batch needs at least one extent")
        channel = self._channels[replica]
        for offset, size in extents:
            if size > _LANE_SIZE:
                raise ValueError(f"pread larger than a bounce-buffer lane: {size}")
            if offset < 0 or offset + size > channel.mr.length:
                raise ValueError(f"pread [{offset}, {offset + size}) outside region")
        slots = channel.slots
        grant = slots.acquire()
        try:
            yield from task.wait(grant)
        except BaseException:
            # Closed (or failed) while queued, or granted but not yet
            # dispatched: pass the slot on the moment it is ours.
            grant.add_callback(lambda _granted: slots.release())
            raise
        posted = PostedReads(channel, extents)
        try:
            if self._nic.crashes != self._nic_crashes:
                raise RuntimeError(
                    "this reader outlived a crash of the client NIC, which "
                    "dropped its READs in flight: build a fresh one "
                    "(group.reattach_client)"
                )
            lane = posted._lane = channel.take_lane()
            cq = channel.qp.send_cq
            if cq.completions_total < lane.expect:
                # A closed reader abandoned READs on this lane. Let them
                # land first: the lane and its ring share are then this
                # batch's alone.
                yield from task.wait(cq.threshold_event(lane.expect))
            yield from posted._post_next(task)
        except BaseException:
            posted.abandon()
            raise
        return posted
