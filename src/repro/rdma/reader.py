"""One-sided remote reads from the client to any replica.

Storage systems read from replicas with RDMA READ — no replica CPU —
for lock words, lock-free one-sided value reads (the FaRM-style mode
§5 mentions), and recovery catch-up. This helper owns one *channel*
per replica: a dedicated QP, a bounce buffer and a lock.

Reads go out in batches, and posting is split from waiting the way
``group.submit`` splits it for writes. :meth:`RemoteReader.post` takes
the replica's channel, lays the batch's extents back to back in the
bounce buffer — one READ WQE per run of adjacent extents — and rings
one doorbell; :meth:`PostedReads.wait` parks once until the batch's
last completion, copies the extents out and gives the channel back. A
caller that reads several replicas posts to all of them before it
waits on any (in one global order, or two such callers deadlock on
each other's channels). :meth:`RemoteReader.preadv` is post + wait and
:meth:`RemoteReader.pread` its one-extent case. A channel is held from
post to wait: one hold per batch, so concurrent readers of one replica
take turns batch by batch, not READ by READ.

Completion is counted by *posted index*: every WQE on a channel's QP
is a signaled READ, so the QP's ``i``-th WQE has completed exactly
when its CQ has seen ``i + 1`` completions. A batch waits for the
index of its own last WQE — never for "one more completion than now",
which a READ abandoned by a closed reader would satisfy with the wrong
bytes.
"""

from __future__ import annotations

from typing import Generator, List, NamedTuple, Optional, Sequence, Tuple

from ..hw.cpu import Task
from ..hw.host import Host
from ..hw.wqe import FLAG_SIGNALED, FLAG_VALID, Opcode, Wqe
from ..obs.trace import TRACER
from ..sim import Resource
from .verbs import Mr, QueuePair

__all__ = ["RemoteReader", "PostedReads"]

_BUFFER_SIZE = 1 << 16

Extent = Tuple[int, int]
"""``(offset, size)`` within a replica's region."""


class _Channel(NamedTuple):
    """What reading one replica takes: the QP, the lock that serializes
    batches on it, its slice of the bounce buffer (read back through
    the client NIC's cache) and the replica's region key."""

    qp: QueuePair
    lock: Resource
    buffer_addr: int
    cache: object
    mr: Mr


class PostedReads:
    """A batch of READs in flight on one replica's channel.

    What :meth:`RemoteReader.post` hands back. The ticket owns the
    channel until :meth:`wait` has returned (or raised) or
    :meth:`abandon` gives it back unread — exactly once either way:
    abandoning a collected or already abandoned ticket does nothing, so
    a caller holding several tickets may abandon them all on its way
    out.
    """

    __slots__ = ("extents", "_channel", "_posted", "_expect")

    def __init__(self, channel: _Channel, extents: List[Extent]):
        self.extents = extents
        self._channel: Optional[_Channel] = channel
        self._posted = 0  # extents[:_posted] have been posted
        self._expect = 0  # CQ total at which they have all completed

    def _post_next(self, task: Task) -> Generator:
        """Post the longest run of not-yet-posted extents that fits the
        bounce buffer and the send ring: one doorbell."""
        channel = self._channel
        qp, mr = channel.qp, channel.mr
        wqes: List[Wqe] = []
        filled = 0
        end = None  # remote offset just past the previous extent
        for offset, size in self.extents[self._posted :]:
            if filled + size > _BUFFER_SIZE:
                break
            if offset == end:
                # Adjacent in the region, adjacent in the buffer: the
                # same READ fetches both.
                wqes[-1].length += size
            elif len(wqes) == qp.send_slots:
                break
            else:
                wqes.append(
                    Wqe(
                        opcode=Opcode.READ,
                        flags=FLAG_VALID | FLAG_SIGNALED,
                        length=size,
                        local_addr=channel.buffer_addr + filled,
                        remote_addr=mr.addr + offset,
                        rkey=mr.rkey,
                    )
                )
            filled += size
            end = offset + size
            self._posted += 1
        yield from task.compute(qp.post_cost(len(wqes)))
        self._expect = qp.post_send_batch(wqes) + len(wqes)
        if TRACER.enabled:
            TRACER.count("reader.batches")
            TRACER.count("reader.wqes", len(wqes))

    def wait(self, task: Task) -> Generator:
        """Park until the batch's last READ has completed, copy the
        extents out of the bounce buffer and release the channel.
        Returns one ``bytes`` per extent, in the order given.

        A batch too large for one post goes out as consecutive
        sub-batches here, each when the one before it is collected.
        The channel is released on every way out: results, an error
        completion, or the generator being closed while parked.
        """
        channel = self._channel
        if channel is None:
            raise RuntimeError("this read batch already gave its channel back")
        cq = channel.qp.send_cq
        results: List[bytes] = []
        try:
            while True:
                yield from task.wait(cq.threshold_event(self._expect))
                for cqe in cq.poll(len(cq.entries)):
                    if not cqe.ok:
                        raise RuntimeError(f"pread failed: {cqe!r}")
                address = channel.buffer_addr
                for _, size in self.extents[len(results) : self._posted]:
                    results.append(channel.cache.read(address, size))
                    address += size
                if self._posted == len(self.extents):
                    return results
                yield from self._post_next(task)
        finally:
            self.abandon()

    def abandon(self) -> None:
        """Give the channel back without collecting the batch.

        READs already posted still complete, in RC order ahead of
        anything posted later; the channel's next holder waits them out
        before it touches the ring or the bounce buffer.
        """
        channel, self._channel = self._channel, None
        if channel is not None:
            channel.lock.release()


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
                    lock=Resource(client.sim, capacity=1, name=f"{name}.rdlock{index}"),
                    buffer_addr=buffer_region.addr + index * _BUFFER_SIZE,
                    cache=client.nic.cache,
                    mr=mrs[index],
                )
            )

    def backlog(self, replica: int) -> int:
        """Batches holding or queued on a replica's channel."""
        lock = self._channels[replica].lock
        return lock.in_use + lock.queue_length

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
        region in one channel hold — one round trip unless the batch
        outgrows the send ring or the bounce buffer. Returns the
        extents' bytes in the order given."""
        posted = yield from self.post(task, replica, extents)
        return (yield from posted.wait(task))

    def post(
        self, task: Task, replica: int, extents: Sequence[Extent]
    ) -> Generator:
        """Take the replica's channel and post the batch's READs.
        Returns the :class:`PostedReads` to wait on (or abandon); the
        caller owes it one or the other on every path."""
        extents = list(extents)
        if not extents:
            raise ValueError("a read batch needs at least one extent")
        channel = self._channels[replica]
        for offset, size in extents:
            if size > _BUFFER_SIZE:
                raise ValueError(f"pread larger than bounce buffer: {size}")
            if offset < 0 or offset + size > channel.mr.length:
                raise ValueError(f"pread [{offset}, {offset + size}) outside region")
        lock = channel.lock
        grant = lock.acquire()
        try:
            yield from task.wait(grant)
        except BaseException:
            # Closed (or failed) while queued, or granted but not yet
            # dispatched: pass the channel on the moment it is ours.
            grant.add_callback(lambda _granted: lock.release())
            raise
        posted = PostedReads(channel, extents)
        try:
            if self._nic.crashes != self._nic_crashes:
                raise RuntimeError(
                    "this reader outlived a crash of the client NIC, which "
                    "dropped its READs in flight: build a fresh one "
                    "(group.reattach_client)"
                )
            qp = channel.qp
            if qp.send_cq.completions_total < qp.send_posted:
                # The previous holder abandoned READs in flight. Let
                # them land first: ring, CQ and bounce buffer are then
                # this batch's alone.
                yield from task.wait(qp.send_cq.threshold_event(qp.send_posted))
            if qp.send_cq.entries:
                qp.send_cq.poll(len(qp.send_cq.entries))
            yield from posted._post_next(task)
        except BaseException:
            posted.abandon()
            raise
        return posted
