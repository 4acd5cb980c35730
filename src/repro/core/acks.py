"""Reaping group acks: one routine for every group type.

Every group acks an op with a WRITE_WITH_IMM into the client's ack
region, which consumes a RECV on the client's ack QP and pushes a CQE.
:meth:`AckReaper.reap` handles those CQEs for all four group types:
check each, read its round's result, re-post the RECV and succeed the
op's ack event, in round order. Who runs it is the ``client_mode``:

* ``"event"`` — the ack CQs' completion channel, when a CQE is pushed
  (its hook). The thread the kernel wakes (``ibv_get_cq_event``) is
  the one waiting on the op: one wake per ack wait, no completion
  thread in between. It pays the poll, :data:`POLL_NS` per ack, as it
  resumes (:meth:`AckReaper.wait`).
* ``"polling"`` — a client thread that busy-polls the channel and pays
  the poll itself; waiters resume at no further charge. It spins only
  while every ack CQ is empty, so it notices acks as every poller does
  (``Task.poll_wait``: one check per spin, none for a queued ack).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Union

from ..hw.cpu import OperatingSystem, Task
from ..hw.nic import CompletionChannel, HwCq
from ..hw.wqe import Cqe
from ..sim import Event, Simulator

__all__ = ["AckReaper", "POLL_NS"]

POLL_NS = 300
"""Client CPU to poll and handle one ack CQE."""


@dataclass(slots=True)
class _AckQueue:
    """One ack CQ: ``parse(round_)`` reads a round's result, ``repost()``
    re-posts its RECV, and acks carry ``round % lap`` as immediate.
    ``send_cq``, if any, is the client send CQ of the same path; it
    holds only errors (the client's WQEs are posted non-signaled).
    ``last_ack_ns`` is when the newest round was acked (``None`` before
    the first): the Available-Copies rules validate copies by it."""

    cq: HwCq
    parse: Callable[[int], object]
    repost: Callable[[], object]
    lap: int
    label: str
    send_cq: Optional[HwCq]
    rank: int
    waiters: Dict[int, Event] = field(default_factory=dict)
    expected: int = 0
    last_ack_ns: Optional[int] = None


class AckReaper:
    """A group's client-side ack handling (see the module docstring).

    ``errors`` is the group's error list; all four group types poll alike.
    """

    def __init__(self, sim: Simulator, name: str, client_mode: str, errors: List[str]):
        if client_mode not in ("event", "polling"):
            raise ValueError(f"bad client_mode {client_mode!r}")
        self.sim = sim
        self.name = name
        self.client_mode = client_mode
        self.errors = errors
        self.channel = CompletionChannel(sim, f"{name}.acks")
        self.queues: List[_AckQueue] = []
        self._owner: Dict[HwCq, _AckQueue] = {}
        self.stopped = False

    def attach(
        self, cq: HwCq, parse: Callable[[int], object], repost: Callable[[], object],
        lap: int, label: str = "", send_cq: Optional[HwCq] = None, rank: int = 0,
    ) -> _AckQueue:
        """Reap ``cq`` (and watch ``send_cq`` for errors) from now on,
        serving queues in ``rank`` order whatever order they were
        attached in. Returns the queue; fill its ``waiters``, the
        round → ack event map."""
        queue = _AckQueue(cq, parse, repost, lap, label, send_cq, rank)
        for attached in (cq, send_cq):
            if attached is not None:
                self.channel.attach(attached)
                self._owner[attached] = queue
        self.queues.append(queue)
        self.queues.sort(key=lambda queue: queue.rank)
        return queue

    def start(self, os: OperatingSystem, core: Optional[int] = None) -> None:
        """Hook the channel, or in polling mode spawn the polling thread."""
        if self.client_mode == "event":
            self.channel.hook = self._on_push
        else:
            os.spawn(self._poll_body, name=f"{self.name}.acks", pinned_core=core)

    def stop(self) -> None:
        """Reap nothing more: later CQEs stay on their CQs."""
        self.stopped = True

    def reap(self, queue: _AckQueue, cqes: Sequence[Cqe]) -> None:
        """The one reaping routine, over ``cqes`` polled off ``queue``'s
        CQ. An error CQE lands in ``errors`` and acks no round."""
        for cqe in cqes:
            if not cqe.ok:
                self.errors.append(f"{queue.label} ack error: {cqe!r}".lstrip())
                continue
            round_ = queue.expected
            queue.expected += 1
            if cqe.imm != round_ % queue.lap:
                where = f"{queue.label}: " if queue.label else ""
                self.errors.append(f"{where}imm {cqe.imm} != position {round_ % queue.lap}")
            queue.last_ack_ns = self.sim.now
            result = queue.parse(round_)
            queue.repost()
            waiter = queue.waiters.pop(round_, None)
            if waiter is not None:
                waiter.succeed(result)

    def wait(self, task: Task, acks: Union[Event, Sequence[Event]]) -> Generator:
        """Park ``task`` until ``acks`` — one ack event, or a list of
        them — fired; returns its value, or theirs in order. In event
        mode the task woken is the one that polls: it pays
        :data:`POLL_NS` per ack as it resumes."""
        single = isinstance(acks, Event)
        yield from task.wait(acks if single else task.sim.all_of(acks))
        if self.client_mode == "event":
            yield from task.compute(POLL_NS * (1 if single else len(acks)))
        return acks.value if single else [ack.value for ack in acks]

    def _on_push(self, cq: HwCq) -> None:
        if not self.stopped:
            queue = self._owner[cq]
            reap = self.reap if cq is queue.cq else self._send_errors
            reap(queue, cq.poll(64))

    def _send_errors(self, queue: _AckQueue, cqes: Sequence[Cqe]) -> None:
        # On a lossy fabric: the NIC's RC retransmission giving up.
        for cqe in cqes:
            if not cqe.ok:
                self.errors.append(f"{queue.label} send error: {cqe!r}".lstrip())

    def _drain_send_errors(self, task: Task) -> Generator:
        for queue in self.queues:
            if queue.send_cq is not None and queue.send_cq.entries:
                cqes = queue.send_cq.poll(64)
                yield from task.compute(POLL_NS * len(cqes))
                self._send_errors(queue, cqes)

    def _poll_body(self, task: Task) -> Generator:
        """The polling thread: spin on the channel, then reap every ack
        CQ holding entries, in rank order, paying the poll."""
        while not self.stopped:
            yield from self._drain_send_errors(task)
            pending = [queue for queue in self.queues if queue.cq.entries]
            if not pending:
                yield from task.poll_wait(self.channel.next_event())
                if self.stopped:
                    return
                yield from self._drain_send_errors(task)
                pending = [queue for queue in self.queues if queue.cq.entries]
            for queue in pending:
                cqes = queue.cq.poll(64)
                yield from task.compute(POLL_NS * len(cqes))
                self.reap(queue, cqes)
