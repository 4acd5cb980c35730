"""A minimal RDMA SEND/RECV RPC layer.

Used for the *native* storage-server path: a client machine sends a
query to a server process (e.g. a MongoDB primary), whose daemon must
be scheduled onto a CPU to parse, execute and reply. This is exactly
the path HyperLoop removes from replication — the RPC layer exists so
the baseline systems can keep it.

One :class:`RpcServer` task serves one request at a time (a mongod
worker); requests and responses are byte strings. The server daemon
supports event-driven and polling completion handling, like the
replica daemons.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from ..hw.cpu import Task
from ..hw.host import Host
from ..hw.nic import CompletionChannel
from ..hw.wqe import FLAG_VALID, Opcode, Wqe
from ..sim import Resource

__all__ = ["RpcServer", "RpcChannel"]

_MAX_MSG = 16 * 1024
_SLOTS = 64


class RpcServer:
    """Serves byte-string requests with a host task.

    Parameters
    ----------
    host:
        Where the server process runs.
    handler:
        ``handler(task, request: bytes) -> Generator[..., bytes]`` —
        a task-generator returning the response bytes. It runs on the
        server's CPU with all the scheduling that implies.
    mode:
        ``"event"`` or ``"polling"`` completion handling.
    """

    def __init__(
        self,
        host: Host,
        handler: Callable[[Task, bytes], Generator],
        mode: str = "event",
        pinned_core: Optional[int] = None,
        name: str = "rpc",
    ):
        if mode not in ("event", "polling"):
            raise ValueError(f"bad rpc mode {mode!r}")
        self.host = host
        self.handler = handler
        self.mode = mode
        self.name = name
        self._buffers = host.memory.alloc(_SLOTS * _MAX_MSG, label=f"{name}.bufs")
        self._channels: List["RpcChannel"] = []
        # The epoll: every channel's server recv CQ joins it, also one
        # attached while the server is parked on it.
        self._requests = CompletionChannel(host.sim, f"{name}.requests")
        self._next_slot = 0
        self.requests_served = 0
        self.task = host.os.spawn(self._body, name=name, pinned_core=pinned_core)

    def attach(self, client_host: Host, name: str = "") -> "RpcChannel":
        """Create a channel from ``client_host`` to this server."""
        channel = RpcChannel(client_host, self, name or f"{self.name}.ch{len(self._channels)}")
        self._channels.append(channel)
        self._requests.attach(channel.server_qp.recv_cq)
        for _ in range(4):
            self._post_recv(channel)
        return channel

    def _post_recv(self, channel: "RpcChannel") -> None:
        slot = self._next_slot % _SLOTS
        self._next_slot += 1
        channel.server_qp.post_recv(
            Wqe(local_addr=self._buffers.addr + slot * _MAX_MSG, length=_MAX_MSG, wr_id=slot)
        )

    def _body(self, task: Task) -> Generator:
        while True:
            # Wait for a request on any channel. A real server has one
            # epoll across connections; here channels share the serving
            # task, and each channel has its own CQ.
            cqe, channel = yield from self._next_request(task)
            yield from task.compute(1_000)  # demux + dispatch
            request = self.host.nic.cache.read(
                self._buffers.addr + cqe.wr_id * _MAX_MSG, cqe.byte_len
            )
            self._post_recv(channel)
            response = yield from self.handler(task, request)
            if len(response) > _MAX_MSG:
                raise ValueError("rpc response too large")
            staging = self._buffers.addr + (cqe.wr_id % _SLOTS) * _MAX_MSG
            self.host.nic.host_write(staging, response)
            yield from task.compute(channel.server_qp.post_cost(1))
            channel.server_qp.post_send(
                Wqe(
                    opcode=Opcode.SEND,
                    flags=FLAG_VALID,
                    length=len(response),
                    local_addr=staging,
                )
            )
            self.requests_served += 1

    def _next_request(self, task: Task) -> Generator:
        while True:
            for channel in self._channels:
                cqes = channel.server_qp.recv_cq.poll(1)
                if cqes:
                    return cqes[0], channel
            wake = self._requests.next_event()
            if self.mode == "polling":
                yield from task.poll_wait(wake)
            else:
                yield from task.wait(wake)


class RpcChannel:
    """Client endpoint: serialized request/response over one QP pair."""

    def __init__(self, client_host: Host, server: RpcServer, name: str):
        self.client_host = client_host
        self.server = server
        self.name = name
        self.client_qp = client_host.dev.create_qp(
            send_slots=_SLOTS, recv_slots=_SLOTS, name=f"{name}.c"
        )
        self.server_qp = server.host.dev.create_qp(
            send_slots=_SLOTS, recv_slots=_SLOTS, name=f"{name}.s"
        )
        self.client_qp.connect(self.server_qp)
        self._buffers = client_host.memory.alloc(2 * _MAX_MSG, label=f"{name}.bufs")
        self._lock = Resource(client_host.sim, capacity=1, name=f"{name}.lock")

    def call(self, task: Task, request: bytes) -> Generator:
        """Send ``request``; yields until the response arrives."""
        if len(request) > _MAX_MSG:
            raise ValueError("rpc request too large")
        yield from task.wait(self._lock.acquire())
        try:
            self.client_qp.post_recv(
                Wqe(local_addr=self._buffers.addr + _MAX_MSG, length=_MAX_MSG)
            )
            self.client_host.nic.host_write(self._buffers.addr, request)
            yield from task.compute(self.client_qp.post_cost(1) + 300)
            self.client_qp.post_send(
                Wqe(
                    opcode=Opcode.SEND,
                    flags=FLAG_VALID,
                    length=len(request),
                    local_addr=self._buffers.addr,
                )
            )
            cq = self.client_qp.recv_cq
            expect = cq.completions_total + 1
            cqe_count = yield from task.wait(cq.threshold_event(expect))
            cqes = cq.poll(1)
            response = self.client_host.nic.cache.read(
                self._buffers.addr + _MAX_MSG, cqes[0].byte_len
            )
        finally:
            self._lock.release()
        return response
