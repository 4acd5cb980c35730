"""Shared-resource primitives built on the event kernel.

Two abstractions cover what the hardware models need:

* :class:`Resource` — N identical slots with a FIFO wait queue
  (used for e.g. DMA engines and link arbitration).
* :class:`TokenBucket` — a rate limiter for modelling line rates.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .events import Event
from .kernel import Simulator

__all__ = ["Resource", "TokenBucket"]


class Resource:
    """A pool of ``capacity`` identical slots with FIFO granting.

    Usage inside a process::

        grant = resource.acquire()
        yield grant
        try:
            ...  # hold the slot
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # Event names are formatted once here, not per acquire().
        self._grant_name = name + ".grant"

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of acquires waiting for a slot."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires when a slot is granted."""
        grant = Event(self.sim, self._grant_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed()
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Return a slot to the pool, granting the next waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot straight to the next waiter; _in_use is
            # unchanged because ownership transfers.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class TokenBucket:
    """A serialization-rate model: bytes per nanosecond with FIFO order.

    ``reserve(nbytes)`` books the serializer and returns the virtual
    time the last byte of the message has left, accounting for
    everything queued ahead of it. This models a link or engine that
    serializes work at a fixed rate without spawning a process per
    message; callers schedule what happens at drain time themselves
    (``Fabric.send`` pushes the delivery straight into the queue).
    """

    def __init__(self, sim: Simulator, bytes_per_ns: float, name: str = ""):
        if bytes_per_ns <= 0:
            raise ValueError("bytes_per_ns must be positive")
        self.sim = sim
        self.bytes_per_ns = bytes_per_ns
        self.name = name
        self._free_at = 0  # virtual time the serializer becomes idle

    def reserve(self, nbytes: int) -> int:
        """Queue ``nbytes`` behind the work already booked; returns the
        drain time (when the serializer is done with them)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        now = self.sim.now
        start = self._free_at if self._free_at > now else now
        self._free_at = start + int(round(nbytes / self.bytes_per_ns))
        return self._free_at
