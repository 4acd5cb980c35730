"""Discrete-event simulation kernel (integer-nanosecond clock).

Public surface:

* :class:`Simulator` — event loop, clock, process spawning, RNG streams.
* :class:`Process` — a running generator, joinable as an event.
* :class:`Event`, :class:`Timeout`, :class:`AllOf` — the things
  processes ``yield``.
* :class:`Resource`, :class:`TokenBucket` — shared resources.
* time helpers :data:`US`, :data:`MS`, :data:`SECOND` for readable
  nanosecond arithmetic.
"""

from .events import AllOf, Event, EventFailed, Timeout
from .kernel import Process, SimulationError, Simulator
from .resources import Resource, TokenBucket

US = 1_000
"""Nanoseconds per microsecond."""

MS = 1_000_000
"""Nanoseconds per millisecond."""

SECOND = 1_000_000_000
"""Nanoseconds per second."""

__all__ = [
    "Simulator",
    "Process",
    "SimulationError",
    "Event",
    "Timeout",
    "AllOf",
    "EventFailed",
    "Resource",
    "TokenBucket",
    "US",
    "MS",
    "SECOND",
]
