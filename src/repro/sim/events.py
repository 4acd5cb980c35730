"""Event primitives for the discrete-event simulation kernel.

The kernel (:mod:`repro.sim.kernel`) advances virtual time and resumes
processes. Processes communicate and block on the event types defined
here. An event is a one-shot occurrence: it starts *pending*, is
*triggered* exactly once (either succeeding with a value or failing
with an exception), and then notifies every registered callback.

Events deliberately mirror the small surface of SimPy that distributed
systems simulations actually need: plain events, timeouts, process
joins, and ``any``/``all`` composition.

Hot path
--------
Timeouts are, by an enormous margin, the most common event in any run
(every NIC engine step, every task sleep, every modelled delay is one),
so :class:`Timeout` carries a dispatch fast path: when a process yields
a fresh timeout that nothing else observes, the kernel skips the
generic trigger machinery — no callback registration, no
``_trigger`` walk — and the scheduled entry resumes the process
directly. The fast path performs exactly the same number of heap
operations in exactly the same order as the generic path, so event
interleavings (and therefore experiment results) are bit-for-bit
identical either way; ``Simulator(fast_dispatch=False)`` forces the
generic path and the equivalence is asserted by
``tests/unit/test_kernel_perf.py``.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Hop",
    "AnyOf",
    "AllOf",
    "EventFailed",
    "Interrupt",
]


class EventFailed(Exception):
    """Raised inside a process when the event it waited on failed."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries whatever object the interrupter
    supplied, typically a short human-readable reason.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.kernel.Simulator`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("sim", "name", "_callbacks", "_ok", "_value", "_triggered")

    def __init__(self, sim, name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._ok = True
        self._value: Any = None
        self._triggered = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event has occurred (succeeded or failed)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value, or the exception if the event failed."""
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        self._trigger(True, value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(False, exception)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks:
            callback(self)

    # -- observation -------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` once the event triggers.

        If the event already triggered, the callback runs immediately.
        """
        if self._callbacks is None:
            callback(self)
        else:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Withdraw a callback registered with :meth:`add_callback`.

        A no-op once the event has triggered (the callback has run) or
        if the callback was never registered. A waiter that stopped
        caring calls this so a long-lived event does not collect the
        callbacks of everyone who ever looked at it.
        """
        if self._callbacks:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

    def __repr__(self) -> str:
        state = "triggered" if self._triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires automatically after a virtual-time delay.

    Created via :meth:`repro.sim.kernel.Simulator.timeout`; the kernel
    schedules the trigger at construction.

    Instances handed out by ``Simulator.timeout`` are **kernel-owned
    once yielded bare from a process**: after the process resumes, the
    object may be recycled into the simulator's timeout pool and reused
    for a later ``timeout()`` call. Yield-and-discard (the universal
    pattern) is always safe; retaining a reference across the yield and
    inspecting ``.value``/``.triggered`` on a *later* step is not.
    Timeouts composed into :class:`AnyOf`/:class:`AllOf` — or observed
    via :meth:`add_callback` — are never claimed or recycled.
    """

    __slots__ = ("delay", "_proc", "_tvalue")

    def __init__(self, sim, delay: int, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ inlined: timeouts are constructed millions of
        # times per run and the extra frame (plus a formatted name
        # nobody reads) measurably costs; __repr__ renders the delay.
        self.sim = sim
        self.name = ""
        self._callbacks = []
        self._ok = True
        self._value = None
        self._triggered = False
        self.delay = delay
        self._tvalue = value
        self._proc = None
        if sim._fast_dispatch:
            # Fast-dispatch arm: schedule a *fire marker* — the Timeout
            # itself with ``None`` args — which the batched run loop
            # recognizes and handles with Timeout._fire inlined, saving
            # a Python call on the hottest dispatch in any run.
            if delay == 0 and sim._batch is not None:
                sim._batch.append((self, None))
            else:
                sim._sequence += 1
                heappush(sim._queue, (sim.now + delay, sim._sequence, self, None))
        else:
            sim._sequence += 1
            heappush(sim._queue, (sim.now + delay, sim._sequence, self._fire, ()))

    def _fire(self) -> None:
        """Scheduled trigger. If a process claimed this timeout (it
        yielded it bare), resume the process directly; otherwise fall
        back to the generic trigger machinery."""
        proc = self._proc
        value = self._tvalue
        if proc is None:
            self.succeed(value)
            return
        self._proc = None
        if proc._waiting_on is not self:
            # The claiming process was interrupted while waiting; the
            # trigger still happens for any late observers.
            self.succeed(value)
            return
        proc._waiting_on = None
        self._triggered = True
        self._value = value
        callbacks = self._callbacks
        sim = self.sim
        batch = sim._batch
        # Resume via the queue (same timestamp, FIFO) exactly like the
        # generic path — or, while the kernel is draining this
        # timestamp's batch, append to it directly: the append lands in
        # seq order, so dispatch order is unchanged. Passing ``self``
        # lets the process recycle this timeout into the pool once the
        # generator has been resumed.
        if callbacks:
            self._callbacks = None
            if batch is not None:
                batch.append((proc._resume, (value, None)))
            else:
                sim._sequence += 1
                heappush(
                    sim._queue, (sim.now, sim._sequence, proc._resume, (value, None))
                )
            # Observers registered after the claim (rare): notify them
            # in registration order, after the process resume was
            # enqueued — the same order the generic path produces.
            for callback in callbacks:
                callback(self)
        else:
            # Keep the (empty) callback list: the instance is headed
            # for the pool and the rearm in Simulator.timeout reuses
            # it, skipping a list allocation per simulated delay.
            if batch is not None:
                batch.append((proc._resume, (value, self)))
            else:
                sim._sequence += 1
                heappush(
                    sim._queue, (sim.now, sim._sequence, proc._resume, (value, self))
                )

    def __repr__(self) -> str:
        state = "triggered" if self._triggered else "pending"
        return f"<Timeout +{self.delay} {state}>"


class Hop(Event):
    """A zero-delay re-dispatch point.

    Yielding a hop parks the process for exactly one event-queue hop at
    the current timestamp — the same single ``(now, seq)`` resume push
    a pre-triggered event produces — without allocating an event or
    walking callbacks. It is the cheap way for an engine that already
    *has* its next work item (e.g. via ``Store.try_get``) to keep the
    dispatch interleaving identical to blocking on ``Store.get``:
    same-time work queued by other actors still runs in between.

    The instance never triggers and is reusable; get one via
    :meth:`~repro.sim.kernel.Simulator.hop`. Yield it bare — composing
    it into ``AnyOf``/``AllOf`` or adding callbacks will deadlock.
    """

    __slots__ = ()


class _Condition(Event):
    """Common machinery for :class:`AnyOf` and :class:`AllOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim, events: Iterable[Event]):
        super().__init__(sim)
        self.events: List[Event] = list(events)
        self._pending = len(self.events)
        if not self.events:
            # Degenerate composition triggers immediately.
            self.succeed(self._result())
            return
        for event in self.events:
            if self._triggered:
                # A child that had already triggered decided it.
                break
            event.add_callback(self._on_child)

    def _result(self) -> dict:
        return {
            event: event._value for event in self.events if event._triggered
        }

    def _detach(self) -> None:
        """The condition is decided: withdraw from the children that
        have not triggered. A child may be long-lived (a CQ's channel
        event, a shutdown flag) and waited on again and again; without
        this it keeps one dead callback, and through it one dead
        condition, per wait."""
        on_child = self._on_child
        for event in self.events:
            event.remove_callback(on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when the first of its child events triggers.

    The value is a dict mapping each already-triggered child event to
    its value.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        self._detach()
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed(self._result())


class AllOf(_Condition):
    """Triggers once all child events have triggered.

    Fails fast if any child fails. The value is a dict of every child
    event to its value.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self._detach()
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._result())
