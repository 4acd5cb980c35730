"""The discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of scheduled triggers and a
virtual clock in **integer nanoseconds**. Behaviour is expressed as
*processes*: Python generators that ``yield`` events to block on
(:mod:`repro.sim.events`). This is the same execution model as SimPy,
re-implemented here so the whole substrate is self-contained and every
scheduling decision is inspectable.

The kernel is the ceiling on every experiment's wall-clock time, so
its inner loop is deliberately hand-optimized (see
``docs/INTERNALS.md``, *Performance*): bare timeouts dispatch through
a claimed fast path with zero callback machinery, timeout objects are
pooled and recycled, same-timestamp work is dispatched in batches off
the heap, and generator resumption happens without per-step closure
allocation. :meth:`Simulator.run` is the only dispatch loop; its
order is exactly the ``(time, seq)`` order of a one-pop-at-a-time
loop, which the tests keep as a reference
(``tests/reference/one_pop.py``) and diff against.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, label, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, label))
>>> _ = sim.spawn(worker(sim, "a", 30))
>>> _ = sim.spawn(worker(sim, "b", 10))
>>> sim.run()
>>> log
[(10, 'b'), (30, 'a')]
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from .events import AllOf, Event, EventFailed, Timeout
from ..obs.trace import TRACER

__all__ = ["Simulator", "Process", "SimulationError"]

# Upper bound on pooled Timeout instances kept for reuse. Sized for
# "every concurrently-blocked engine in a large cluster", far above
# steady-state demand; beyond it, retired timeouts are simply dropped.
_TIMEOUT_POOL_MAX = 512


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (deadlock, bad yields, ...)."""


class Process(Event):
    """A running generator, joinable as an event.

    The process event triggers when the generator finishes: it succeeds
    with the generator's return value, or fails with the uncaught
    exception. Other processes may ``yield process`` to join it.
    """

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, sim, generator: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError(f"spawn() requires a generator, got {generator!r}")
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off the process at the current simulation time, but via
        # the event queue so spawn order does not reorder side effects
        # relative to already-scheduled work at the same timestamp.
        sim._schedule_call(0, self._resume, None, None)

    @property
    def alive(self) -> bool:
        """True until the generator has finished."""
        return not self._triggered

    # -- kernel plumbing ---------------------------------------------------

    def _resume(self, send_value: Any, recycle: Optional[Timeout]) -> None:
        """Advance the generator with ``send_value``.

        ``recycle`` is the claimed Timeout that produced this resume,
        returned to the simulator's pool once the step has run; every
        other resume passes ``None``.
        """
        sim = self.sim
        try:
            target = self.generator.send(send_value)
        except StopIteration as stop:
            if recycle is not None:
                sim._recycle_timeout(recycle)
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            if recycle is not None:
                sim._recycle_timeout(recycle)
            self.fail(exc)
            return
        if recycle is not None:
            pool = sim._timeout_pool
            if len(pool) < _TIMEOUT_POOL_MAX:
                pool.append(recycle)
        # _wait_on's claim check, inlined: this is the hottest branch
        # in the whole simulator (every bare timeout yield lands here).
        if (
            target.__class__ is Timeout
            and target._proc is None
            and not target._triggered
            and not target._callbacks
        ):
            target._proc = self
            self._waiting_on = target
            return
        self._wait_on(target)

    def _throw(self, exc: BaseException, _unused: Any) -> None:
        if self._triggered:
            return
        self._waiting_on = None
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate via event
            self.fail(err)
            return
        self._wait_on(target)

    # A failure delivered through the event queue: throw into the
    # generator, then wait on whatever it yields next.
    _deferred_throw = _throw

    def _wait_on(self, target: Any) -> None:
        """Block this process on ``target``.

        Fast path: a fresh, unobserved Timeout is *claimed* — its
        scheduled entry will resume this process directly, skipping
        callback registration and the trigger walk. The claim makes
        the same queue pushes in the same order as registering a
        callback would, so it never changes an event interleaving.
        """
        if (
            target.__class__ is Timeout
            and target._proc is None
            and not target._triggered
            and not target._callbacks
        ):
            target._proc = self
            self._waiting_on = target
            return
        if not isinstance(target, Event):
            self._throw(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes may only yield Event instances"
                ),
                None,
            )
            return
        self._waiting_on = target
        target.add_callback(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            # The process is no longer waiting on this event (something
            # resumed it directly); drop the stale wakeup.
            return
        self._waiting_on = None
        # Resume via the event queue (same timestamp, FIFO) rather than
        # synchronously: a trigger must never re-enter process code in
        # the middle of whatever call stack fired it. (Concretely: a
        # driver posting a receive must finish posting before the NIC
        # process that was blocked on that doorbell runs.)
        sim = self.sim
        batch = sim._batch
        if event._ok:
            if batch is not None:
                batch.append((self._resume, (event._value, None)))
            else:
                sim._sequence += 1
                heappush(
                    sim._queue,
                    (sim.now, sim._sequence, self._resume, (event._value, None)),
                )
        else:
            exc = event._value
            if not isinstance(exc, BaseException):
                exc = EventFailed(exc)
            if batch is not None:
                batch.append((self._deferred_throw, (exc, None)))
            else:
                sim._sequence += 1
                heappush(
                    sim._queue,
                    (sim.now, sim._sequence, self._deferred_throw, (exc, None)),
                )


class Simulator:
    """Event loop and virtual clock (integer nanoseconds).

    Parameters
    ----------
    seed:
        Seed for the simulator's root RNG. Components should derive
        their own streams via :meth:`rng` so experiment results are
        reproducible regardless of construction order.
    """

    def __init__(self, seed: int = 0):
        self.now: int = 0
        self.seed = seed
        self._queue: list = []
        self._sequence = 0
        self._running = False
        self._process_count = 0
        self._root_rng = random.Random(seed)
        self._timeout_pool: list = []
        # Active same-timestamp dispatch batch. While run() is
        # draining one timestamp, every push targeting the current
        # time appends here instead of touching the heap; the batch is
        # dispatched in append order, which equals seq order, so
        # interleavings match a one-pop-at-a-time loop exactly.
        self._batch: Optional[list] = None
        # Observability hook: None unless a tracer attached itself
        # (simulators constructed while tracing is enabled, or via
        # Tracer.install); run() then hands every dispatch to it.
        self._obs = None
        if TRACER.enabled:
            TRACER.install(self)

    # -- randomness --------------------------------------------------------

    def rng(self, label: str) -> random.Random:
        """Return a deterministic RNG stream for ``label``.

        Streams are independent of the order in which components ask
        for them: the stream seed is derived from ``(simulator seed,
        label)`` only.
        """
        return random.Random(f"{self.seed}/{label}")

    # -- event construction -------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now.

        Reuses a pooled instance when one is available; see
        :class:`~repro.sim.events.Timeout` for the (kernel-owned
        once yielded bare) ownership rule.
        """
        # Validate once, before the pool check: both the pooled and the
        # cold construction path must reject the same inputs, or the
        # same call site raises or not depending on pool state.
        delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            # Pooled instances arrive from Timeout._fire's claimed
            # path, which guarantees _proc is None, _ok is True, and
            # _callbacks is still an (empty) list — only the fields
            # that vary per arm need a store here.
            timeout._triggered = False
            timeout.delay = delay
            timeout._tvalue = value
            # Schedule the run loop's fire marker (timeout, None),
            # exactly as Timeout.__init__ does.
            if delay == 0 and self._batch is not None:
                self._batch.append((timeout, None))
            else:
                self._sequence += 1
                heappush(
                    self._queue,
                    (self.now + delay, self._sequence, timeout, None),
                )
            return timeout
        return Timeout(self, delay, value)

    def _recycle_timeout(self, timeout: Timeout) -> None:
        """Return a consumed claimed timeout to the pool."""
        pool = self._timeout_pool
        if len(pool) < _TIMEOUT_POOL_MAX:
            pool.append(timeout)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when all of ``events`` have triggered."""
        return AllOf(self, events)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        self._process_count += 1
        return Process(self, generator, name=name)

    # -- scheduling --------------------------------------------------------

    def call_at(self, time: int, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self.now}"
            )
        if time == self.now and self._batch is not None:
            self._batch.append((fn, args))
            return
        self._sequence += 1
        heappush(self._queue, (time, self._sequence, fn, args))

    def call_in(self, delay: int, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` ns."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        delay = int(delay)
        if delay == 0 and self._batch is not None:
            self._batch.append((fn, args))
            return
        self._sequence += 1
        heappush(self._queue, (self.now + delay, self._sequence, fn, args))

    def _schedule_call(self, delay: int, fn: Callable, a: Any, b: Any) -> None:
        delay = int(delay)
        if delay == 0 and self._batch is not None:
            self._batch.append((fn, (a, b)))
            return
        self._sequence += 1
        heappush(self._queue, (self.now + delay, self._sequence, fn, (a, b)))

    def _push(self, time: int, fn: Callable, args: tuple) -> None:
        if time == self.now and self._batch is not None:
            self._batch.append((fn, args))
            return
        self._sequence += 1
        heappush(self._queue, (time, self._sequence, fn, args))

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final value of :attr:`now`. When ``until`` is given
        the clock is advanced exactly to it even if the last event fired
        earlier, so back-to-back ``run(until=...)`` calls tile time.

        Dispatch happens in *same-timestamp batches*: every heap entry
        sharing the head timestamp is popped into a list, and the list
        is walked once. Pushes targeting the current time
        (claimed-timeout resumes, zero-delay calls) append to the same
        list instead of round-tripping through the heap. The popped
        entries were all pushed before any dispatch at this time, and
        appends happen in seq-assignment order, so the walk is exactly
        the ``(time, seq)`` order of a one-pop-at-a-time loop (the
        reference loop in ``tests/reference/one_pop.py``).

        An enabled tracer attached to this simulator observes every
        dispatch: it is looked up once per call, and each dispatch then
        goes through :meth:`~repro.obs.trace.Tracer.dispatch`, which
        times and records it around the same call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        obs = self._obs
        observe = obs.dispatch if obs is not None and obs.enabled else None
        self._running = True
        queue = self._queue
        pop = heappop
        batch: list = []
        index = -1
        # The batch stays installed across timestamps: between batches
        # no user code runs, so nothing can push while it is "idle".
        self._batch = batch
        try:
            while queue:
                time = queue[0][0]
                if until is not None and time > until:
                    break
                self.now = time
                del batch[:]
                index = -1
                while queue and queue[0][0] == time:
                    _time, _seq, fn, args = pop(queue)
                    batch.append((fn, args))
                # List iteration picks up entries appended mid-walk, so
                # work scheduled for the current time during dispatch
                # runs in this same batch, in push order.
                for index, (fn, args) in enumerate(batch):
                    if observe is not None:
                        observe(time, fn, args)
                    elif args is None:
                        # Claimed-timeout fire marker: fn is the Timeout
                        # itself and this is Timeout._fire inlined — the
                        # single hottest dispatch in any run, worth
                        # skipping a Python call for.
                        proc = fn._proc
                        value = fn._tvalue
                        if proc is None:
                            fn.succeed(value)
                        elif proc._waiting_on is not fn:
                            fn._proc = None
                            fn.succeed(value)
                        else:
                            fn._proc = None
                            proc._waiting_on = None
                            fn._triggered = True
                            fn._value = value
                            callbacks = fn._callbacks
                            if callbacks:
                                fn._callbacks = None
                                batch.append((proc._resume, (value, None)))
                                for callback in callbacks:
                                    callback(fn)
                            else:
                                batch.append((proc._resume, (value, fn)))
                    else:
                        fn(*args)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._batch = None
            if index + 1 < len(batch):
                # An exception escaped mid-batch: push the undispatched
                # tail back, in order, so the queue state stays
                # consistent (the entry that raised is consumed, like a
                # one-pop loop).
                for fn, args in batch[index + 1 :]:
                    self._sequence += 1
                    heappush(queue, (self.now, self._sequence, fn, args))
            del batch[:]
            self._running = False
        return self.now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Spawn ``generator``, run to completion, and return its result.

        Convenience for tests and benchmarks that drive one top-level
        scenario. Raises the process's exception if it failed.
        """
        process = self.spawn(generator, name=name)
        self.run()
        if not process.triggered:
            raise SimulationError(
                f"process {process.name!r} never finished; "
                "it is blocked on an event nobody will trigger"
            )
        if not process.ok:
            raise process.value
        return process.value
