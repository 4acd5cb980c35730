"""Multi-core CPU and OS scheduler model.

The paper's motivation (§2.2) is that replica *software* must be
scheduled onto a busy CPU before it can make progress, and in
multi-tenant servers that scheduling delay — not the network — is what
inflates tail latency. This module models that delay structurally
rather than sampling it from a fitted distribution.

Model (a deliberately small abstraction of CFS on a server kernel):

* Each :class:`Core` runs one task at a time. Switching tasks costs
  ``context_switch_ns`` and is counted (Figure 2 reports context-switch
  counts).
* Tasks are either **interactive** (recently slept — e.g. a replica
  daemon that just received a message) or **batch** (CPU-bound — e.g.
  stress tenants and busy-polling threads, which never sleep).
* A waking task goes to an idle core immediately. If every permitted
  core is busy, it queues; an interactive task preempts a batch task,
  but only at the core's next **tick** (dispatch granularity —
  on a real server kernel a CPU-bound task keeps running until the
  next scheduler tick even though ``need_resched`` is set). This tick
  deferral is the primary source of wakeup latency.
* A task that stays on-CPU for more than ``interactive_credit_ns``
  without sleeping is demoted to batch: busy-pollers cannot hold
  interactive priority.
* Batch tasks round-robin with a slice of
  ``clamp(sched_latency / runnable, min_granularity, sched_latency)``.

Task bodies are generator functions; CPU consumption is explicit::

    def daemon(task):
        while True:
            yield from task.wait(cq.next_event())  # blocked, no CPU
            entries = cq.poll()
            yield from task.compute(2 * US)   # scheduled, preemptible
            ...

``wait`` returning implies the task has been *dispatched again*, so
every wakeup pays the real scheduling delay of the moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Deque, Generator, List, Optional

from collections import deque

from ..obs.trace import TRACER
from ..sim import Event, Simulator, US, MS

__all__ = ["SchedParams", "OperatingSystem", "Task", "Core", "POLL_CHECK_NS"]

POLL_CHECK_NS = 200
"""CPU a busy-poller spends to notice an event it spun for."""


NEW = "new"
READY = "ready"
RUNNING = "running"
BLOCKED = "blocked"
DONE = "done"


@dataclass
class SchedParams:
    """Tunable scheduler constants (defaults approximate a Linux server).

    Attributes
    ----------
    context_switch_ns:
        Direct + indirect cost of switching a core between tasks.
    tick_ns:
        Dispatch granularity: a woken interactive task preempts a
        running batch task only at the next tick boundary.
    sched_latency_ns / min_granularity_ns:
        Batch round-robin slice is ``sched_latency / runnable`` clamped
        to ``[min_granularity, sched_latency]``.
    interactive_credit_ns:
        On-CPU time a task may accumulate since its last sleep before
        being demoted to batch priority.
    wakeup_fast_prob / wakeup_fast_ns:
        A wakeup onto a busy core usually preempts quickly —
        exponential with mean ``wakeup_fast_ns`` — modelling kernel
        exits, idle-balancer pulls and involuntary switch points; with
        probability ``1 - wakeup_fast_prob`` none of those arrive and
        the wakeup waits for the scheduler tick (``tick_ns``; 4 ms
        matches the HZ=250 server kernels of the paper's testbed).
        This two-regime behaviour is what gives CPU-driven replication
        its characteristic usually-fast / occasionally-awful tail.
    """

    context_switch_ns: int = 5 * US
    tick_ns: int = 4 * MS
    sched_latency_ns: int = 12 * MS
    min_granularity_ns: int = 3 * MS
    interactive_credit_ns: int = 2 * MS
    wakeup_fast_prob: float = 0.95
    wakeup_fast_ns: int = 60 * US


class Core:
    """One hardware thread: current task, queues, and accounting."""

    def __init__(self, os_: "OperatingSystem", index: int):
        self.os = os_
        self.index = index
        self.current: Optional[Task] = None
        self.last_task: Optional[Task] = None
        self.interactive_queue: Deque[Task] = deque()
        self.batch_queue: Deque[Task] = deque()
        self.busy_ns = 0
        self.context_switches = 0
        self.enabled = True
        self._grant_started: Optional[int] = None

    @property
    def busy_ns_live(self) -> int:
        """Busy time including the currently-running grant."""
        if self._grant_started is None:
            return self.busy_ns
        return self.busy_ns + (self.os.sim.now - self._grant_started)

    @property
    def runnable(self) -> int:
        """Tasks running or waiting on this core."""
        waiting = len(self.interactive_queue) + len(self.batch_queue)
        return waiting + (1 if self.current is not None else 0)

    @property
    def idle(self) -> bool:
        return self.current is None

    def __repr__(self) -> str:
        return f"<Core {self.index} current={self.current} q={self.runnable}>"


class Task:
    """A schedulable thread of execution.

    Created via :meth:`OperatingSystem.spawn`. The body generator
    receives the task and drives CPU use through :meth:`compute`,
    :meth:`wait` and :meth:`sleep` (all ``yield from``-able).
    """

    def __init__(
        self,
        os_: "OperatingSystem",
        name: str,
        pinned_core: Optional[int],
    ):
        self.os = os_
        self.sim = os_.sim
        self.name = name
        self.pinned_core = pinned_core
        self.state = NEW
        self.interactive = True
        self.credit = os_.params.interactive_credit_ns
        self.core: Optional[Core] = None
        self.last_core: Optional[Core] = None
        self.cpu_ns = 0
        self.wakeups = 0
        self.slice_left = 0  # remaining quantum for this dispatch
        self._dispatch_event: Optional[Event] = None
        # The grant the task is running on, if any: the one event
        # compute()/poll_wait() park on (see _start_grant). _preempted
        # says whether the scheduler asked for the core back during it.
        self._grant_event: Optional[Event] = None
        self._preempted = False
        # Built once: every grant and every block allocates one event,
        # so per-call name formatting is measurable on scheduler-heavy
        # runs.
        self._grant_name = name + ".grant"
        self._dispatch_name = name + ".dispatch"
        self.process = None  # set by OperatingSystem.spawn

    # -- public generator API (use with ``yield from``) ---------------------

    def compute(self, ns: int) -> Generator:
        """Consume ``ns`` of CPU time, paying all scheduling delays."""
        if ns < 0:
            raise ValueError(f"negative compute time: {ns}")
        remaining = int(ns)
        while remaining > 0:
            if self.state != RUNNING:
                yield from self._await_dispatch()
            started = self.sim.now
            yield self._start_grant(self.os._grant(self, remaining))
            remaining -= self._end_grant(started)
            self.os._grant_ended(
                self, preempted=self._preempted, more_work=remaining > 0
            )

    def wait(self, event: Event) -> Generator:
        """Block until ``event`` triggers; returns its value.

        If the event already triggered, this returns immediately with
        no descheduling (so pollers gain nothing by "waiting" on ready
        events). Otherwise the task sleeps, regains interactive
        priority on wakeup, and the return is delayed by the real
        dispatch latency.
        """
        if event.triggered:
            if not event.ok:
                raise event.value if isinstance(event.value, BaseException) else RuntimeError(event.value)
            return event.value
        slept_from = self.sim.now
        self.os._block(self)
        value = yield event
        self.wakeups += 1
        if self.sim.now > slept_from:
            # Real sleep: regain interactive priority (CFS sleeper
            # fairness). A zero-length yield does not boost.
            self.interactive = True
            self.credit = self.os.params.interactive_credit_ns
        self.os._wake(self)
        yield from self._await_dispatch()
        return value

    def poll_wait(self, event: Event) -> Generator:
        """Busy-poll for ``event`` while holding the CPU.

        Models a polling thread faithfully but in O(preemptions)
        simulator events instead of one per poll iteration: the task
        *computes* (occupying its core, burning CPU, subject to
        normal preemption and demotion) until the event triggers. If
        the scheduler moves the task off-core, the event cannot be
        detected until the task runs again — which is exactly why
        polling under multi-tenancy has terrible tails.

        Returns the event's value. The one polling rule: noticing the
        event costs :data:`POLL_CHECK_NS`, once, and only if it had not
        fired when the call began; one already pending costs nothing.
        """
        spun = not event.triggered
        on_fire = self._on_polled_event
        while True:
            if self.state != RUNNING:
                yield from self._await_dispatch()
            if event.triggered:
                break
            started = self.sim.now
            grant = self._start_grant(self.os._grant(self, 1 << 62))
            # The awaited event ends the grant too. Registered per
            # grant and withdrawn when the grant ends some other way,
            # so a long wait leaves one callback on the event, not one
            # per grant.
            event.add_callback(on_fire)
            try:
                yield grant
            finally:
                event.remove_callback(on_fire)
            self._end_grant(started)
            if event.triggered:
                break
            self.os._grant_ended(self, preempted=self._preempted, more_work=True)
        if spun:
            yield from self.compute(POLL_CHECK_NS)
        if not event.ok:
            raise event.value if isinstance(event.value, BaseException) else RuntimeError(event.value)
        return event.value

    def sleep(self, ns: int) -> Generator:
        """Sleep for ``ns`` of virtual time, then wait for the CPU."""
        yield from self.wait(self.sim.timeout(ns))

    # -- internals -----------------------------------------------------------

    def _start_grant(self, length: int) -> Event:
        """Run on the core for up to ``length`` ns; returns the event
        to park on.

        A grant is that one event. Three parties may end it, whoever
        comes first: the length timer pushed here, the scheduler
        (:meth:`OperatingSystem._on_preempt_check`, which also sets
        ``_preempted``) and, under :meth:`poll_wait`, the awaited
        event. The timer stays queued if it lost; firing on an event
        that already triggered does nothing.
        """
        sim = self.sim
        grant = self._grant_event = Event(sim, self._grant_name)
        self._preempted = False
        if self.core is not None:
            self.core._grant_started = sim.now
        sim._push(sim.now + length, self._grant_ran_out, (grant,))
        return grant

    @staticmethod
    def _grant_ran_out(grant: Event) -> None:
        if not grant._triggered:
            grant.succeed()

    def _on_polled_event(self, event: Event) -> None:
        grant = self._grant_event
        if grant is not None and not grant._triggered:
            if event._ok:
                grant.succeed()
            else:
                grant.fail(event._value)

    def _end_grant(self, started: int) -> int:
        """The grant is over, however it ended: account the time run.
        ``_preempted`` keeps its answer until the next grant starts."""
        self._grant_event = None
        if self.core is not None:
            self.core._grant_started = None
        ran = self.sim.now - started
        self._account(ran)
        return ran

    def _await_dispatch(self) -> Generator:
        event = self._dispatch_event
        if event is None:
            raise RuntimeError(
                f"task {self.name!r} awaiting dispatch without being READY"
            )
        yield event
        self._dispatch_event = None

    def _account(self, ran: int) -> None:
        self.cpu_ns += ran
        self.slice_left -= ran
        if self.core is not None:
            self.core.busy_ns += ran
        if self.interactive:
            self.credit -= ran
            if self.credit <= 0:
                self.interactive = False

    def __repr__(self) -> str:
        return f"<Task {self.name} {self.state}>"


class OperatingSystem:
    """Scheduler for one host's cores.

    Parameters
    ----------
    sim:
        The simulation kernel.
    n_cores:
        Number of hardware threads.
    params:
        Scheduler constants; defaults are reasonable for the paper's
        testbed (dual 8-core Xeon, Linux 3.13).
    name:
        Host label for diagnostics.
    """

    def __init__(
        self,
        sim: Simulator,
        n_cores: int,
        params: Optional[SchedParams] = None,
        name: str = "host",
    ):
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.sim = sim
        self.name = name
        self.params = params or SchedParams()
        self.cores = [Core(self, i) for i in range(n_cores)]
        self.tasks: List[Task] = []  # live: a task leaves when its body ends
        self._rng = sim.rng(f"os/{name}")
        self._placement_cursor = 0

    # -- task creation ---------------------------------------------------------

    def spawn(
        self,
        body: Callable[[Task], Generator],
        name: str = "task",
        pinned_core: Optional[int] = None,
    ) -> Task:
        """Create and start a task running ``body(task)``."""
        if pinned_core is not None and not 0 <= pinned_core < len(self.cores):
            raise ValueError(f"no such core: {pinned_core}")
        task = Task(self, name, pinned_core)
        self.tasks.append(task)
        task.process = self.sim.spawn(self._main(task, body), name=f"{self.name}/{name}")
        return task

    def spawn_stress(self, name: str = "stress", pinned_core: Optional[int] = None) -> Task:
        """A CPU-bound tenant: computes forever, never sleeps."""

        def body(task: Task) -> Generator:
            while True:
                yield from task.compute(10 * MS)

        return self.spawn(body, name=name, pinned_core=pinned_core)

    def spawn_bursty(
        self,
        name: str = "bursty",
        busy_ns: int = 500 * US,
        idle_ns: int = 500 * US,
        pinned_core: Optional[int] = None,
    ) -> Task:
        """An I/O-intensive tenant: alternates compute and sleep.

        Unlike :meth:`spawn_stress` it wakes frequently (competing for
        interactive dispatch) but does not occupy a core permanently —
        the profile of a co-located storage instance serving requests.
        """

        def body(task: Task) -> Generator:
            rng = self.sim.rng(f"bursty/{self.name}/{name}")
            while True:
                yield from task.compute(max(1, int(rng.expovariate(1.0 / busy_ns))))
                yield from task.sleep(max(1, int(rng.expovariate(1.0 / idle_ns))))

        return self.spawn(body, name=name, pinned_core=pinned_core)

    def _main(self, task: Task, body: Callable[[Task], Generator]) -> Generator:
        # A new task starts like a woken one: it must get a core before
        # its first instruction runs.
        task.state = BLOCKED
        self._wake(task)
        yield from task._await_dispatch()
        try:
            result = yield from body(task)
            return result
        finally:
            self._exit(task)
            self.tasks.remove(task)

    # -- scheduling core -------------------------------------------------------

    def _grant(self, task: Task, want: int) -> int:
        """How long ``task`` may run before checking back in.

        Bounded by the remaining slice budget of the current
        dispatch: runtime accumulates across compute/poll calls, so a
        task serving a stream of small requests still exhausts its
        quantum and yields to waiters.
        """
        return min(want, max(task.slice_left, 1))

    def _slice_for(self, core: Core, task: Task) -> int:
        """Fresh quantum for a (re-)dispatched task."""
        if task.interactive:
            return max(task.credit, 1)
        runnable = max(core.runnable, 1)
        slice_ns = self.params.sched_latency_ns // runnable
        slice_ns = max(self.params.min_granularity_ns, slice_ns)
        slice_ns = min(self.params.sched_latency_ns, slice_ns)
        return slice_ns

    def _grant_ended(self, task: Task, preempted: bool, more_work: bool) -> None:
        """Decide what happens after a compute grant finishes."""
        core = task.core
        if core is None:  # defensive: should not happen
            return
        if not more_work:
            # Task keeps the core; it will either compute more or block.
            # If a preemptor fired right at the boundary, make sure the
            # waiting interactive work still gets its tick.
            if core.interactive_queue:
                self._arm_preemption(core, fast_eligible=False)
            return
        contested = bool(core.interactive_queue) or (
            not task.interactive and bool(core.batch_queue)
        )
        must_yield = preempted or (contested and task.slice_left <= 0)
        if must_yield:
            # Vacate: back of the appropriate queue, a waiter runs. The
            # waiter is always popped first (it was queued earlier), so
            # a task never hands the core to itself here.
            task.state = READY
            task.core = None
            task.last_core = core
            task._dispatch_event = Event(task.sim, task._dispatch_name)
            queue = core.interactive_queue if task.interactive else core.batch_queue
            queue.append(task)
            core.current = None
            self._dispatch_next(core)
        else:
            # Keep the core: renew in place (no context switch). The
            # quantum refreshes only when nobody is waiting.
            if not contested:
                task.slice_left = self._slice_for(core, task)
            self._dispatch(core, task, switch=False)

    def _block(self, task: Task) -> None:
        """Task is about to sleep: release its core."""
        core = task.core
        task.state = BLOCKED
        task.core = None
        if core is not None and core.current is task:
            task.last_core = core
            core.current = None
            self._dispatch_next(core)

    def _wake(self, task: Task) -> None:
        """Task's event fired: find it a core or queue it."""
        task.state = READY
        if task._dispatch_event is None:
            task._dispatch_event = Event(task.sim, task._dispatch_name)
        core = self._pick_core(task)
        if core.idle:
            self._dispatch(core, task, switch=core.last_task is not task)
            return
        if task.interactive:
            core.interactive_queue.append(task)
            if not core.current.interactive:
                self._arm_preemption(core, fast_eligible=True)
        else:
            core.batch_queue.append(task)

    def _exit(self, task: Task) -> None:
        core = task.core
        task.state = DONE
        task.core = None
        if core is not None and core.current is task:
            core.current = None
            self._dispatch_next(core)
        for c in self.cores:
            if task in c.interactive_queue:
                c.interactive_queue.remove(task)
            if task in c.batch_queue:
                c.batch_queue.remove(task)

    def _pick_core(self, task: Task) -> Core:
        if task.pinned_core is not None:
            return self.cores[task.pinned_core]
        candidates = [c for c in self.cores if c.enabled]
        # Prefer the core it last ran on if idle (cache warmth), then
        # any idle core, then the least-loaded one.
        if task.last_core is not None and task.last_core.enabled and task.last_core.idle:
            return task.last_core
        idle = [c for c in candidates if c.idle]
        if idle:
            self._placement_cursor = (self._placement_cursor + 1) % len(idle)
            return idle[self._placement_cursor]
        return min(candidates, key=lambda c: (c.runnable, c.index))

    def _dispatch(self, core: Core, task: Task, switch: bool) -> None:
        """Put ``task`` on ``core``; its dispatch event fires after the
        context-switch delay (if any)."""
        waking = task.state != RUNNING
        core.current = task
        task.core = core
        task.state = RUNNING
        if waking:
            task.slice_left = self._slice_for(core, task)
        delay = 0
        if switch:
            core.context_switches += 1
            delay = self.params.context_switch_ns
        if TRACER.enabled:
            now = self.sim.now
            tid = f"core{core.index}"
            if switch:
                # The switch cost is a fixed delay starting now, so the
                # span can be emitted up front with its full duration.
                TRACER.record(
                    now,
                    "X",
                    "scheduler",
                    "ctx_switch",
                    pid=self.name,
                    tid=tid,
                    dur=delay,
                    args={"task": task.name},
                )
                TRACER.count("cpu.context_switches")
            TRACER.record(
                now,
                "i",
                "scheduler",
                "dispatch",
                pid=self.name,
                tid=tid,
                args={"task": task.name, "interactive": task.interactive},
            )
            TRACER.count("cpu.dispatches")
        core.last_task = task
        if waking:
            event = task._dispatch_event
            if event is None:
                raise RuntimeError(f"dispatching {task!r} without a dispatch event")
            if delay:
                self.sim.call_in(delay, self._fire_dispatch, task, event)
            else:
                event.succeed()
        # A renewal (task already RUNNING, mid-compute) needs no event.

    @staticmethod
    def _fire_dispatch(task: Task, event: Event) -> None:
        if task._dispatch_event is event:
            event.succeed()

    def _dispatch_next(self, core: Core) -> None:
        """Core became free: run the best waiting task."""
        queue = core.interactive_queue or core.batch_queue
        if not queue:
            return
        task = queue.popleft()
        self._dispatch(core, task, switch=core.last_task is not task)

    # -- deferred preemption checks -----------------------------------------------

    def _arm_preemption(self, core: Core, fast_eligible: bool) -> None:
        """Schedule the next opportunity to preempt ``core`` for a
        queued interactive task (see :class:`SchedParams`)."""
        params = self.params
        if fast_eligible and self._rng.random() < params.wakeup_fast_prob:
            delay = int(self._rng.expovariate(1.0 / params.wakeup_fast_ns))
            delay = max(1, min(delay, params.tick_ns))
        else:
            delay = max(1, int(self._rng.uniform(0.05, 1.0) * params.tick_ns))
        self.sim.call_in(delay, self._on_preempt_check, core)

    def _on_preempt_check(self, core: Core) -> None:
        if TRACER.enabled:
            TRACER.count("cpu.preempt_checks")
        if not core.interactive_queue:
            return
        current = core.current
        if current is None:
            # Core drained in the meantime.
            self._dispatch_next(core)
        elif not current.interactive:
            # Preempt the batch task; its compute loop will vacate. A
            # grant whose timer has fired but whose task has not run
            # yet still counts as preempted, hence the flag beside the
            # event.
            grant = current._grant_event
            if grant is not None and not current._preempted:
                current._preempted = True
                if not grant._triggered:
                    grant.succeed()
            else:
                # Between grants (e.g. mid context switch): try again.
                self._arm_preemption(core, fast_eligible=False)
        else:
            # An interactive task is running; check again later.
            self._arm_preemption(core, fast_eligible=False)

    # -- core hotplug (Figure 2b disables cores) ---------------------------------

    def set_enabled_cores(self, n: int) -> None:
        """Enable only the first ``n`` cores (before spawning load)."""
        if not 1 <= n <= len(self.cores):
            raise ValueError(f"need 1..{len(self.cores)} cores, got {n}")
        for core in self.cores:
            core.enabled = core.index < n

    # -- metrics ------------------------------------------------------------------

    @property
    def context_switches(self) -> int:
        """Total context switches across all cores."""
        return sum(core.context_switches for core in self.cores)

    @property
    def busy_ns(self) -> int:
        """Total CPU-ns consumed across all cores, including the
        in-flight portion of currently-running grants."""
        return sum(core.busy_ns_live for core in self.cores)

    def utilization(self, since_busy_ns: int, since_time: int) -> float:
        """Average utilization across enabled cores since a snapshot.

        ``since_busy_ns`` / ``since_time`` are values of
        :attr:`busy_ns` and ``sim.now`` captured at the window start.
        """
        elapsed = self.sim.now - since_time
        enabled = sum(1 for core in self.cores if core.enabled)
        if elapsed <= 0 or enabled == 0:
            return 0.0
        return (self.busy_ns - since_busy_ns) / (elapsed * enabled)
