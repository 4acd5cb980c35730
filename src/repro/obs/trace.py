"""Structured trace recorder: ring buffer, counters, time attribution.

One global :data:`TRACER` gates every instrumentation point in the
tree. The design constraint is **near-zero cost when disabled**:

* One observer test per dispatch. When a
  :class:`~repro.sim.kernel.Simulator` is constructed while tracing is
  enabled, :meth:`Tracer.install` attaches the tracer to the instance.
  ``Simulator.run`` looks the tracer up once per call and, if it is
  attached and enabled, hands every dispatch to
  :meth:`Tracer.dispatch`, which classifies, records, times and calls
  it. An untraced run pays one ``observe is not None`` test per
  dispatch and nothing else. On ``bench_kernel_events`` that read
  0.864 M events/s against 0.860 M for the earlier swapped-loop
  design (medians of ten alternating runs, 2-vCPU host): inside
  run-to-run noise.
* Every other instrumentation point (NIC doorbells, fabric
  deliveries, scheduler dispatches, group-op spans) is a single
  ``if TRACER.enabled:`` branch in code that already does orders of
  magnitude more work per call than the branch costs.
* Recording never schedules events, never consumes randomness, and
  never reads event *values* — simulated results are bit-for-bit
  identical with tracing on or off (asserted by
  ``tests/unit/test_obs_determinism.py``).

Timeout-pool ownership audit (the rule documented in
``repro/sim/events.py``): bare-yielded timeouts are kernel-owned after
resume and may be recycled at any later step. The tracer therefore
**never retains event objects**: :meth:`dispatch` classifies a
dispatch target by its *code object* (cached by code identity, which
outlives any pooled instance) and holds the bound-method reference
only for the call; trace records carry only plain ints and strings.
``tests/unit/test_obs_trace.py`` trips if a record or cache ever holds
a ``Timeout``.

This module imports nothing from the rest of ``repro`` so every layer
can import it without cycles.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "TraceRecord",
    "Tracer",
    "TRACER",
    "tracing",
    "enable",
    "disable",
    "subsystem_of",
]

_DEFAULT_CAPACITY = 1 << 18  # records kept before the ring wraps


class TraceRecord:
    """One trace event. Plain data only — no references into the sim.

    ``ph`` follows the Chrome trace-event phases used here:
    ``"B"``/``"E"`` span begin/end, ``"X"`` complete span with
    ``dur``, ``"i"`` instant. ``ts`` and ``dur`` are simulated
    nanoseconds; the exporter converts to the microseconds Chrome
    expects.
    """

    __slots__ = ("ts", "ph", "cat", "name", "pid", "tid", "dur", "args")

    def __init__(
        self,
        ts: int,
        ph: str,
        cat: str,
        name: str,
        pid: str,
        tid: str,
        dur: int = 0,
        args: Optional[Dict[str, Any]] = None,
    ):
        self.ts = ts
        self.ph = ph
        self.cat = cat
        self.name = name
        self.pid = pid
        self.tid = tid
        self.dur = dur
        self.args = args

    def __repr__(self) -> str:
        return (
            f"<TraceRecord {self.ph} {self.cat}/{self.name} "
            f"ts={self.ts} {self.pid}:{self.tid}>"
        )


def subsystem_of(filename: str) -> str:
    """Map a source path to a short subsystem label.

    ``.../repro/hw/nic.py`` → ``hw.nic``; anything outside the package
    keeps its basename so user workload generators are still named.
    """
    normalized = filename.replace("\\", "/")
    marker = "/repro/"
    index = normalized.rfind(marker)
    if index < 0:
        base = normalized.rsplit("/", 1)[-1]
        return base[:-3] if base.endswith(".py") else base
    tail = normalized[index + len(marker) :]
    if tail.endswith(".py"):
        tail = tail[:-3]
    return tail.replace("/", ".")


class Tracer:
    """Trace recorder + counters + kernel time attribution.

    Attributes
    ----------
    enabled:
        Master gate every instrumentation point checks.
    counters:
        Flat ``name -> int`` metrics registry (``count()`` to bump).
    wall_ns:
        Host nanoseconds spent inside dispatched callables, keyed by
        subsystem (``sim.timer``, ``hw.nic``, ...). Filled by
        :meth:`dispatch` while an observed simulator runs.
    wall_ns_sites:
        The same attribution at function/generator granularity.
    """

    def __init__(self, capacity: int = _DEFAULT_CAPACITY):
        self.capacity = capacity
        self.enabled = False
        self.record_kernel = True
        self.records: List[TraceRecord] = []
        self._cursor = 0
        self.dropped = 0
        self.counters: Dict[str, int] = {}
        self.wall_ns: Dict[str, int] = {}
        self.wall_ns_sites: Dict[str, int] = {}
        self.dispatches = 0
        # Classification caches. Keyed by code object / type — never by
        # instance — so pooled events are never kept alive (see the
        # module docstring's ownership audit).
        self._code_cache: Dict[Any, Tuple[str, str]] = {}
        self._type_cache: Dict[Any, Tuple[str, str]] = {}

    # -- lifecycle ---------------------------------------------------------

    def reset(self, capacity: Optional[int] = None) -> None:
        """Drop all recorded state (records, counters, attribution)."""
        if capacity is not None:
            self.capacity = capacity
        self.records = []
        self._cursor = 0
        self.dropped = 0
        self.counters = {}
        self.wall_ns = {}
        self.wall_ns_sites = {}
        self.dispatches = 0
        self._code_cache = {}
        self._type_cache = {}

    def enable(self, capacity: Optional[int] = None) -> "Tracer":
        """Reset and start collecting. Simulators constructed from now
        on hand every dispatch to :meth:`dispatch`.

        Garbage is collected first. A finished simulation's suspended
        tasks run their ``finally`` blocks when the collector reclaims
        them, and those blocks reach instrumentation points (a task's
        exit dispatches the next one on its core). Reclaimed after this
        call, they would write another world's records into this trace
        whenever the collector happened to run, so two traces of the
        same world would differ.
        """
        while gc.collect():
            # Until nothing is left: a reclaimed task's finally block
            # can free more of its world for one more pass.
            pass
        self.reset(capacity)
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        """Stop collecting; recorded data stays readable."""
        self.enabled = False
        return self

    # -- recording ---------------------------------------------------------

    def record(
        self,
        ts: int,
        ph: str,
        cat: str,
        name: str,
        pid: str = "sim",
        tid: str = "",
        dur: int = 0,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one record to the ring buffer (oldest dropped on wrap)."""
        rec = TraceRecord(ts, ph, cat, name, pid, tid, dur, args)
        records = self.records
        if len(records) < self.capacity:
            records.append(rec)
        else:
            records[self._cursor] = rec
            self._cursor = (self._cursor + 1) % self.capacity
            self.dropped += 1

    def count(self, name: str, n: int = 1) -> None:
        """Bump a counter in the metrics registry."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def iter_records(self) -> Iterator[TraceRecord]:
        """Records in chronological (insertion) order, wrap-corrected."""
        cursor = self._cursor
        records = self.records
        if cursor:
            yield from records[cursor:]
            yield from records[:cursor]
        else:
            yield from records

    def __len__(self) -> int:
        return len(self.records)

    # -- simulator integration ---------------------------------------------

    def install(self, sim) -> None:
        """Attach this tracer to a simulator instance.

        Called automatically from ``Simulator.__init__`` when tracing
        is enabled; call manually to observe a simulator that was
        constructed before :meth:`enable`. The only changes to the
        instance are ``sim._obs`` and an instance-level ``timeout``
        wrapper that counts pool reuse — the class stays untouched, so
        unobserved simulators keep the original hot path.
        """
        sim._obs = self
        inner_timeout = sim.__class__.timeout.__get__(sim)
        counters = self.counters
        tracer = self

        def counted_timeout(delay, value=None):
            if tracer.enabled and sim._timeout_pool:
                counters["kernel.timeout_pool_recycled"] = (
                    counters.get("kernel.timeout_pool_recycled", 0) + 1
                )
            return inner_timeout(delay, value)

        sim.timeout = counted_timeout

    def dispatch(self, now: int, fn, args) -> None:
        """Dispatch one queue entry on behalf of ``Simulator.run``.

        The run loop hands every entry here instead of calling it while
        this tracer is attached and enabled. Around the call it
        attributes host time to the target's subsystem and
        (optionally) records an instant event at the simulated
        timestamp ``now``. Fire markers (``args is None``) dispatch
        through ``Timeout._fire``, whose batch-append path preserves
        ordering, so the run loop's inlining of it never changes what a
        trace looks like. Nothing here schedules, so dispatch order is
        the untraced order.
        """
        if args is None:
            fn = fn._fire
            args = ()
        subsystem, site, actor = self._classify(fn)
        self.dispatches += 1
        if self.record_kernel:
            self.record(now, "i", "kernel", site, pid="kernel", tid=actor)
        started = time.perf_counter_ns()
        fn(*args)
        elapsed = time.perf_counter_ns() - started
        wall = self.wall_ns
        wall[subsystem] = wall.get(subsystem, 0) + elapsed
        sites = self.wall_ns_sites
        sites[site] = sites.get(site, 0) + elapsed

    def _classify(self, fn) -> Tuple[str, str, str]:
        """(subsystem, site, actor) for a dispatched callable.

        Process resumes are attributed to the module that *defines the
        generator* — a NIC engine resume bills ``hw.nic``, a scheduler
        task bills whatever body it runs — which is what makes the
        attribution report name real cost centers instead of
        ``Process._resume`` for everything. Caches hold code objects
        and types only, never instances.
        """
        obj = getattr(fn, "__self__", None)
        if obj is None:
            code = getattr(fn, "__code__", None)
            if code is not None:
                cached = self._code_cache.get(code)
                if cached is None:
                    cached = (
                        subsystem_of(code.co_filename),
                        getattr(code, "co_qualname", code.co_name),
                    )
                    self._code_cache[code] = cached
                return cached[0], cached[1], ""
            return ("builtin", repr(fn), "")
        generator = getattr(obj, "generator", None)
        if generator is not None:
            code = generator.gi_code
            cached = self._code_cache.get(code)
            if cached is None:
                cached = (
                    subsystem_of(code.co_filename),
                    getattr(code, "co_qualname", code.co_name),
                )
                self._code_cache[code] = cached
            return cached[0], cached[1], getattr(obj, "name", "")
        cls = type(obj)
        cached = self._type_cache.get(cls)
        if cached is None:
            module = cls.__module__
            if module.startswith("repro."):
                subsystem = module[len("repro.") :]
            else:
                subsystem = module
            if cls.__name__ == "Timeout":
                subsystem = "sim.timer"
            elif cls.__name__ == "Event":
                subsystem = "sim.event"
            cached = (subsystem, cls.__name__)
            self._type_cache[cls] = cached
        name = getattr(obj, "name", "")
        return cached[0], f"{cached[1]}.{fn.__name__}", name

    # -- summaries ---------------------------------------------------------

    def top_cost_center(self) -> Optional[str]:
        """The subsystem with the largest attributed host time."""
        if not self.wall_ns:
            return None
        return max(self.wall_ns.items(), key=lambda item: item[1])[0]

    def total_wall_ns(self) -> int:
        """Host time attributed across all subsystems."""
        return sum(self.wall_ns.values())

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<Tracer {state} records={len(self.records)} "
            f"dropped={self.dropped} counters={len(self.counters)}>"
        )


TRACER = Tracer()
"""The process-global tracer every instrumentation point checks."""


def enable(capacity: Optional[int] = None) -> Tracer:
    """Enable the global tracer (resets previously recorded data)."""
    return TRACER.enable(capacity)


def disable() -> Tracer:
    """Disable the global tracer; recorded data stays readable."""
    return TRACER.disable()


class tracing:
    """Context manager: trace everything simulated inside the block.

    >>> from repro.obs import tracing
    >>> with tracing() as tracer:
    ...     result = microbench_latency("hyperloop", n_ops=20)  # doctest: +SKIP
    >>> tracer.top_cost_center()  # doctest: +SKIP
    'sim.timer'
    """

    def __init__(self, capacity: Optional[int] = None, record_kernel: bool = True):
        self.capacity = capacity
        self.record_kernel = record_kernel
        self.tracer = TRACER
        self._saved: Tuple[int, bool] = (0, True)

    def __enter__(self) -> Tracer:
        # Scoped configuration: capacity/record_kernel overrides die
        # with the block, so one capped trace can't silently shrink
        # every later ``tracing()`` user's ring.
        self._saved = (self.tracer.capacity, self.tracer.record_kernel)
        tracer = self.tracer.enable(self.capacity)
        tracer.record_kernel = self.record_kernel
        return tracer

    def __exit__(self, *exc_info) -> None:
        tracer = self.tracer.disable()
        tracer.capacity, tracer.record_kernel = self._saved
