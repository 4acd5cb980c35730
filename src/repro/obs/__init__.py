"""repro.obs — tracing, counters, and time-attribution observability.

Usage::

    from repro.obs import tracing, write_chrome_trace, render_report

    with tracing() as tracer:
        result = microbench_latency("hyperloop", n_ops=100)
    write_chrome_trace(tracer, "trace.json")   # chrome://tracing / Perfetto
    print(render_report(tracer))               # attribution + counters
    print(op_timeline(tracer, round_=3))       # one gWRITE's chain timeline

Or from the command line: ``python -m repro trace``.

Guarantees (enforced by ``tests/unit/test_obs_*.py``):

* **Zero cost disabled** — simulators built with tracing off run the
  original kernel loop; no per-event branch is added anywhere.
* **No behavioural change enabled** — tracing reads, never schedules;
  simulated results are identical with tracing on or off.
* **No event retention** — the tracer holds plain data only, never
  kernel-owned (poolable) ``Timeout``/``Event`` instances.
"""

from .trace import (
    TRACER,
    Tracer,
    TraceRecord,
    disable,
    enable,
    subsystem_of,
    tracing,
)
from .export import (
    op_records,
    op_timeline,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .report import render_attribution, render_counters, render_report

__all__ = [
    "TRACER",
    "Tracer",
    "TraceRecord",
    "tracing",
    "enable",
    "disable",
    "subsystem_of",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "op_records",
    "op_timeline",
    "render_attribution",
    "render_counters",
    "render_report",
]
