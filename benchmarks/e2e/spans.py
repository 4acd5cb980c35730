"""Benchmark-side spans around every call the benchmark makes into a layer.

The program's own tracer (``repro.obs``) bills host time to the
subsystem whose code a *kernel dispatch* runs. It does not see the
software that runs in a client task's context — ``coordinator.commit``
validating a write set, ``kv.put`` encoding a record — because that
code executes inside whatever dispatch resumed the task. These spans
close the gap from the outside: the benchmark wraps each generator it
hands to a layer and accumulates the host time of that generator's
resume steps (``host_ns``) and the simulated time of the whole call.

A span is ``(id, name, parent, op, start, end, host_ns, sim_start,
sim_end)``. ``start``/``end`` are host ns since the log was created;
ops of a closed loop interleave, so the intervals of sibling op spans
overlap while their ``host_ns`` do not. Spans stay in memory and are
written once, at exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Generator, List, Optional

FIELDS = (
    "id", "name", "parent", "op", "start_ns", "end_ns",
    "host_ns", "sim_start_ns", "sim_end_ns",
)


class SpanLog:
    """In-memory span recorder.

    ``per_op=False`` (the untraced passes) keeps the handful of set-up
    spans and turns :meth:`call` into a pass-through, so the timed
    phase of an untraced pass runs no benchmark-side timing code.
    """

    def __init__(self, per_op: bool):
        self.sim = None  # bound by the workload once its Simulator exists
        self._perf = time.perf_counter_ns
        self._origin = self._perf()
        self.per_op = per_op
        self.rows: List[list] = []

    def _sim_now(self) -> int:
        return self.sim.now if self.sim is not None else 0

    def begin(self, name: str, parent: Optional[int] = None, op: Optional[int] = None) -> int:
        span = len(self.rows)
        now = self._perf() - self._origin
        sim = self._sim_now()
        self.rows.append([span, name, parent, op, now, now, 0, sim, sim])
        return span

    def end(self, span: int, host_ns: Optional[int] = None) -> None:
        row = self.rows[span]
        row[5] = self._perf() - self._origin
        row[6] = row[5] - row[4] if host_ns is None else host_ns
        row[8] = self._sim_now()

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        """A synchronous step (world construction, planning)."""
        span = self.begin(name, parent)
        try:
            yield span
        finally:
            self.end(span)

    def call(self, name: str, parent: Optional[int], op: Optional[int], gen: Generator) -> Generator:
        """Drive ``gen`` (use with ``yield from``), timing its resume steps."""
        if not self.per_op:
            return gen
        return self._timed(name, parent, op, gen)

    def _timed(self, name, parent, op, gen) -> Generator:
        perf = self._perf
        span = self.begin(name, parent, op)
        host = 0
        value = None
        thrown: Optional[BaseException] = None
        try:
            while True:
                started = perf()
                try:
                    if thrown is None:
                        item = gen.send(value)
                    else:
                        item = gen.throw(thrown)
                except StopIteration as stop:
                    return stop.value
                finally:
                    host += perf() - started
                thrown = None
                try:
                    value = yield item
                except BaseException as exc:  # re-thrown into gen above
                    thrown = exc
        finally:
            self.end(span, host)

    # -- digests -----------------------------------------------------------

    def seconds(self, name: str) -> float:
        """Total wall seconds of every span called ``name``."""
        return sum(r[5] - r[4] for r in self.rows if r[1] == name) / 1e9

    def totals(self, first_span: int = 0) -> Dict[str, Dict[str, list]]:
        """Per span name: host ns and simulated ns of each call."""
        out: Dict[str, Dict[str, list]] = {}
        for row in self.rows[first_span:]:
            entry = out.setdefault(row[1], {"host_ns": [], "sim_ns": []})
            entry["host_ns"].append(row[6])
            entry["sim_ns"].append(row[8] - row[7])
        return out

    def write(self, path: str, **meta) -> None:
        with open(path, "w") as handle:
            json.dump({"meta": meta, "fields": FIELDS, "spans": self.rows}, handle)
