"""Trace exporters: Chrome-trace/Perfetto JSON and per-op text timelines.

The JSON format is the Trace Event Format consumed by
``chrome://tracing`` and https://ui.perfetto.dev — a dict with a
``traceEvents`` list where each event carries ``ph`` (phase), ``ts``
(microseconds), ``pid``/``tid`` (ints), plus ``M``-phase metadata
events naming the processes and threads. Simulated nanoseconds map to
trace microseconds, so one trace-UI microsecond is one simulated
microsecond.

:func:`validate_chrome_trace` is the schema check CI runs against an
exported file; it returns a list of problems (empty = valid) rather
than raising so the caller can report all of them at once.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .trace import Tracer

__all__ = [
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "op_records",
    "op_timeline",
]

_PHASES = {"B", "E", "X", "i", "M"}


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Render a tracer's ring buffer as a Chrome-trace document.

    String pid/tid labels become small ints (the format requires
    numbers) with ``process_name``/``thread_name`` metadata events
    carrying the labels, so Perfetto shows ``nic:r0`` rather than
    ``pid 3``. Counters and the time-attribution map ride along under
    ``otherData`` — ignored by viewers, kept for tooling.
    """
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    metadata: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []

    def pid_of(label: str) -> int:
        pid = pids.get(label)
        if pid is None:
            pid = pids[label] = len(pids) + 1
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        return pid

    def tid_of(pid: int, label: str) -> int:
        key = (pid, label)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = sum(1 for k in tids if k[0] == pid) + 1
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label or "main"},
                }
            )
        return tid

    for rec in tracer.iter_records():
        pid = pid_of(rec.pid)
        event: Dict[str, Any] = {
            "name": rec.name,
            "ph": rec.ph,
            "cat": rec.cat,
            "ts": rec.ts / 1000.0,
            "pid": pid,
            "tid": tid_of(pid, rec.tid),
        }
        if rec.ph == "X":
            event["dur"] = rec.dur / 1000.0
        elif rec.ph == "i":
            event["s"] = "t"  # thread-scoped instant
        if rec.args:
            event["args"] = rec.args
        events.append(event)

    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.obs",
            "clock": "simulated-ns (exported as us)",
            "records": len(tracer),
            "dropped": tracer.dropped,
            "dispatches": tracer.dispatches,
            "counters": dict(tracer.counters),
            "wall_ns_by_subsystem": dict(tracer.wall_ns),
        },
    }


def validate_chrome_trace(document: Any) -> List[str]:
    """Schema-check a Chrome-trace document; returns problems found."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"top level must be an object, got {type(document).__name__}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing int {field!r}")
        if ph != "M":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: missing numeric 'ts'")
            if not isinstance(event.get("cat"), str):
                problems.append(f"{where}: missing string 'cat'")
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"{where}: 'X' event without numeric 'dur'")
    return problems


def write_chrome_trace(tracer: Tracer, path: str) -> Dict[str, Any]:
    """Export to ``path``; returns the document written."""
    document = to_chrome_trace(tracer)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    return document


def op_records(tracer: Tracer, round_: int, primitive: Optional[str] = None):
    """Records belonging to group operation ``round_``, in time order.

    Membership is by correlation id: group-op spans carry
    ``args['round']`` and NIC WQE executions carry ``args['wr_id']``,
    and HyperLoop ties the two together (chain WQEs use the round
    number as their wr_id). ``primitive`` filters group spans to one
    chain when several primitives run rounds with the same number.
    """
    matched = []
    for rec in tracer.iter_records():
        args = rec.args
        if not args:
            continue
        if args.get("round") != round_ and args.get("wr_id") != round_:
            continue
        if primitive and rec.cat == "group" and primitive not in rec.name:
            continue
        matched.append(rec)
    matched.sort(key=lambda r: r.ts)
    return matched


def op_timeline(
    tracer: Tracer, round_: int, primitive: Optional[str] = None
) -> str:
    """One operation's replica-chain timeline as aligned text.

    This is the artifact the paper's timelines are made of: every
    traced event correlated with round ``round_`` — the client-side
    group span, the metadata post, each replica NIC's WAIT fallthrough
    and WQE executions — with timestamps relative to the first event.
    """
    records = op_records(tracer, round_, primitive)
    if not records:
        return f"no traced events for round {round_}"
    t0 = records[0].ts
    lines = [f"round {round_} timeline (t0 = {t0} ns):"]
    for rec in records:
        rel_us = (rec.ts - t0) / 1000.0
        dur = f" dur={rec.dur / 1000.0:.3f}us" if rec.ph == "X" else ""
        where = f"{rec.pid}/{rec.tid}" if rec.tid else rec.pid
        lines.append(
            f"  +{rel_us:10.3f}us  [{rec.cat:>6}] {where:<28} "
            f"{rec.ph} {rec.name}{dur}"
        )
    return "\n".join(lines)
