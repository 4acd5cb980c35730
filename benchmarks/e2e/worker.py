"""One pass of one workload in a fresh process.

``run.py`` starts this file once per repeat: a world is cyclic garbage
that the collector frees late, so worlds built back to back in one
process inflate each other's RSS and zero-fill time. The pass builds
the world, loads it, runs the warm-up ops, then times the workload's
closed-loop operations and checks the outputs. One JSON object on the
last line of stdout carries everything measured.

All host clocks of the timed phase are read *inside the client bodies*
(first issue, every batch boundary, last completion) and all simulated
times from ``sim.now`` at the same points: ``run_until`` advances the
clock in 5 ms chunks and keeps dispatching tenant events after the last
op completed, so nothing here is taken from around it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import sys
import time
from typing import Dict, List

BATCHES = 10  # the timed phase is cut into this many equal op-count batches


def percentile(ordered: List[int], fraction: float) -> float:
    """Linear-interpolated percentile of sorted values (numpy's default)."""
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _drive(world, tasks, done, deadline_ms: int = 600_000) -> bool:
    """Run the simulation until ``done()``; False if the deadline hit first.

    A client that died takes its exception to the caller at once instead
    of idling the run to the deadline.
    """
    from repro.bench.harness import run_until

    def finished():
        return done() or any(t.process.triggered and not t.process.ok for t in tasks)

    try:
        run_until(world.sim, finished, deadline_ms=deadline_ms)
    except TimeoutError:
        return False
    for task in tasks:
        if task.process.triggered and not task.process.ok:
            raise task.process.value
    return True


def _run_alone(world, step, what: str) -> None:
    """Run one generator ``step(task)`` in a client task, to completion."""
    done = []

    def body(task):
        yield from step(task)
        done.append(True)

    if not _drive(world, [world.spawn_client(body, 0)], lambda: bool(done)):
        raise TimeoutError(f"{what} hit the simulated deadline")


def _grown(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _run_phase(world, tracer, first: int, count: int, phase_span) -> Dict:
    """Closed loop: ``world.clients`` clients share ops [first, first+count)."""
    sim, spans = world.sim, world.spans
    per_op = spans.per_op
    perf, cpu_clock = time.perf_counter_ns, time.process_time_ns
    end = first + count
    batch = max(1, count // BATCHES)
    latencies: List[int] = []
    state = {
        "next": first, "done": 0, "ok": 0, "failed": 0,
        "running": world.clients, "first_issue": None,
    }
    marks: List[int] = []  # host wall clock at every batch boundary
    cpu_marks: List[int] = []  # process CPU clock at the same points
    finish: Dict = {}

    def snapshot() -> Dict:
        return {
            "perf": perf(),
            "cpu": cpu_clock(),
            "sim": sim.now,
            "replica_cpu": world.replica_cpu_ns(),
            "layer": world.layer_stats(),
            "dispatches": tracer.dispatches if tracer else 0,
            "counters": dict(tracer.counters) if tracer else {},
            "self_ns": dict(tracer.wall_ns) if tracer else {},
        }

    def body(task):
        while state["next"] < end:
            index = state["next"]
            state["next"] += 1
            if state["first_issue"] is None:
                state["first_issue"] = sim.now
            parent = spans.begin("op", phase_span, index) if per_op else None
            ok, latency = yield from world.op(task, index, parent)
            if per_op:
                spans.end(parent)
            if not ok:
                state["failed"] += 1
            elif latency is not None:
                latencies.append(latency)
            state["ok"] += ok
            state["done"] += 1
            if state["done"] % batch == 0:
                marks.append(perf())
                cpu_marks.append(cpu_clock())
            if state["done"] == count:
                finish.update(snapshot())
        state["running"] -= 1

    begin = snapshot()
    marks.append(begin["perf"])
    cpu_marks.append(begin["cpu"])
    tasks = [world.spawn_client(body, index) for index in range(world.clients)]
    if not _drive(world, tasks, lambda: state["running"] == 0):
        # Deadline: whatever did not complete is a failed op.
        state["failed"] += count - state["done"]
        finish.update(snapshot())
    return {
        "begin": begin, "finish": finish, "marks": marks, "cpu_marks": cpu_marks, "batch": batch,
        "latencies": latencies, "ok": state["ok"], "failed": state["failed"],
        "first_issue": state["first_issue"],
    }


def run_pass(name: str, seed: int, seconds: float, divide: int, traced: bool, t0: float,
             span_path: str) -> Dict:
    from repro.obs import tracing
    from repro.sim import MS

    from spans import SpanLog
    from workloads import RUN_SECONDS, WARMUP_SHARE, WORKLOAD_CLASSES

    cls = WORKLOAD_CLASSES[name]
    timed_ops = max(int(cls.base_ops * seconds / RUN_SECONDS / divide), 4 * cls.clients)
    warm_ops = max(cls.clients, timed_ops // WARMUP_SHARE)
    spans = SpanLog(per_op=traced)
    tracer_cm = tracing(record_kernel=False) if traced else contextlib.nullcontext()
    with tracer_cm as tracer:
        setup = spans.begin("setup")
        world = cls(seed, warm_ops + timed_ops, spans, setup)
        rss_after_build = _rss_mb()
        with spans.span("storage.load", setup):
            _run_alone(world, world.load, "load phase")
        with spans.span("warmup", setup) as warm_span:
            warm = _run_phase(world, tracer, 0, warm_ops, warm_span)
        spans.end(setup)
        # Collector pauses are host noise, not cost of the program: start
        # clean, then keep the collector out of the timed phase.
        gc.collect()
        gc.freeze()
        gc.disable()
        timed_span = spans.begin("timed")
        setup_s = time.monotonic() - t0
        timed = _run_phase(world, tracer, warm_ops, timed_ops, timed_span)
        spans.end(timed_span)
        gc.enable()
        peak_rss = _rss_mb()
        # Quiesce (tail acks, replica sync), then read back at rest.
        world.sim.run(until=world.sim.now + 2 * MS)
        _run_alone(world, world.readback, "read-back")
        world.sim.run(until=world.sim.now + 2 * MS)
        errors = world.group_errors() + world.check()

    begin, finish, marks, cpu_marks = (
        timed["begin"], timed["finish"], timed["marks"], timed["cpu_marks"]
    )
    latencies = timed["latencies"]
    if world.cluster.fabric.dropped_messages:
        errors.append(f"fabric dropped {world.cluster.fabric.dropped_messages} messages")
    if timed["ok"] + timed["failed"] != timed_ops:
        errors.append(f"ok {timed['ok']} + failed {timed['failed']} != planned {timed_ops}")
    elapsed_sim = finish["sim"] - timed["first_issue"]
    out = {
        "workload": name, "seed": seed, "traced": traced,
        "timed_ops": timed_ops, "warm_ops": warm_ops, "clients": cls.clients,
        "errors": errors[:8],
        # Ops without a result: errored, gave up after retries, or cut
        # off by the deadline (warm-up included: nothing may fail).
        "failed": timed["failed"] + warm["failed"],
        # Committed transactions on a serialization cycle (README).
        "anomalies": world.anomalies,
        "dispatch_mode": "fast" if getattr(world.sim, "_fast_dispatch", True) else "generic",
        "install_mode": getattr(getattr(world, "coordinator", None), "install_mode", "-"),
        "setup_s": setup_s,
        "wall_s": (finish["perf"] - begin["perf"]) / 1e9,
        "batch_host_ops_per_s": [
            timed["batch"] * 1e9 / (after - before) for before, after in zip(marks, marks[1:])
        ],
        "batch_cpu_us_per_op": [
            (after - before) / 1e3 / timed["batch"]
            for before, after in zip(cpu_marks, cpu_marks[1:])
        ],
        "peak_rss_mb": peak_rss,
        # Raw material for pooling the repeats of a run (run.py).
        "samples": len(latencies),
        "latencies_ns": sorted(latencies),
        "ok": timed["ok"],
        "elapsed_sim_ns": elapsed_sim,
        "replica_core_ns": sum(
            (after - before) / group.group_size
            for group, before, after in zip(
                world.groups, begin["replica_cpu"], finish["replica_cpu"]
            )
        ),
        # Digest of every latency sample in completion order: a second
        # run of the same seed, traced or not, must reproduce it.
        "sim_digest": hashlib.sha1(repr(latencies).encode()).hexdigest()[:16],
        "rss_after_build_mb": rss_after_build,
        "cluster_build_s": spans.seconds("hw.memory.cluster_build"),
        "group_build_s": spans.seconds("core.group_build"),
        "plan_s": spans.seconds("workloads.plan"),
        "load_s": spans.seconds("storage.load"),
        "fabric_dropped": world.cluster.fabric.dropped_messages,
        "layer": _grown(finish["layer"], begin["layer"]),
    }
    if traced:
        out["dispatches"] = finish["dispatches"] - begin["dispatches"]
        out["counters"] = _grown(finish["counters"], begin["counters"])
        out["self_ns"] = _grown(finish["self_ns"], begin["self_ns"])
        out["span_calls"] = {
            span: {
                "calls": len(entry["host_ns"]),
                "host_ns": sum(entry["host_ns"]),
                "sim_p50_ns": percentile(sorted(entry["sim_ns"]), 0.50),
            }
            for span, entry in spans.totals(first_span=timed_span + 1).items()
        }
    if span_path:
        spans.write(span_path, workload=name, seed=seed, timed_ops=timed_ops, traced=traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds of a run (three repeats): scales the op count")
    parser.add_argument("--divide", type=int, default=1, help="run 1/N of those ops")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    result = run_pass(
        args.workload, args.seed, args.seconds, args.divide, bool(args.traced), t0, args.spans
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
