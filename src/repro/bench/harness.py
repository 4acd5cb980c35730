"""Benchmark harness: recorders, runners, and table formatting.

Every experiment in ``benchmarks/`` is expressed with these pieces:
build a cluster, spawn client tasks that record per-op latencies into
a :class:`LatencyRecorder`, drive the simulation with
:func:`run_until`, and print paper-style rows with
:func:`format_table`.

Two host-speed microbenchmarks live here too, for work below the
group layer that the end-to-end workloads cannot isolate:
:func:`bench_kernel_events` (the dispatch loop alone) and
:func:`bench_nic_hotpath` (the NIC send engine alone).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..sim import MS, Simulator

__all__ = [
    "LatencyRecorder",
    "LatencyStats",
    "merge_stats",
    "run_until",
    "bench_kernel_events",
    "bench_nic_hotpath",
    "format_table",
    "CpuMeter",
]


@dataclass
class LatencyStats:
    """Summary statistics of a latency sample, in microseconds."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def row(self) -> Dict[str, float]:
        return {
            "n": self.count,
            "avg_us": round(self.mean, 2),
            "p50_us": round(self.p50, 2),
            "p95_us": round(self.p95, 2),
            "p99_us": round(self.p99, 2),
        }


class LatencyRecorder:
    """Collects per-operation latencies (nanoseconds in, µs out).

    ``stats()`` sorts at most once per batch of new samples: the sorted
    µs array is cached and reused across calls (and across the five
    percentile extractions within one call), and the running integer
    sum keeps ``mean`` O(1) and exact regardless of recording order.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.samples_ns: List[int] = []
        self._sum_ns = 0
        self._sorted_us: Optional[List[float]] = None

    def record(self, latency_ns: int) -> None:
        self.samples_ns.append(latency_ns)
        self._sum_ns += latency_ns
        self._sorted_us = None

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one.

        Sample-exact: stats of the merged recorder equal stats of one
        recorder fed every sample, in any merge order.
        """
        self.samples_ns.extend(other.samples_ns)
        self._sum_ns += other._sum_ns
        self._sorted_us = None

    def __len__(self) -> int:
        return len(self.samples_ns)

    @staticmethod
    def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
        """Linear-interpolated percentile (same convention as numpy)."""
        if not sorted_values:
            return math.nan
        if len(sorted_values) == 1:
            return sorted_values[0]
        rank = fraction * (len(sorted_values) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(sorted_values) - 1)
        weight = rank - low
        # a + (b - a) * w rather than a*(1-w) + b*w: exact when a == b,
        # so percentiles stay monotone under floating point.
        return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * weight

    def stats(self) -> LatencyStats:
        """Summarize (µs). Raises if nothing was recorded."""
        if not self.samples_ns:
            raise ValueError(f"recorder {self.name!r} has no samples")
        values = self._sorted_us
        if values is None or len(values) != len(self.samples_ns):
            values = self._sorted_us = sorted(
                sample / 1000.0 for sample in self.samples_ns
            )
        # Integer ns sum (exact in any order), one float division.
        return LatencyStats(
            count=len(values),
            mean=self._sum_ns / 1000.0 / len(values),
            p50=self._percentile(values, 0.50),
            p95=self._percentile(values, 0.95),
            p99=self._percentile(values, 0.99),
            minimum=values[0],
            maximum=values[-1],
        )

def merge_stats(parts: Iterable[LatencyStats]) -> LatencyStats:
    """Combine per-run :class:`LatencyStats` into one summary.

    ``count``, ``mean``, ``minimum`` and ``maximum`` are exact.
    Percentiles cannot be recovered exactly from summaries, so they are
    count-weighted means of the per-run percentiles — exact when the
    runs are homogeneous, an approximation otherwise (merge at the
    :class:`LatencyRecorder` level when samples are available).

    Order-independent by construction: every reduction is either
    ``min``/``max`` or an exactly-rounded :func:`math.fsum` over inputs
    sorted before summing.
    """
    stats = sorted(parts, key=lambda s: (s.count, s.mean, s.p50, s.p95, s.p99))
    if not stats:
        raise ValueError("merge_stats() needs at least one LatencyStats")
    total = sum(s.count for s in stats)
    if total <= 0:
        raise ValueError("merge_stats() needs at least one sample")

    def weighted(extract: Callable[[LatencyStats], float]) -> float:
        return math.fsum(s.count * extract(s) for s in stats) / total

    return LatencyStats(
        count=total,
        mean=weighted(lambda s: s.mean),
        p50=weighted(lambda s: s.p50),
        p95=weighted(lambda s: s.p95),
        p99=weighted(lambda s: s.p99),
        minimum=min(s.minimum for s in stats),
        maximum=max(s.maximum for s in stats),
    )


class CpuMeter:
    """Utilization of a set of OSes over a measurement window."""

    def __init__(self, oses):
        self.oses = list(oses)
        self._t0 = None
        self._busy0 = None

    def start(self, sim: Simulator) -> None:
        self._t0 = sim.now
        self._busy0 = [os_.busy_ns for os_ in self.oses]

    def utilization(self, sim: Simulator) -> float:
        """Mean core utilization across the metered hosts since start."""
        elapsed = sim.now - self._t0
        if elapsed <= 0:
            return 0.0
        total = 0.0
        for os_, busy0 in zip(self.oses, self._busy0):
            enabled = sum(1 for core in os_.cores if core.enabled)
            total += (os_.busy_ns - busy0) / (elapsed * enabled)
        return total / len(self.oses)


def run_until(
    sim: Simulator,
    done: Callable[[], bool],
    deadline_ms: int = 10_000,
    chunk_ms: float = 5.0,
) -> None:
    """Advance the simulation until ``done()`` or the deadline.

    Long-lived background processes (stress tenants, daemons) never
    drain the event queue, so experiments advance in chunks and stop
    as soon as the workload completes.
    """
    deadline = sim.now + deadline_ms * MS
    chunk = int(chunk_ms * MS)
    while not done() and sim.now < deadline:
        sim.run(until=min(sim.now + chunk, deadline))
    if not done():
        raise TimeoutError(
            f"experiment did not complete within {deadline_ms} ms of virtual time"
        )


def bench_kernel_events(
    n_procs: int = 200,
    events_per_proc: int = 2000,
    seed: int = 7,
) -> Dict[str, Any]:
    """Pure event-loop throughput: timeout-yielding processes.

    The workload is all kernel — no NIC, no memory model — so the
    events/sec figure isolates dispatch, scheduling and timeout
    pooling.
    """
    sim = Simulator(seed=seed)

    def ticker(index: int):
        delay = 1 + (index % 13)
        for _ in range(events_per_proc):
            yield sim.timeout(delay)

    for index in range(n_procs):
        sim.spawn(ticker(index))
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    events = n_procs * events_per_proc
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall,
        "final_now": sim.now,
    }


def bench_nic_hotpath(
    n_ops: int = 4000, burst: int = 16, seed: int = 5
) -> Dict[str, Any]:
    """Send-engine throughput: bursts of signaled WRITEs on a QP pair.

    Bursts keep several consecutive WQEs ready in the send queue, the
    regime the batched dispatch loop and the chained-execution engine
    rewrite — so this figure moves with NIC-path changes that the pure
    kernel benchmark cannot see.
    """
    from ..hw import Cluster
    from ..rdma import AccessFlags, FLAG_SIGNALED, Opcode, Wqe

    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=2)
    a, b = cluster[0], cluster[1]
    qp_a = a.dev.create_qp(name="a")
    qp_b = b.dev.create_qp(name="b")
    qp_a.connect(qp_b)
    buf_a = a.memory.alloc(4096, label="bench_a")
    buf_b = b.memory.alloc(4096, label="bench_b")
    a.dev.reg_mr(buf_a, AccessFlags.ALL_REMOTE)
    mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
    done = 0

    def driver():
        nonlocal done
        while done < n_ops:
            for index in range(burst):
                qp_a.post_send(
                    Wqe(
                        opcode=Opcode.WRITE,
                        flags=FLAG_SIGNALED,
                        length=64,
                        local_addr=buf_a.addr,
                        remote_addr=buf_b.addr + (index % 8) * 64,
                        rkey=mr_b.rkey,
                        wr_id=done + index,
                    )
                )
            target = done + burst
            while done < target:
                event = qp_a.send_cq.next_event()
                if not event.triggered:
                    yield event
                done += len(qp_a.send_cq.poll())

    sim.spawn(driver())
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    return {
        "ops": done,
        "wall_s": wall,
        "wqe_per_sec": done / wall,
        "final_now": sim.now,
    }


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Iterable[Sequence],
) -> str:
    """Render an aligned text table (paper-style output)."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
