"""Transactional YCSB over N replica groups (`python -m repro txn --ycsb`).

Drives the Cooper et al. mixes (:mod:`repro.workloads.ycsb`) through
the SSI coordinator instead of a plain key-value stub: operations are
grouped into short transactions, Zipfian hot keys create genuine
cross-group contention, and aborted transactions go through the
abort-reason-aware retry policies (:mod:`repro.txn.retry`) rather
than being dropped. This is the scale-out evaluation surface the
SafarDB comparison calls for — commit throughput, abort rate by
reason, and retry amplification per mix.

All six Cooper mixes run here: A (50/50 read/update), B (95/5), C
(read-only), F (read-modify-write), D (95/5 read/insert, "latest"
distribution), and E (95/5 scan/insert). Inserts place previously
unseen keys by the coordinator's consistent hash (DB slots assigned
at commit install); scans are snapshot range reads over the per-group
ordered key indexes, with the covered range feeding SSI's phantom
(``ssi-phantom``) detection. E's scan lengths are drawn from the
workload's seeded scan stream, capped at 12 keys to keep the
simulated read fan-out bounded. Each transaction is three operations
turned into steps (:func:`~repro.txn.workload.run_txn`) up front and
run by the shaped mix's client loop
(:func:`~repro.txn.workload.run_clients`).

Determinism: the operation stream comes from ``YcsbWorkload``'s own
named streams (pure functions of ``(mix, seed)``), the retry jitter
from ``sim.rng("txn-retry")``, and reports render no wall-clock state.
The suite runs per-mix points through the :mod:`repro.bench.parallel`
pool, so its rendering is byte-identical for 1 worker and 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Sequence, Tuple

from ..bench.parallel import RunSpec, run_parallel
from ..hw.host import Cluster
from ..sim import MS, Simulator
from ..workloads.ycsb import WORKLOADS, Operation, YcsbWorkload
from .retry import RetryStats, make_policy
from .ssi import describe_cycle
from .workload import Step, build_txn_system, run_clients

__all__ = [
    "TXN_MIXES",
    "YcsbTxnReport",
    "YcsbSuiteReport",
    "run_ycsb_mix",
    "run_ycsb_point",
    "run_ycsb",
]


TXN_MIXES: Tuple[str, ...] = ("A", "B", "C", "D", "E", "F")
"""Every Cooper mix, now that inserts and scans are transactional."""


@dataclass
class YcsbTxnReport:
    """Deterministic outcome of one mix run."""

    mix: str
    seed: int
    n_groups: int
    n_keys: int
    n_txns: int
    ops: int
    committed: int
    gave_up: int
    attempts: int
    retries: int
    amplification: float
    backoff_ms: float
    retry: str
    aborts_ww: int
    aborts_ssi: int
    aborts_unavailable: int
    aborts_other: int
    throughput_tps: float
    sim_ms: float
    anomaly: str
    aborts_phantom: int = 0
    peer_waits: int = 0
    inserts: int = 0
    scans: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def aborts(self) -> int:
        return (
            self.aborts_ww
            + self.aborts_ssi
            + self.aborts_phantom
            + self.aborts_unavailable
            + self.aborts_other
        )

    def abort_rate(self) -> float:
        """Aborted attempts per attempt (retries keep the denominator honest)."""
        return self.aborts / self.attempts if self.attempts else 0.0

    def render(self) -> str:
        lines = [
            f"    mix {self.mix}: {self.committed}/{self.n_txns} txns committed "
            f"({self.ops} ops, {self.attempts} attempts)",
            f"        throughput={self.throughput_tps:.0f} txn/s "
            f"abort_rate={100.0 * self.abort_rate():.1f}% "
            f"amplification={self.amplification:.2f}",
            f"        aborts: ww={self.aborts_ww} ssi={self.aborts_ssi} "
            f"phantom={self.aborts_phantom} "
            f"unavailable={self.aborts_unavailable} other={self.aborts_other} "
            f"gave_up={self.gave_up}",
        ]
        if self.inserts or self.scans:
            lines.append(f"        inserts={self.inserts} scans={self.scans}")
        lines.append(
            f"        retries={self.retries} peer_waits={self.peer_waits} "
            f"aborts/commit={self.aborts / self.committed if self.committed else 0.0:.2f} "
            f"backoff={self.backoff_ms:.3f}ms "
            f"sim_time={self.sim_ms:.3f}ms anomaly={self.anomaly}"
        )
        return "\n".join(
            lines + [f"        error: {error}" for error in self.errors]
        )


@dataclass
class YcsbSuiteReport:
    """All requested mixes, one seed, one rendering CI byte-diffs."""

    seed: int
    n_groups: int
    retry: str
    mixes: List[YcsbTxnReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(
            not report.errors and report.anomaly == "none"
            for report in self.mixes
        )

    def render(self) -> str:
        lines = [
            f"=== txn ycsb (seed {self.seed}, {self.n_groups} groups, "
            f"retry {self.retry})"
        ]
        for report in self.mixes:
            lines.append(report.render())
        committed = sum(report.committed for report in self.mixes)
        attempts = sum(report.attempts for report in self.mixes)
        lines.append(
            f"    total: committed={committed} attempts={attempts} "
            f"ok={'yes' if self.ok else 'NO'}"
        )
        return "\n".join(lines)


_OPS_PER_TXN = 3
_VALUE_SIZE = 16
_MAX_SCAN = 12
_DEADLINE_MS = 30_000


def _plan_txns(workload: YcsbWorkload, n_txns: int) -> List[List[Operation]]:
    """Draw the whole operation stream up-front, chunked into txns."""
    stream = list(workload.operations(n_txns * _OPS_PER_TXN))
    return [
        stream[index * _OPS_PER_TXN : (index + 1) * _OPS_PER_TXN]
        for index in range(n_txns)
    ]


def run_ycsb_mix(
    mix: str = "A",
    seed: int = 7,
    n_groups: int = 4,
    n_keys: int = 48,
    n_txns: int = 36,
    n_workers: int = 4,
    retry: str = "backoff",
) -> YcsbTxnReport:
    """Run one YCSB mix transactionally; returns the deterministic report."""
    try:
        workload_mix = WORKLOADS[mix]
    except KeyError:
        raise ValueError(
            f"unknown YCSB mix {mix!r}; supported mixes are "
            f"{'/'.join(TXN_MIXES)}"
        ) from None
    if workload_mix.max_scan_length > _MAX_SCAN:
        # Bound E's simulated read fan-out; the draw still comes from
        # the workload's seeded scan stream, so reports stay pinned.
        workload_mix = replace(workload_mix, max_scan_length=_MAX_SCAN)

    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(
        sim, cluster, n_groups=n_groups, mode="ssi", name="ycsb"
    )
    policy = make_policy(retry, rng=sim.rng("txn-retry"))
    stats = RetryStats()

    workload = YcsbWorkload(
        workload_mix, record_count=n_keys, value_size=_VALUE_SIZE, seed=seed
    )
    txn_plans = _plan_txns(workload, n_txns)
    kinds = [op.kind for plan in txn_plans for op in plan]
    n_inserts, n_scans = kinds.count("insert"), kinds.count("scan")

    def keyname(index: int) -> bytes:
        return f"y{index:04d}".encode()

    def payload(key: int, txn_index: int) -> bytes:
        stamp = f"{mix}/{key}/{txn_index}".encode()
        return (stamp * (_VALUE_SIZE // len(stamp) + 1))[:_VALUE_SIZE]

    def stamp_bump(key: int, txn_index: int):
        """YCSB's modify: this txn's payload, last byte the read one's + 1."""
        base = payload(key, txn_index)

        def bump(value: Optional[bytes]) -> bytes:
            counter = value[-1] if value else 0
            return base[:-1] + bytes([(counter + 1) & 0xFF])

        return bump

    def steps(txn_index: int) -> List[Step]:
        # Dynamic mixes draw keys from the grown keyspace, so names
        # come straight from the operation index; reads can race an
        # insert's commit and legitimately miss.
        out: List[Step] = []
        for op in txn_plans[txn_index]:
            key = keyname(op.key)
            if op.kind == "read":
                out.append(("read", key))
            elif op.kind == "update":
                out.append(("write", key, payload(op.key, txn_index)))
            elif op.kind == "insert":
                out.append(("insert", key, payload(op.key, txn_index)))
            elif op.kind == "scan":
                out.append(("scan", key, op.scan_length))
            else:  # modify: YCSB's read-modify-write
                out += [("read", key), ("bump", key, stamp_bump(op.key, txn_index))]
        return out

    init = [("write", keyname(index), payload(index, -1)) for index in range(n_keys)]
    # Round-robin deal keeps per-worker load even and the txn->worker
    # mapping a pure function of the indices.
    plans = [
        [(mix, steps(txn_index)) for txn_index in range(worker, n_txns, n_workers)]
        for worker in range(n_workers)
    ]
    _, errors = run_clients(
        cluster, coordinator, "ycsb", init, plans, policy, stats,
        deadline_ms=_DEADLINE_MS,
    )

    sim_ms = sim.now / MS
    return YcsbTxnReport(
        mix=mix,
        seed=seed,
        n_groups=n_groups,
        n_keys=n_keys,
        n_txns=n_txns,
        ops=n_txns * _OPS_PER_TXN,
        committed=stats.committed,
        gave_up=stats.gave_up,
        attempts=stats.attempts,
        retries=stats.retries,
        amplification=stats.amplification,
        backoff_ms=stats.backoff_ns / MS,
        peer_waits=stats.peer_waits,
        retry=policy.name,
        aborts_ww=coordinator.aborts_ww,
        aborts_ssi=coordinator.aborts_ssi,
        aborts_phantom=coordinator.aborts_phantom,
        inserts=n_inserts,
        scans=n_scans,
        aborts_unavailable=coordinator.aborts_unavailable,
        aborts_other=coordinator.aborts_failover + coordinator.aborts_install
        + coordinator.aborts_user,
        throughput_tps=(
            stats.committed / (sim_ms / 1000.0) if sim_ms else 0.0
        ),
        sim_ms=sim_ms,
        anomaly=describe_cycle(coordinator.history),
        errors=errors[:3],
    )


def run_ycsb_point(name: str, seed: int = 7, **params: Any) -> YcsbTxnReport:
    """The ``ycsb`` runner target (see ``repro.bench.parallel.RUNNERS``).

    ``name`` is the mix letter.
    """
    return run_ycsb_mix(mix=name, seed=seed, **params)


def run_ycsb(
    mixes: Sequence[str] = ("A", "B", "C"),
    seed: int = 7,
    workers: Optional[int] = None,
    **params: Any,
) -> YcsbSuiteReport:
    """Run a suite of mixes through the parallel pool; aggregate.

    Results come back in mix order whatever the worker count, so the
    suite rendering is a pure function of ``(mixes, seed, params)``.
    """
    specs = [
        RunSpec.make(mix, seed, runner="ycsb", **params) for mix in mixes
    ]
    results = run_parallel(specs, workers=workers or 1)
    reports: List[YcsbTxnReport] = []
    for result in results:
        output = result.output
        if isinstance(output, dict):  # normalized across the pool
            output = YcsbTxnReport(**output)
        reports.append(output)
    retry = reports[0].retry if reports else str(params.get("retry", "backoff"))
    return YcsbSuiteReport(
        seed=seed,
        n_groups=reports[0].n_groups if reports else 0,
        retry=retry,
        mixes=reports,
    )
