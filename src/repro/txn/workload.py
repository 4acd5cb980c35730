"""Deterministic multi-group transaction workload (`python -m repro txn`).

Builds N replica groups on one cluster, layers the SSI coordinator
over them, and drives a seeded mix of transaction shapes from
concurrent worker tasks:

* ``rmw`` — read a key, write back a bumped value.
* ``transfer`` — read two keys (usually on different groups), move a
  unit between them; the cross-group commit exercises the sorted
  multi-group install path.
* ``readonly`` — scan a few keys; populates wr/rw edges without ever
  being abortable.
* ``write-skew pairs`` — the SI litmus test: two transactions
  rendezvous so each reads both of a key pair, then each writes the
  *other* key, then both try to commit. Plain SI admits both (the
  offline checker then finds the rw/rw cycle); SSI must abort exactly
  one per pair.

Everything is a pure function of ``(seed, parameters)``: key choices
and values come from named ``sim.rng`` streams, timestamps from the
virtual clock, and the report renders no wall-clock state — CI runs
the workload twice and byte-diffs the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from ..bench.harness import run_until
from ..core.group import HyperLoopGroup
from ..hw.host import Cluster
from ..sim import MS, Event, Simulator
from .available_copies import AvailabilityTracker
from .coordinator import TxnAborted, TxnCoordinator
from .mvcc import VersionedGroupStore
from .retry import RetryStats, make_policy, run_with_retries
from .ssi import describe_cycle

__all__ = [
    "Rendezvous",
    "TxnWorkloadReport",
    "build_txn_system",
    "run_txn_workload",
]


class Rendezvous:
    """Two-party meeting point on one shared event.

    The first arriver parks on the event (no polling, so waiting costs
    no kernel events); the second succeeds it and carries straight on.
    """

    def __init__(self, sim: Simulator):
        self._met = Event(sim, "rendezvous")
        self._waiting = False

    def arrive(self, task) -> Generator:
        if self._waiting:
            self._met.succeed()
        else:
            self._waiting = True
            yield from task.wait(self._met)


@dataclass
class TxnWorkloadReport:
    """Deterministic outcome of one workload run."""

    seed: int
    mode: str
    n_groups: int
    attempted: int
    commits: int
    aborts_ww: int
    aborts_ssi: int
    aborts_other: int
    reads: int
    failovers: int
    served: List[List[int]]  # reads routed per group per replica
    anomaly: str
    sim_ms: float
    mix: List[Tuple[str, int, int]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    retry: str = "none"
    retry_attempts: int = 0
    retries: int = 0
    gave_up: int = 0
    backoff_ms: float = 0.0
    amplification: float = 0.0
    retry_by_reason: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def aborts(self) -> int:
        return self.aborts_ww + self.aborts_ssi + self.aborts_other

    def render(self) -> str:
        lines = [
            f"=== txn workload (seed {self.seed}, mode {self.mode}, "
            f"{self.n_groups} groups)",
            f"    attempted={self.attempted} committed={self.commits} "
            f"aborted={self.aborts} "
            f"(ww={self.aborts_ww} ssi={self.aborts_ssi} other={self.aborts_other})",
            f"    reads={self.reads} failovers={self.failovers} served="
            + ",".join("/".join(map(str, group)) for group in self.served)
            + f" sim_time={self.sim_ms:.3f}ms",
        ]
        for name, attempts, committed in self.mix:
            rate = 100.0 * (attempts - committed) / attempts if attempts else 0.0
            lines.append(
                f"    mix {name}: {committed}/{attempts} committed "
                f"(abort rate {rate:.1f}%)"
            )
        if self.retry != "none":
            reasons = " ".join(
                f"{reason}={count}" for reason, count in self.retry_by_reason
            )
            lines.append(
                f"    retry {self.retry}: attempts={self.retry_attempts} "
                f"retries={self.retries} gave_up={self.gave_up} "
                f"amplification={self.amplification:.2f} "
                f"backoff={self.backoff_ms:.3f}ms"
                + (f" [{reasons}]" if reasons else "")
            )
        lines.append(f"    serialization anomaly: {self.anomaly}")
        for error in self.errors:
            lines.append(f"    error: {error}")
        return "\n".join(lines)


def build_txn_system(
    sim: Simulator,
    cluster: Cluster,
    n_groups: int = 2,
    region_size: int = 1 << 14,
    mode: str = "ssi",
    name: str = "txn",
) -> TxnCoordinator:
    """Groups + versioned stores + coordinator on an existing cluster.

    All groups share the same replica hosts (partitions-per-server,
    §2.2).
    """
    hosts = cluster.hosts[1:4]
    stores = []
    for index in range(n_groups):
        group = HyperLoopGroup(
            cluster[0],
            hosts,
            region_size=region_size,
            rounds=16,
            name=f"{name}.g{index}",
        )
        stores.append(VersionedGroupStore(group, name=f"{name}.s{index}"))
    tracker = AvailabilityTracker()
    return TxnCoordinator(stores, mode=mode, tracker=tracker, name=name)


def run_txn_workload(
    seed: int = 7,
    mode: str = "ssi",
    n_groups: int = 2,
    n_txns: int = 24,
    n_workers: int = 3,
    write_skew_pairs: int = 2,
    deadline_ms: int = 10_000,
    retry: str = "none",
) -> TxnWorkloadReport:
    """Run the full mix; returns the deterministic report.

    ``retry`` picks the policy for the main mix ("none" / "immediate"
    / "backoff"); write-skew litmus pairs never retry — the point is
    that exactly one per pair aborts. ``retry="none"`` is the no-retry
    control CI pins.
    """
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=n_groups, mode=mode)
    policy = make_policy(retry, rng=sim.rng("txn-retry"))
    retry_stats = RetryStats()

    keys = [f"k{index:02d}".encode() for index in range(12)]
    skew_keys = [
        (f"ws{pair}x".encode(), f"ws{pair}y".encode())
        for pair in range(write_skew_pairs)
    ]
    rng = sim.rng("txn-ops")

    # Per-worker op plans, drawn up-front from one named stream.
    plans: List[List[Tuple]] = []
    per_worker = max(1, n_txns // n_workers)
    for _ in range(n_workers):
        plan = []
        for _ in range(per_worker):
            kind = rng.choice(["rmw", "rmw", "transfer", "readonly"])
            if kind == "rmw":
                plan.append(("rmw", rng.choice(keys)))
            elif kind == "transfer":
                first, second = rng.sample(keys, 2)
                plan.append(("transfer", first, second))
            else:
                plan.append(("readonly", tuple(rng.sample(keys, 3))))
        plans.append(plan)

    mix_attempts: Dict[str, int] = {}
    mix_commits: Dict[str, int] = {}
    errors: List[str] = []
    progress = {"init": False, "workers": 0, "pairs": 0}

    def bump(value: Optional[bytes]) -> bytes:
        current = int.from_bytes(value or b"\x00", "little")
        return ((current + 1) & 0xFFFFFFFF).to_bytes(8, "little")

    def init_body(task):
        txn = yield from coordinator.begin(task)
        for key in keys:
            coordinator.write(txn, key, (1).to_bytes(8, "little"))
        for x_key, y_key in skew_keys:
            coordinator.write(txn, x_key, (1).to_bytes(8, "little"))
            coordinator.write(txn, y_key, (1).to_bytes(8, "little"))
        yield from coordinator.commit(task, txn)
        progress["init"] = True

    def attempt_spec(spec):
        name = spec[0]

        def attempt(task):
            txn = yield from coordinator.begin(task)
            if name == "rmw":
                value = yield from coordinator.read(task, txn, spec[1])
                coordinator.write(txn, spec[1], bump(value))
            elif name == "transfer":
                first = yield from coordinator.read(task, txn, spec[1])
                second = yield from coordinator.read(task, txn, spec[2])
                coordinator.write(txn, spec[1], bump(first))
                coordinator.write(txn, spec[2], bump(second))
            else:
                for key in spec[1]:
                    yield from coordinator.read(task, txn, key)
            yield from coordinator.commit(task, txn)

        return attempt

    def run_spec(task, spec):
        name = spec[0]
        mix_attempts[name] = mix_attempts.get(name, 0) + 1
        outcome, _, _ = yield from run_with_retries(
            task, policy, attempt_spec(spec), retry_stats
        )
        if outcome == "committed":
            mix_commits[name] = mix_commits.get(name, 0) + 1

    def worker_body(worker):
        def body(task):
            for spec in plans[worker]:
                yield from run_spec(task, spec)
            progress["workers"] += 1

        return body

    # Write-skew pairs: a tiny rendezvous makes the overlap certain —
    # both sides read both keys before either writes, so the rw cycle
    # exists whenever both commit.
    def skew_body(pair, side):
        x_key, y_key = skew_keys[pair]
        rendezvous = skew_state[pair]

        def body(task):
            mix_attempts["write-skew"] = mix_attempts.get("write-skew", 0) + 1
            txn = yield from coordinator.begin(task)
            try:
                yield from coordinator.read(task, txn, x_key)
                yield from coordinator.read(task, txn, y_key)
                yield from rendezvous.arrive(task)
                coordinator.write(
                    txn, y_key if side == 0 else x_key, (0).to_bytes(8, "little")
                )
                yield from coordinator.commit(task, txn)
                mix_commits["write-skew"] = mix_commits.get("write-skew", 0) + 1
            except TxnAborted:
                pass
            progress["pairs"] += 1

        return body

    skew_state = [Rendezvous(sim) for _ in range(write_skew_pairs)]

    cluster[0].os.spawn(init_body, name="txn.init")
    run_until(sim, lambda: progress["init"], deadline_ms=deadline_ms)
    for worker in range(n_workers):
        cluster[0].os.spawn(worker_body(worker), name=f"txn.w{worker}")
    for pair in range(write_skew_pairs):
        for side in range(2):
            cluster[0].os.spawn(
                skew_body(pair, side), name=f"txn.ws{pair}.{side}"
            )
    run_until(
        sim,
        lambda: progress["workers"] == n_workers
        and progress["pairs"] == 2 * write_skew_pairs,
        deadline_ms=deadline_ms,
    )
    sim.run(until=sim.now + 2 * MS)

    for store in coordinator.stores:
        errors.extend(store.group.errors)

    mix = [
        (name, mix_attempts[name], mix_commits.get(name, 0))
        for name in sorted(mix_attempts)
    ]
    return TxnWorkloadReport(
        seed=seed,
        mode=mode,
        n_groups=n_groups,
        attempted=1 + sum(mix_attempts.values()),
        commits=coordinator.commits,
        aborts_ww=coordinator.aborts_ww,
        aborts_ssi=coordinator.aborts_ssi,
        aborts_other=coordinator.aborts_unavailable
        + coordinator.aborts_failover
        + coordinator.aborts_install
        + coordinator.aborts_user,
        reads=coordinator.reads_observed,
        failovers=coordinator.tracker.failovers,
        served=coordinator.tracker.served,
        anomaly=describe_cycle(coordinator.history),
        sim_ms=sim.now / MS,
        mix=mix,
        errors=errors[:3],
        retry=policy.name,
        retry_attempts=retry_stats.attempts,
        retries=retry_stats.retries,
        gave_up=retry_stats.gave_up,
        backoff_ms=retry_stats.backoff_ns / MS,
        amplification=retry_stats.amplification,
        retry_by_reason=sorted(retry_stats.by_reason.items()),
    )
