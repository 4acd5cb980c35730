"""Deterministic multi-group transaction workload (`python -m repro txn`).

Builds N replica groups on one cluster, layers the SSI coordinator
over them, and drives a seeded mix of transaction shapes from
concurrent worker tasks:

* ``rmw`` — read a key, write back a bumped value.
* ``transfer`` — read two keys (usually on different groups), bump
  both; the cross-group commit exercises the sorted multi-group
  install path.
* ``readonly`` — scan a few keys; populates wr/rw edges without ever
  being abortable.
* ``write-skew pairs`` — the SI litmus test: two transactions
  rendezvous so each reads both of a key pair, then each writes the
  *other* key, then both try to commit. Plain SI admits both (the
  offline checker then finds the rw/rw cycle); SSI must abort exactly
  one per pair.

A transaction is data: a list of steps (``read``, ``write``,
``insert``, ``scan``, ``bump``, ``meet``) that :func:`run_txn` runs
between ``begin`` and ``commit``. :func:`run_clients` is the one
client loop this mix and transactional YCSB share — init, retrying
workers, one-shot transactions, the drain — and the chaos
scenarios run their transactions through :func:`run_txn` too.

Everything is a pure function of ``(seed, parameters)``: key choices
and values come from named ``sim.rng`` streams, timestamps from the
virtual clock, and the report renders no wall-clock state — CI runs
the workload twice and byte-diffs the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..bench.harness import run_until
from ..core.group import HyperLoopGroup
from ..hw.host import Cluster
from ..sim import MS, Event, Simulator
from .available_copies import AvailabilityTracker
from .coordinator import TxnAborted, TxnCoordinator
from .mvcc import VersionedGroupStore
from .retry import RetryPolicy, RetryStats, make_policy, run_with_retries
from .ssi import describe_cycle

__all__ = [
    "Rendezvous",
    "Step",
    "TxnWorkloadReport",
    "build_txn_system",
    "run_clients",
    "run_txn",
    "run_txn_workload",
]

Step = Tuple[Any, ...]
"""One step of a transaction (:func:`run_txn`)."""


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
    peer_waits: int = 0
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
            aborted = self.retries + self.gave_up
            per_commit = aborted / max(1, self.retry_attempts - aborted)
            lines.append(
                f"    retry {self.retry}: attempts={self.retry_attempts} "
                f"retries={self.retries} gave_up={self.gave_up} "
                f"amplification={self.amplification:.2f} "
                f"aborts/commit={per_commit:.2f} "
                f"peer_waits={self.peer_waits} backoff={self.backoff_ms:.3f}ms"
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


def bump_counter(value: Optional[bytes]) -> bytes:
    """The shaped mix's bump: an 8-byte little-endian counter (a key
    never written counts as 0)."""
    current = int.from_bytes(value or b"\x00", "little")
    return ((current + 1) & 0xFFFFFFFF).to_bytes(8, "little")


def init_steps(keys: Sequence[bytes]) -> List[Step]:
    """Set every key's counter to 1."""
    return [("write", key, (1).to_bytes(8, "little")) for key in keys]


def rmw(key: bytes) -> List[Step]:
    """Read a key, write back its bumped counter."""
    return [("read", key), ("bump", key, bump_counter)]


def transfer(first: bytes, second: bytes) -> List[Step]:
    """Read two keys, then bump both."""
    return [
        ("read", first),
        ("read", second),
        ("bump", first, bump_counter),
        ("bump", second, bump_counter),
    ]


def write_skew(
    keys: Sequence[bytes], written: bytes, rendezvous: Rendezvous
) -> List[Step]:
    """One side of a write-skew pair: read both keys, meet the other
    side, zero ``written``."""
    return [("read", key) for key in keys] + [
        ("meet", rendezvous),
        ("write", written, (0).to_bytes(8, "little")),
    ]


def run_txn(task, coordinator: TxnCoordinator, steps: Sequence[Step]) -> Generator:
    """Run one transaction: ``begin``, each step in order, ``commit``.

    One call is one attempt: a :class:`TxnAborted` from any verb
    propagates, and a retry calls again on a fresh transaction. The
    steps are ``("read", key)``, ``("write", key, value)``,
    ``("insert", key, value)``, ``("scan", start, limit)``,
    ``("bump", key, f)`` — write ``f(v)``, ``v`` the value this attempt
    last read for ``key`` — and ``("meet", rendezvous)``.
    """
    txn = yield from coordinator.begin(task)
    read: Dict[bytes, Optional[bytes]] = {}
    for step in steps:
        verb = step[0]
        if verb == "read":
            read[step[1]] = yield from coordinator.read(task, txn, step[1])
        elif verb == "write":
            coordinator.write(txn, step[1], step[2])
        elif verb == "bump":
            coordinator.write(txn, step[1], step[2](read[step[1]]))
        elif verb == "insert":
            coordinator.insert(txn, step[1], step[2])
        elif verb == "scan":
            yield from coordinator.scan(task, txn, step[1], step[2])
        elif verb == "meet":
            yield from step[1].arrive(task)
        else:
            raise ValueError(f"unknown transaction step {step!r}")
    yield from coordinator.commit(task, txn)


def run_clients(
    cluster: Cluster,
    coordinator: TxnCoordinator,
    name: str,
    init: Sequence[Step],
    plans: Sequence[Sequence[Tuple[str, Sequence[Step]]]],
    policy: RetryPolicy,
    stats: RetryStats,
    one_shots: Sequence[Tuple[str, str, Sequence[Step]]] = (),
    deadline_ms: int = 10_000,
) -> Tuple[Dict[str, List[int]], List[str]]:
    """The client side of the shaped mix and of transactional YCSB.

    ``<name>.init`` runs ``init`` alone. Then each worker
    ``<name>.w<i>`` runs the ``(label, steps)`` transactions of
    ``plans[i]`` in order, each through :func:`run_with_retries`, and
    beside them each one-shot ``(task, label, steps)`` runs once as
    ``<name>.<task>`` — no retry, no ``stats``, an abort ends it. Once
    every client is done the world runs 2 ms more. Returns
    ``{label: [attempted, committed]}`` and the groups' errors.
    """
    sim, spawn = cluster.sim, cluster[0].os.spawn
    tally: Dict[str, List[int]] = {}
    progress = {"init": False, "clients": 0}

    def init_client(task):
        yield from run_txn(task, coordinator, init)
        progress["init"] = True

    def worker(plan):
        def body(task):
            for label, steps in plan:
                counts = tally.setdefault(label, [0, 0])
                counts[0] += 1
                attempt = partial(run_txn, coordinator=coordinator, steps=steps)
                outcome, _, _ = yield from run_with_retries(
                    task, policy, attempt, stats
                )
                if outcome == "committed":
                    counts[1] += 1
            progress["clients"] += 1

        return body

    def one_shot(label, steps):
        def body(task):
            counts = tally.setdefault(label, [0, 0])
            counts[0] += 1
            try:
                yield from run_txn(task, coordinator, steps)
                counts[1] += 1
            except TxnAborted:
                pass
            progress["clients"] += 1

        return body

    spawn(init_client, name=f"{name}.init")
    run_until(sim, lambda: progress["init"], deadline_ms=deadline_ms)
    for index, plan in enumerate(plans):
        spawn(worker(plan), name=f"{name}.w{index}")
    for task_name, label, steps in one_shots:
        spawn(one_shot(label, steps), name=f"{name}.{task_name}")
    clients = len(plans) + len(one_shots)
    run_until(sim, lambda: progress["clients"] == clients, deadline_ms=deadline_ms)
    sim.run(until=sim.now + 2 * MS)
    errors = [error for store in coordinator.stores for error in store.group.errors]
    return tally, errors


_WORKERS = 3


def run_txn_workload(
    seed: int = 7,
    mode: str = "ssi",
    n_groups: int = 2,
    n_txns: int = 24,
    write_skew_pairs: int = 2,
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

    # Every transaction is drawn up front from one named stream, then
    # dealt to the workers in contiguous blocks, the first
    # ``n_txns % _WORKERS`` workers one more each.
    txns: List[Tuple[str, List[Step]]] = []
    for _ in range(n_txns):
        kind = rng.choice(["rmw", "rmw", "transfer", "readonly"])
        if kind == "rmw":
            txns.append((kind, rmw(rng.choice(keys))))
        elif kind == "transfer":
            txns.append((kind, transfer(*rng.sample(keys, 2))))
        else:
            txns.append((kind, [("read", key) for key in rng.sample(keys, 3)]))
    share, extra = divmod(n_txns, _WORKERS)
    plans, start = [], 0
    for worker in range(_WORKERS):
        end = start + share + (worker < extra)
        plans.append(txns[start:end])
        start = end

    # Write-skew pairs: a tiny rendezvous makes the overlap certain —
    # both sides read both keys before either writes, so the rw cycle
    # exists whenever both commit.
    one_shots = []
    for pair, (x_key, y_key) in enumerate(skew_keys):
        rendezvous = Rendezvous(sim)
        for side, written in enumerate((y_key, x_key)):
            one_shots.append(
                (
                    f"ws{pair}.{side}",
                    "write-skew",
                    write_skew((x_key, y_key), written, rendezvous),
                )
            )

    init = init_steps(keys + [key for pair in skew_keys for key in pair])
    tally, errors = run_clients(
        cluster, coordinator, "txn", init, plans, policy, retry_stats, one_shots
    )
    return TxnWorkloadReport(
        seed=seed,
        mode=mode,
        n_groups=n_groups,
        attempted=1 + sum(attempts for attempts, _ in tally.values()),
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
        mix=[(label, *counts) for label, counts in sorted(tally.items())],
        errors=errors[:3],
        retry=policy.name,
        retry_attempts=retry_stats.attempts,
        retries=retry_stats.retries,
        gave_up=retry_stats.gave_up,
        backoff_ms=retry_stats.backoff_ns / MS,
        peer_waits=retry_stats.peer_waits,
        amplification=retry_stats.amplification,
        retry_by_reason=sorted(retry_stats.by_reason.items()),
    )
