"""Chaos scenarios: a workload, a fault plan, and invariants.

Every scenario is one frozen :class:`Scenario` value in the
:data:`SCENARIOS` table: a cluster size, its replica groups, the fault
plan's events, a workload, a recovery and the checks the run must
pass. One function, :func:`_drive`, builds the world in a fixed
order, runs it, quiesces it and renders the report; ``python -m repro
chaos`` runs the table. What really differs between scenarios — six
workloads and the recovery steps — are small functions a spec names;
:func:`_drive` never branches on a scenario's name.

Everything here is deterministic in ``(scenario, seed)``: operation
streams and payloads come from named ``sim.rng`` streams, fault timing
from the virtual clock, and reports contain no wall-clock state — the
CI chaos job runs the matrix twice and diffs the output.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bench.harness import run_until
from ..core.group import HyperLoopGroup
from ..hw.host import Cluster
from ..sim import MS, Simulator
from ..storage.kvstore import ReplicatedKVStore
from ..storage.recovery import ChainRepair, ClientReattach, HeartbeatMonitor
from ..txn import TxnAborted, TxnCoordinator, VersionedGroupStore
from ..txn.workload import Rendezvous, init_steps, rmw, run_txn, transfer, write_skew
from ..workloads.ycsb import WORKLOADS, YcsbWorkload
from .invariants import (
    InvariantResult,
    check_acked_writes,
    check_model_match,
    check_no_errors,
    check_no_serialization_anomaly,
    check_read_your_writes,
    check_replicas_identical,
    check_suspicion_bound,
    check_txn_acked_writes,
    check_wal_recovery,
)
from .plan import FaultEvent, FaultInjector, FaultPlan

__all__ = [
    "COMPOUND_SCENARIOS",
    "SCENARIOS",
    "Scenario",
    "ScenarioReport",
    "run_scenario",
    "run_matrix",
    "render_matrix",
]


@dataclass
class ScenarioReport:
    """Deterministic outcome of one chaos scenario run."""

    name: str
    seed: int
    passed: bool
    ops: int
    sim_ms: float
    faults: Dict[str, int]
    invariants: List[InvariantResult]
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"=== {self.name} (seed {self.seed}): {status}",
            f"    ops={self.ops} sim_time={self.sim_ms:.3f}ms",
        ]
        active = [f"{key}={value}" for key, value in sorted(self.faults.items()) if value]
        lines.append("    faults: " + (" ".join(active) if active else "none"))
        for result in self.invariants:
            lines.append("    " + result.render())
        for note in self.notes:
            lines.append("    note: " + note)
        return "\n".join(lines)


# -- the world one run builds --------------------------------------------------------


class _World:
    """One run's live state: what the spec's pieces make and the checks read.

    Notes and check details are format strings rendered with
    ``format_map(world)``, so they name world attributes directly
    (``{reissued}``, ``{coordinator.commits}``, ``{suspected[0]}``).
    ``paused``, ``blocked`` and ``recovered`` are the recovery's
    predicates: what the supervised writer and the run wait on.
    """

    def __init__(self, spec: "Scenario", seed: int):
        self.spec = spec
        self.sim = Simulator(seed=seed)
        self.cluster = Cluster(self.sim, n_hosts=spec.hosts, n_cores=4)
        self.client = self.cluster[0]
        self.coordinator: Optional[TxnCoordinator] = None
        self.monitors: List[HeartbeatMonitor] = []
        self.repairers: List = []  # ChainRepair per repaired group, or the reattacher
        self.outage = False
        self.recovered: Callable[[], bool] = lambda: True
        self.ops = 0
        self.hung = False
        self.reissued = 0
        self.retried = 0
        self.model = bytearray(spec.region_size)
        self.acked: Dict[int, bytes] = {}

    def __getitem__(self, key: str):
        return getattr(self, key)

    @property
    def group(self):
        """The stream's group: the repaired or re-attached one, else the first."""
        return self.repairers[0].group if self.repairers else self.groups[0]

    @property
    def membership(self) -> str:
        return ",".join(host.name for host in self.group.replicas)

    @property
    def repairs(self) -> List[int]:
        return [repairer.repairs for repairer in self.repairers]

    @property
    def suspected(self) -> List[Optional[int]]:
        """The replica index each monitor suspected first (None: none)."""
        return [detects[0][1] if detects else None for detects in self.detects]

    @property
    def failed_hosts(self) -> List[str]:
        """The hosts the first monitor suspected, in order."""
        monitor = self.monitors[0]
        return [monitor.replicas[index].name for _, index in self.detects[0]]

    @property
    def inserts(self) -> int:
        """Committed transactions that inserted a key (``n…``)."""
        return sum(
            1
            for txn in self.coordinator.history
            if any(key.startswith(b"n") for key in txn.writes)
        )

    @property
    def committed_count(self) -> int:
        return len(self.committed)


def _group(client, hosts, name, region_size):
    return HyperLoopGroup(client, hosts, region_size=region_size, rounds=16, name=name)


def _factory(world, prefix):
    """``ChainRepair``'s group factory: ``prefix1``, ``prefix2``, ... in build order."""
    generation = itertools.count(1)
    name = world.spec.name + prefix
    return lambda members: _group(
        world.client, members, f"{name}{next(generation)}", world.spec.region_size
    )


# -- workloads -----------------------------------------------------------------------
#
# A workload is ``start(world)``: it builds the workload's data, spawns
# its tasks and returns those whose ends finish it.


def _stream(rng, n_ops, region_size, slot=256):
    """``n_ops`` random ``(offset, payload)`` gWRITEs, one per slot-aligned offset."""
    ops = []
    for _ in range(n_ops):
        offset = rng.randrange(region_size // slot) * slot
        size = rng.randrange(16, slot)
        ops.append((offset, bytes([rng.randrange(1, 256)]) * size))
    return ops


def _run_ops(world, ops, name, pace_ns=0):
    """An unsupervised writer task ``<scenario>.<name>``: each op in
    turn, ``pace_ns`` apart. An op is ``("gwrite", offset, data)``,
    ``("gmemcpy", src, dst, size)`` or ``("gcas", lock, compare,
    swap)`` on the first group, mirrored into the client's model (a
    landed gWRITE also into ``acked``; a gCAS that finds another value
    is a linearizability violation), or ``("txn", steps)``, one
    transaction run to its end."""
    group, model, injector = world.group, world.model, world.injector

    def body(task):
        for op in ops:
            if op[0] == "gwrite":
                _, offset, data = op
                group.write_local(offset, data)
                model[offset : offset + len(data)] = data
                yield from group.gwrite(task, offset, len(data))
                world.acked[offset] = data
            elif op[0] == "gmemcpy":
                _, src, dst, size = op
                model[dst : dst + size] = model[src : src + size]
                yield from group.gmemcpy(task, src, dst, size)
            elif op[0] == "txn":
                yield from _txn_probe(world, op[1], {})(task)
            else:
                _, lock, compare, swap = op
                model[lock : lock + 8] = swap.to_bytes(8, "little")
                result = yield from group.gcas(task, lock, compare, swap)
                if any(value != compare for value in result):
                    world.cas_mismatches.append(f"{name}@{lock}: {result}")
            injector.notify_op()
            if pace_ns:
                yield from task.sleep(pace_ns)

    return world.client.os.spawn(body, name=f"{world.spec.name}.{name}")


def _paced(n_ops, pace_ns, slot=256):
    """One writer of ``n_ops`` random gWRITEs, ``pace_ns`` apart."""

    def start(world):
        ops = _stream(world.sim.rng("chaos-ops"), n_ops, world.spec.region_size, slot)
        world.ops = len(ops)
        return [_run_ops(world, [("gwrite", *op) for op in ops], "writer", pace_ns)]

    return start


_EPOCH_ABORTS = ("aborted:failover", "aborted:stale-epoch")


def _supervise(world, n_ops, launch, settled):
    """The writer of every recovery scenario: ``n_ops`` ops in order,
    each run as an abandonable probe task until it lands.

    Each attempt waits out ``world.blocked()`` in 100 µs polls, notes
    the membership (every recovered group) and spawns the probe with
    ``launch(index, view, outcome)``, then reports phase
    ``launch-<index>`` so a plan can land a fault while that op is in
    flight. It then polls every 50 µs until the probe ends, the
    membership changes or ``world.paused()``. A probe still running
    then died with its chain — never acked, it stays parked on the dead
    chain's ack event — and the op is re-issued on the new membership
    (``world.reissued``). A transaction the probe reports aborted by
    ``failover`` or ``stale-epoch`` lost to an epoch bump and is
    replayed (``world.retried``). A landed op runs ``settled(index)``
    and counts toward the plan's ``at_op`` triggers.
    """
    injector = world.injector

    def view():
        return tuple(repairer.group for repairer in world.repairers)

    def writer(task):
        for index in range(n_ops):
            while True:
                while world.blocked():
                    yield from task.sleep(100_000)
                current = view()
                outcome: Dict[str, str] = {}
                sub = launch(index, current, outcome)
                injector.notify_phase(f"launch-{index}")
                while (
                    not sub.process.triggered
                    and view() == current
                    and not world.paused()
                ):
                    yield from task.sleep(50_000)
                if not sub.process.triggered:
                    world.reissued += 1
                elif outcome.get("result") in _EPOCH_ABORTS:
                    world.retried += 1
                else:
                    break
            settled(index)
            injector.notify_op()

    return [world.client.os.spawn(writer, name=f"{world.spec.name}.writer")]


def _supervised(n_ops, ycsb=False):
    """:func:`_supervise` over a gWRITE stream on the recovered group:
    random ops, or with ``ycsb`` an update stream keyed by YCSB
    workload A over 48 fixed-size slots."""

    def start(world):
        region_size, sim = world.spec.region_size, world.sim
        if ycsb:
            slots, value_bytes = 48, 192
            ycsb_a = YcsbWorkload(
                WORKLOADS["A"], slots, value_size=value_bytes, seed=sim.seed
            )
            data_rng = sim.rng("failover-data")
            ops = []
            for _ in range(n_ops):
                offset = (ycsb_a.next_operation().key % slots) * (region_size // slots)
                ops.append((offset, bytes([data_rng.randrange(1, 256)]) * value_bytes))
        else:
            ops = _stream(sim.rng("chaos-ops"), n_ops, region_size)
        world.ops = len(ops)

        def launch(index, view, outcome):
            offset, data = ops[index]
            group = view[0]
            group.write_local(offset, data)
            return world.client.os.spawn(
                lambda task: group.gwrite(task, offset, len(data)),
                name=f"{world.spec.name}.op{index}",
            )

        def settled(index):
            offset, data = ops[index]
            world.model[offset : offset + len(data)] = data
            world.acked[offset] = data

        return _supervise(world, len(ops), launch, settled)

    return start


def _lossy(world):
    """Two workers of 18 ops mixing all three primitives (the
    chaos-consistency generator), each in its own slab of the region,
    with a gCAS lock word per worker past the slabs."""
    n_workers, ops_per_worker = 2, 18
    rng = world.sim.rng("chaos-ops")
    slab = world.spec.region_size // (n_workers + 1)

    def make_plan(worker):
        base = slab * worker
        ops = []
        phase = 0
        for _ in range(ops_per_worker):
            kind = rng.choice(["gwrite", "gwrite", "gmemcpy", "gcas"])
            if kind == "gwrite":
                offset = base + rng.randrange(0, slab // 2)
                size = rng.randrange(1, 300)
                ops.append(("gwrite", offset, bytes([rng.randrange(256)]) * size))
            elif kind == "gmemcpy":
                src = base + rng.randrange(0, slab // 4)
                dst = base + slab // 2 + rng.randrange(0, slab // 4)
                ops.append(("gmemcpy", src, dst, rng.randrange(1, 200)))
            else:
                lock = slab * n_workers + worker * 8
                ops.append(("gcas", lock, phase, 1 - phase))
                phase = 1 - phase
        return ops

    plans = [make_plan(worker) for worker in range(n_workers)]
    world.ops = n_workers * ops_per_worker
    world.cas_mismatches = []
    return [_run_ops(world, plan, f"w{worker}") for worker, plan in enumerate(plans)]


def _kv_puts(world):
    """24 puts (and a delete of the key two back every fifth put) on a
    replicated KV store over the first group, checkpointed halfway."""
    name, injector = world.spec.name, world.injector
    store = ReplicatedKVStore(world.group, start_sync_tasks=False, name=f"{name}.kv")
    world.store, world.committed = store, {}
    value_rng = world.sim.rng("pf-values")
    world.ops = n_ops = 24

    def body(task):
        for index in range(n_ops):
            key = f"key{index:03d}".encode()
            if index % 5 == 4 and index >= 2:
                victim = f"key{index - 2:03d}".encode()
                yield from store.delete(task, victim)
                world.committed.pop(victim, None)
            value = bytes([value_rng.randrange(1, 256)]) * 64
            yield from store.put(task, key, value)
            world.committed[key] = value
            if index == n_ops // 2:
                yield from store.checkpoint(task)
            injector.notify_op()

    return [world.client.os.spawn(body, name=f"{name}.writer")]


def _txn_probe(world, steps, outcome):
    """A one-shot task body running one transaction's steps
    (:func:`~repro.txn.workload.run_txn`); it records how the
    transaction ended in ``outcome["result"]``.

    The supervised writer spawns it as a probe sub-task so it can
    abandon it if its chain dies mid-commit (the coordinator's epoch
    guard keeps the zombie from committing after failover)."""

    def body(task):
        try:
            yield from run_txn(task, world.coordinator, steps)
            outcome["result"] = "committed"
        except TxnAborted as exc:
            outcome["result"] = f"aborted:{exc.reason}"

    return body


def _keys(n):
    return [f"k{index:02d}".encode() for index in range(n)]


def _txn_mix(rng, keys, n):
    """``n`` transactions, each a read-modify-write or a transfer."""
    txns = []
    for _ in range(n):
        if rng.random() < 0.5:
            txns.append(rmw(rng.choice(keys)))
        else:
            txns.append(transfer(*rng.sample(keys, 2)))
    return txns


def _init_and_mix(n, rng):
    """Initialise eight keys, then ``n`` mixed transactions over them."""
    keys = _keys(8)
    return [init_steps(keys)] + _txn_mix(rng, keys, n)


def _init_and_inserts(rng):
    """Initialise six keys, then cycle scan, read-modify-write, insert.

    The crash fires when the sixth transaction's notify lands, so
    transaction 6 — an insert by construction of the cycle — finds the
    replica dead while its commit install is on the wire."""
    keys = _keys(6)
    txns = [init_steps(keys)]
    inserted = 0
    for index in range(1, 16):
        kind = ("scan", "rmw", "insert")[index % 3]  # index 6 -> insert
        if kind == "insert":
            key = f"n{inserted:02d}".encode()
            txns.append([("insert", key, (1).to_bytes(8, "little"))])
            inserted += 1
        elif kind == "scan":
            txns.append([("scan", rng.choice(keys), 4)])
        else:
            txns.append(rmw(rng.choice(keys)))
    return txns


def _txn_specs(make):
    """:func:`_supervise` over the transactions ``make(rng)`` gives."""

    def start(world):
        txns = make(world.sim.rng("chaos-ops"))
        world.ops = len(txns)

        def launch(index, view, outcome):
            return world.client.os.spawn(
                _txn_probe(world, txns[index], outcome),
                name=f"{world.spec.name}.t{index}",
            )

        return _supervise(world, len(txns), launch, lambda index: None)

    return start


def _txn_workers(world):
    """An init transaction, then two workers of six mixed transactions
    beside one rendezvoused write-skew pair."""
    sim, name = world.sim, world.spec.name
    keys = _keys(8)
    skew = (b"wsx", b"wsy")
    rng = sim.rng("chaos-ops")
    n_workers, ops_per_worker = 2, 6
    plans = [_txn_mix(rng, keys, ops_per_worker) for _ in range(n_workers)]
    world.ops = 1 + n_workers * ops_per_worker + 2
    rendezvous = Rendezvous(sim)
    spawn = world.client.os.spawn
    init = _txn_probe(world, init_steps(keys + list(skew)), {})
    started = spawn(init, name=f"{name}.init")
    run_until(sim, lambda: started.process.triggered, world.spec.deadline_ms)
    tasks = [
        _run_ops(world, [("txn", steps) for steps in plan], f"w{worker}")
        for worker, plan in enumerate(plans)
    ]
    for side, written in enumerate(reversed(skew)):
        pair = _txn_probe(world, write_skew(skew, written, rendezvous), {})
        tasks.append(spawn(pair, name=f"{name}.ws{side}"))
    return tasks


# -- recoveries ----------------------------------------------------------------------
#
# A recovery is ``build(world)``: it makes the monitors, then the
# repairers or the reattacher, sets the world's ``paused``, ``blocked``
# and ``recovered`` predicates, and returns ``start()``, which spawns
# the tasks that drive it once the workload's are spawned.


def _no_recovery(world):
    """The plan's faults are ones the fabric rides out."""
    return lambda: None


def _repairs(monitor, repairer, spares, detects, after=None):
    """The detector: one detect -> repair round per spare, in order.

    Each round waits for a replica the monitor has not reported yet,
    appends ``(detect time, monitor index)`` to ``detects``, stops its
    beats and splices ``spares[round]`` in for it in the current chain.
    ``after(task, round)`` then runs; a generator it returns runs to
    completion before the next round.
    """

    def body(task):
        for round_, spare in enumerate(spares):
            index = yield from monitor.wait_for_suspicion(
                task, exclude={handled for _, handled in detects}
            )
            detects.append((task.sim.now, index))
            monitor.stop_beats(index)
            failed = repairer.group.replicas.index(monitor.replicas[index])
            yield from repairer.repair(
                task, failed, spare, copy_from=0 if failed != 0 else 1
            )
            if after is not None:
                yield from after(task, round_) or ()

    return body


def _repair(spares, prefix=".g", after=None):
    """Heartbeat detection and chain repair of groups ``0..n-1``: group
    ``g`` splices in the hosts ``spares[g]``, one per round.

    Each monitor beats every 2ms and suspects a replica after 3 missed
    beats; a spare that joins before the last round is monitored from
    the start (idle beats are harmless and never suspected). The
    repairers share one group factory, ``<scenario><prefix>N``; in a
    txn world their phases also pause the group's snapshot reads.
    ``after`` (:func:`_reset` or :func:`_probe_reset`) runs after each
    round, and until it marks its group rebound the writer waits.
    """

    def build(world):
        client, name, cluster = world.client, world.spec.name, world.cluster

        def tag(g):
            return str(g) if len(spares) > 1 else ""

        for g, joining in enumerate(spares):
            hosts = world.groups[g].replicas + [cluster[host] for host in joining[:-1]]
            beats = dict(interval=2 * MS, miss_threshold=3, name=f"{name}.hb{tag(g)}")
            world.monitors.append(HeartbeatMonitor(client, hosts, **beats))
        factory = _factory(world, prefix)
        for g, group in enumerate(world.groups[: len(spares)]):
            on_phase = world.injector.notify_phase
            if world.coordinator is not None:
                hook = world.coordinator.tracker.on_repair_phase(g)
                on_phase = _pausing_reads(hook, on_phase)
            repairer = ChainRepair(client, group, factory, on_phase=on_phase)
            world.repairers.append(repairer)
        world.detects = [[] for _ in spares]  # per monitor: (detect time, index)
        world.rebound = [after is None for _ in spares]
        world.drained = [None for _ in spares]
        world.reset_span = [[None, None] for _ in spares]
        world.resets_started, world.resets_done = 0, []
        world.spliced = Rendezvous(world.sim) if len(spares) == 2 else None
        world.paused = lambda: any(repairer.paused for repairer in world.repairers)
        world.blocked = lambda: world.paused() or any(
            repairer.repairs > 0 and not rebound
            for repairer, rebound in zip(world.repairers, world.rebound)
        )
        world.recovered = lambda: all(world.rebound) and world.repairs == [
            len(joining) for joining in spares
        ]

        def start():
            for g, joining in enumerate(spares):
                detector = _repairs(
                    world.monitors[g],
                    world.repairers[g],
                    [cluster[host] for host in joining],
                    world.detects[g],
                    after and functools.partial(after, world, g),
                )
                client.os.spawn(detector, name=f"{name}.detector{tag(g)}")

        return start

    return build


def _pausing_reads(hook, notify_phase):
    """A txn repairer's phases pause its group's snapshot reads
    (``hook``), then reach the injector's ``at_phase`` triggers."""

    def on_phase(phase):
        hook(phase)
        notify_phase(phase)

    return on_phase


def _reset(world, g, task, round_):
    """After-step: the coordinator's failover reset of group ``g`` once
    every repaired chain is spliced, so overlapping failovers sit
    inside ``reset_after_failover`` at the same time: two groups' resets
    meet first (one round each), since a reset with nothing to drain
    takes no simulated time and a later start would miss the other."""
    if world.spliced is not None:
        yield from world.spliced.arrive(task)
    world.reset_span[g][0] = world.sim.now
    drained = yield from world.coordinator.reset_after_failover(
        task, g, world.repairers[g].group
    )
    world.reset_span[g][1] = world.sim.now
    world.drained[g] = drained
    world.resets_done.append((round_, drained))
    world.rebound[g] = True


def _probe_reset(world, g, task, round_):
    """After-step: :func:`_reset` as an abandonable probe, after
    reporting phase ``reset``. A crash that phase arms parks the reset
    on a dead ack forever, and the detector must stay free to run its
    next round."""
    world.injector.notify_phase("reset")
    world.resets_started += 1
    reset = functools.partial(_reset, world, g, round_=round_)
    world.client.os.spawn(reset, name=f"{world.spec.name}.reset{round_}")


def _reattach(world):
    """The client host crashes and restarts: a recoverer reports phase
    ``client-down`` when it notices the outage (that arms the plan's
    restart), waits the restart out and re-attaches the first group
    through :class:`ClientReattach`. The writer waits while the client
    is down or the outage is unrepaired."""
    client = world.client
    reattacher = ClientReattach(client, world.groups[0], _factory(world, ".g"))
    world.repairers.append(reattacher)
    world.paused = lambda: client.down
    world.blocked = lambda: client.down or world.outage
    world.recovered = lambda: reattacher.reattaches == 1

    def recoverer(task):
        while not client.down:
            yield from task.sleep(200_000)
        world.outage = True
        world.injector.notify_phase("client-down")
        while client.down:
            yield from task.sleep(200_000)
        yield from reattacher.reattach(task)
        world.outage = False

    return lambda: client.os.spawn(recoverer, name=f"{world.spec.name}.recover")


# -- checks --------------------------------------------------------------------------
#
# A check maps the finished world to one InvariantResult.


def _check(name, detail, ok):
    """A check as data: ``ok(world)`` says whether it holds, and
    ``detail`` is formatted over the world like a note."""
    return lambda world: InvariantResult(name, ok(world), detail.format_map(world))


def _fired(*keys: str, commits: bool = False):
    """``fault-exercised``: the plan actually fired — scenarios must
    not pass vacuously.

    The txn crash scenarios also ask for ``commits``, the number of
    transactions the chain died under (abandoned or epoch-aborted and
    replayed): the crash must land on an in-flight commit, however
    fast the commit protocol is. Their crashes are armed by op count
    (``at_op``) and fire between two transactions, so the *next*
    commit's install runs into the dead chain at any protocol speed;
    the 50 µs and 100 µs polls of :func:`_supervise` are poll periods
    of the supervising task, not fault offsets.
    """

    def check(world):
        counters = world.injector.counters
        detail = " ".join(f"{key}={counters.get(key, 0)}" for key in keys)
        ok = sum(counters.get(key, 0) for key in keys) > 0
        if commits:
            commits_hit = world.reissued + world.retried
            detail += f" commits_hit={commits_hit}"
            ok = ok and commits_hit > 0
        return InvariantResult("fault-exercised", ok, detail)

    return check


_STREAM = (
    lambda world: check_acked_writes(world.group, world.acked),
    lambda world: check_model_match(world.group, world.model),
    lambda world: check_replicas_identical(world.group),
    lambda world: check_no_errors(world.group),
)
"""A gWRITE stream's checks on its final group: nothing acked lost,
every replica equal to the client's model and to each other, and no
completion errors (``[1:]`` and ``[2:]`` drop the first ones)."""

_TXN = (
    lambda world: check_no_serialization_anomaly(world.coordinator),
    lambda world: check_read_your_writes(world.coordinator),
    lambda world: check_txn_acked_writes(world.coordinator),
)


def _clean_group(index, label):
    return lambda world: check_no_errors(
        world.groups[index], name=f"no-group-errors-{label}"
    )


def _no_hang(world):
    """A hang is a *finding*, not a crash: :func:`_drive` reports a stuck
    workload here when the spec lists this check, so a sweep
    aggregates it and the shrinker can minimize the plan that caused
    it (e.g. an orphaned stall in a hand-replayed subset)."""
    if world.hung:
        detail = f"workload stuck after {len(world.acked)}/{world.ops} acked ops"
        return InvariantResult("no-hang", False, detail)
    return InvariantResult("no-hang", True, f"{world.ops} ops completed")


def _cas_linearizable(world):
    mismatches = world.cas_mismatches
    return InvariantResult(
        "gcas-linearizable",
        not mismatches,
        mismatches[0] if mismatches else "2 lock words",
    )


def _wal(replica, name):
    return lambda world: check_wal_recovery(
        world.store, replica, world.committed, name=name
    )


def _suspicion(round_, name="suspicion-bound"):
    def check(world):
        fired, detects = world.injector.fired, world.detects[0]
        crash_ns = fired[round_][0] if round_ < len(fired) else 0
        detect_ns = detects[round_][0] if round_ < len(detects) else 0
        return check_suspicion_bound(world.monitors[0], crash_ns, detect_ns, name=name)

    return check


def _resets_overlapped(world):
    spans = world.reset_span
    if not all(span[0] is not None and span[1] is not None for span in spans):
        return InvariantResult("resets-overlapped", False, "incomplete")
    overlap_ns = min(span[1] for span in spans) - max(span[0] for span in spans)
    return InvariantResult(
        "resets-overlapped", overlap_ns >= 0, f"overlap={overlap_ns / MS:.3f}ms"
    )


_DETECTED = _check(
    "failed-replica-detected",
    "suspected index {suspected[0]}",
    lambda world: world.suspected == [1],
)
_CRASHED = ["host2", "host3"]


# -- the spec and the run -----------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One chaos scenario as data.

    ``hosts`` is the cluster size (host0 is the client). Each entry of
    ``groups`` is ``(first replica host, name suffix)``: a HyperLoop
    group of three consecutive hosts named ``<name><suffix>``; ``txn``
    puts a versioned store on each and an SSI coordinator over them.
    ``events`` make the fault plan, its RNG stream named by ``label``
    (default: the scenario's name). The run ends when the workload has
    finished and the world has recovered, within ``deadline_ms`` of
    virtual time, then quiesces until ``drain_ms`` past
    ``max(now, faults_end_ms)``. The ``checks`` then run in order, and
    ``note`` (formatted over the world) is the report's note.
    """

    name: str
    description: str
    events: Tuple[FaultEvent, ...]
    workload: Callable
    checks: Tuple[Callable, ...]
    hosts: int = 4
    groups: Tuple[Tuple[int, str], ...] = ((1, ""),)
    txn: bool = False
    recovery: Callable = _no_recovery
    deadline_ms: int = 5_000
    drain_ms: int = 2
    faults_end_ms: int = 0
    region_size: int = 1 << 14
    label: str = ""
    note: str = ""

    def run(self, seed: int) -> ScenarioReport:
        return _drive(self, seed)


def _drive(spec: Scenario, seed: int) -> ScenarioReport:
    """Build ``spec``'s world, run it, quiesce it, check it, report.

    The build order is part of every report (INTERNALS, "Chaos
    scenarios"): groups; stores and coordinator; injector; monitors,
    then repairers or reattacher; the workload's tasks; the recovery's.
    """
    world = _World(spec, seed)
    sim, cluster, name = world.sim, world.cluster, spec.name
    client, hosts = world.client, cluster.hosts
    world.groups = [
        _group(client, hosts[first : first + 3], name + suffix, spec.region_size)
        for first, suffix in spec.groups
    ]
    if spec.txn:
        stores = [
            VersionedGroupStore(group, name=f"{name}.s{index}")
            for index, group in enumerate(world.groups)
        ]
        world.coordinator = TxnCoordinator(stores, mode="ssi", name=name)
    plan = FaultPlan(list(spec.events), label=spec.label or name)
    world.injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )
    start_recovery = spec.recovery(world)
    tasks = spec.workload(world)
    start_recovery()
    try:
        run_until(
            sim,
            lambda: all(task.process.triggered for task in tasks) and world.recovered(),
            deadline_ms=spec.deadline_ms,
        )
    except TimeoutError:
        if _no_hang not in spec.checks:
            raise
        world.hung = True
    if spec.drain_ms:  # stragglers: duplicates, late acks, the repaired chain
        sim.run(until=max(sim.now, spec.faults_end_ms * MS) + spec.drain_ms * MS)
    invariants = [check(world) for check in spec.checks]
    return ScenarioReport(
        name=spec.name,
        seed=seed,
        passed=all(result.ok for result in invariants),
        ops=world.ops,
        sim_ms=sim.now / MS,
        faults=world.injector.summary(),
        invariants=invariants,
        notes=[spec.note.format_map(world)] if spec.note else [],
    )


# -- the table -----------------------------------------------------------------------


def _crash(target, action="host_crash", **trigger):
    return FaultEvent(action, target=target, **trigger)


_STALL = (
    FaultEvent("nic_stall", target="host2", at_ms=0.5),
    FaultEvent("nic_resume", target="host2", at_ms=2.0),
)
_TXN_NOTE = (
    "committed={coordinator.commits} epoch={coordinator.certifier.epoch} "
    "failover_aborts={coordinator.aborts_failover} reissued={reissued} "
    "retried={retried} read_failovers={coordinator.tracker.failovers}"
)


def _failover(name, description, action, extra=(), fired=()):
    """Kill the mid-chain replica at op 25 of a YCSB-keyed update
    stream; the heartbeat monitor must suspect it, ChainRepair must
    splice in the spare, and writes must resume with nothing acked
    lost. ``extra`` events join the plan, and ``fired`` the keys the
    plan must exercise."""
    return Scenario(
        name,
        description,
        events=(_crash("host2", action, at_op=25),) + extra,
        workload=_supervised(50, ycsb=True),
        checks=(
            _fired(action, *fired),
            _DETECTED,
            _suspicion(0),
            _check(
                "repair-completed",
                "repairs={repairs[0]} membership={membership}",
                lambda world: world.repairs == [1]
                and world.group is not world.groups[0],
            ),
            *_STREAM,
        ),
        hosts=5,
        groups=((1, ".g0"),),
        recovery=_repair([[4]]),
        drain_ms=5,
        note="writes re-issued after failure: {reissued}",
    )


def _txn_crash(name, description, make, extra_checks=(), note=_TXN_NOTE):
    """A replica of participant group A (host2) dies at the sixth
    transaction: the heartbeat monitor suspects it, ChainRepair splices
    in the spare, the coordinator's failover reset aborts the parked
    epoch and drains the WAL, and the workload resumes. A transaction
    whose chain died under it (its commit parked on a dead ack, never
    acknowledged) is abandoned and replayed once the coordinator has
    rebound."""
    return Scenario(
        name,
        description,
        events=(_crash("host2", at_op=6),),
        workload=_txn_specs(make),
        checks=(
            _fired("host_crash", commits=True),
            _DETECTED,
            _check(
                "repair-completed",
                "repairs={repairs[0]} wal_drained={drained[0]}",
                lambda world: world.repairs == [1] and all(world.rebound),
            ),
            *extra_checks,
            *_TXN,
            _clean_group(1, "b"),
        ),
        hosts=8,
        groups=((1, ".a0"), (4, ".b")),
        txn=True,
        recovery=_repair([[7]], prefix=".a", after=_reset),
        deadline_ms=10_000,
        drain_ms=5,
        note=note,
    )


_TABLE = (
    Scenario(
        "drop",
        "3% message loss under a gWRITE stream",
        events=(FaultEvent("drop", probability=0.03),),
        workload=_paced(50, 0),
        checks=(_fired("drop"), *_STREAM),
    ),
    # Corruption, duplication, reordering-by-delay and a trickle of
    # drops under all three primitives at once (the chaos-consistency
    # generator, now on a lossy wire).
    Scenario(
        "lossy",
        "corrupt+duplicate+delay+drop under all three primitives",
        events=(
            FaultEvent("drop", probability=0.01),
            FaultEvent("corrupt", probability=0.01),
            FaultEvent("duplicate", probability=0.02, duplicates=1),
            FaultEvent("delay", probability=0.05, extra_delay_ns=2_000),
        ),
        workload=_lossy,
        checks=(
            _fired("corrupt", "duplicate", "delay", "drop"),
            _cas_linearizable,
            *_STREAM[1:],
        ),
        deadline_ms=10_000,
    ),
    Scenario(
        "partition",
        "3ms bidirectional mid-chain partition, then heal",
        events=(
            FaultEvent("partition", pair=("host1", "host2"), at_ms=1.0),
            FaultEvent("heal", pair=("host1", "host2"), at_ms=4.0),
        ),
        workload=_paced(40, 100_000),
        checks=(_fired("partition", "heal", "partition_drop"), *_STREAM),
    ),
    Scenario(
        "stall",
        "mid-chain NIC stalls 1.5ms, then resumes",
        events=_STALL,
        workload=_paced(40, 50_000),
        checks=(_fired("nic_stall", "nic_resume"), *_STREAM),
    ),
    _failover(
        "nic-crash", "mid-chain NIC crash -> heartbeat -> chain repair", "nic_crash"
    ),
    _failover(
        "host-crash", "mid-chain host crash -> heartbeat -> chain repair", "host_crash"
    ),
    # Replicated KV store loses power on a replica after the last
    # commit; its durable WAL + checkpoint must reconstruct every
    # committed operation (gFLUSH closed each durability window).
    Scenario(
        "power-failure",
        "replica power loss; WAL recovery from durable NVM",
        events=(_crash("host2", "host_power_failure", at_op=24),),
        workload=_kv_puts,
        checks=(
            _fired("host_power_failure"),
            _wal(1, "wal-recovery-failed-replica"),
            _wal(0, "wal-recovery-survivor"),
            *_STREAM[2:],
        ),
        drain_ms=0,
        region_size=1 << 15,
        note="committed keys at failure: {committed_count}",
    ),
    # Host crash -> repair, with a client<->survivor partition landing
    # the moment catch-up starts and healing 2ms in. The repair preads
    # and the chain rebuild must ride out the window on RC
    # retransmission — §5.1 recovery under the very faults it recovers
    # from.
    _failover(
        "partition-repair",
        "host crash -> repair with a partition landing mid-catch-up",
        "host_crash",
        extra=(
            FaultEvent("partition", pair=("host0", "host1"), at_phase="repair"),
            FaultEvent(
                "heal", pair=("host0", "host1"), at_phase="repair", phase_delay_ms=2.0
            ),
        ),
        fired=("partition", "heal", "partition_drop"),
    ),
    # Cascading failures: a second replica dies after the first repair
    # completes. Two full detect -> repair -> re-issue rounds must each
    # land within the suspicion bound with nothing acked lost.
    Scenario(
        "double-crash",
        "two replicas die in sequence; two repair rounds",
        events=(_crash("host2", at_op=15), _crash("host3", at_op=30)),
        workload=_supervised(45),
        checks=(
            _fired("host_crash"),
            _check(
                "both-crashes-fired",
                "host_crash fired {injector.counters[host_crash]}x",
                lambda world: world.injector.counters.get("host_crash") == 2,
            ),
            _check(
                "failed-replicas-detected",
                "detected {failed_hosts[0]},{failed_hosts[1]}",
                lambda world: world.failed_hosts == _CRASHED,
            ),
            _suspicion(0, "suspicion-bound-1"),
            _suspicion(1, "suspicion-bound-2"),
            _check(
                "repairs-completed",
                "repairs={repairs[0]} membership={membership}",
                lambda world: world.repairs == [2]
                and world.membership == "host1,host4,host5",
            ),
            *_STREAM,
        ),
        hosts=6,
        groups=((1, ".g0"),),
        recovery=_repair([[4, 5]]),
        drain_ms=5,
        note="writes re-issued after failures: {reissued}",
    ),
    # NIC stall layered on a lossy fabric: while host2's NIC is dark,
    # drops/delays/duplicates keep hitting every other link — the
    # retransmission path must absorb both at once.
    Scenario(
        "stall-lossy",
        "NIC stall layered on drop+delay+duplicate fabric",
        events=(
            FaultEvent("drop", probability=0.02),
            FaultEvent("delay", probability=0.05, extra_delay_ns=2_000),
            FaultEvent("duplicate", probability=0.02, duplicates=1),
        )
        + _STALL,
        workload=_paced(40, 50_000),
        checks=(_fired("drop", "delay", "duplicate", "nic_stall"), *_STREAM),
        deadline_ms=10_000,
    ),
    # The coordinator itself crashes mid-stream and restarts 1ms
    # later: ClientReattach rebuilds the read path over fresh QPs,
    # pulls the image from the chain head, and re-installs it through
    # a fresh group. The crash must land while a gwrite is *in flight*
    # (an op-count trigger fires synchronously between ops), so it
    # hangs off the phase the writer reports right after launching op
    # 15; the writer re-issues the op that died with the client.
    Scenario(
        "client-crash",
        "coordinator crash -> restart -> re-attach + catch-up",
        events=(
            _crash("host0", at_phase="launch-15"),
            _crash("host0", "host_restart", at_phase="client-down", phase_delay_ms=1.0),
        ),
        workload=_supervised(30),
        checks=(
            _fired("host_crash", "host_restart"),
            _check(
                "reattach-completed",
                "reattaches={repairers[0].reattaches}",
                lambda world: world.repairers[0].reattaches == 1
                and world.group is not world.groups[0],
            ),
            *_STREAM,
        ),
        groups=((1, ".g0"),),
        recovery=_reattach,
        note="writes re-issued after client crash: {reissued}",
    ),
    # Snapshot reads never stale and every published version durable
    # on the repaired chain, with the committed history anomaly-free.
    _txn_crash(
        "txn-failover",
        "replica crash mid-commit -> repair -> txn epoch reset + replay",
        functools.partial(_init_and_mix, 17),
        note=_TXN_NOTE.replace("epoch={coordinator.certifier.epoch} ", ""),
    ),
    # The in-flight insert's slot assignment survives as an orphan the
    # epoch guard keeps unpublished, and the replayed insert commits on
    # the repaired chain — with scans over the mixed keyspace staying
    # anomaly-free and every acked insert durable.
    _txn_crash(
        "txn-insert",
        "replica crash under an insert-bearing commit install -> replay",
        _init_and_inserts,
        extra_checks=(
            _check(
                "inserts-replayed",
                "insert-bearing commits: {inserts}",
                lambda world: world.inserts >= 1,
            ),
        ),
        note=(
            "committed={coordinator.commits} inserts={inserts} "
            "failover_aborts={coordinator.aborts_failover} "
            "phantom_aborts={coordinator.aborts_phantom} reissued={reissued} "
            "retried={retried} read_failovers={coordinator.tracker.failovers}"
        ),
    ),
    # The SSI workload on a lossy fabric: RC retransmission must absorb
    # the noise; the committed history must stay anomaly-free and every
    # version durable, and the write skew must still be caught.
    Scenario(
        "txn-chaos",
        "SSI transaction mix + write skew on a drop+delay+duplicate fabric",
        events=(
            FaultEvent("drop", probability=0.01),
            FaultEvent("delay", probability=0.04, extra_delay_ns=2_000),
            FaultEvent("duplicate", probability=0.02, duplicates=1),
        ),
        workload=_txn_workers,
        checks=(
            _fired("drop", "delay", "duplicate"),
            _check(
                "write-skew-caught",
                "ssi aborts={coordinator.aborts_ssi}",
                lambda world: world.coordinator.aborts_ssi >= 1,
            ),
            *_TXN,
            _clean_group(0, "0"),
            _clean_group(1, "1"),
        ),
        groups=((1, ".g0"), (1, ".g1")),
        txn=True,
        deadline_ms=10_000,
        note=(
            "committed={coordinator.commits} aborts_ssi={coordinator.aborts_ssi} "
            "aborts_ww={coordinator.aborts_ww}"
        ),
    ),
    # Overlapping failovers: one replica of *each* participant group
    # dies at the same op count, so the two failure windows open
    # together. Two detector/repair pipelines run concurrently,
    # rendezvous once both chains are spliced, and then both groups sit
    # inside reset_after_failover at the same time — the epoch bumps
    # twice, every parked commit is cleared, and the committed history
    # must still be anomaly-free with nothing acked lost and no
    # snapshot read served stale.
    Scenario(
        "txn-double-failover",
        "both txn groups lose a replica at once; overlapping repair + reset",
        events=(_crash("host2", at_op=6), _crash("host5", at_op=6)),
        workload=_txn_specs(functools.partial(_init_and_mix, 13)),
        checks=(
            _fired("host_crash", commits=True),
            _check(
                "both-replicas-detected",
                "suspected indices {suspected}",
                lambda world: world.suspected == [1, 1],
            ),
            _check(
                "both-repairs-completed",
                "repairs={repairs} drained={drained}",
                lambda world: world.repairs == [1, 1] and all(world.rebound),
            ),
            _resets_overlapped,
            *_TXN,
        ),
        hosts=10,
        groups=((1, ".g0"), (4, ".g1")),
        txn=True,
        recovery=_repair([[7], [8]], prefix=".r", after=_reset),
        deadline_ms=15_000,
        drain_ms=5,
        note=_TXN_NOTE,
    ),
    # A crash lands *inside* reset_after_failover: host2 dies
    # mid-commit, and host3 (a survivor carried into the repaired
    # chain) dies the moment the first reset starts — zero phase delay
    # lands the crash inside the WAL drain, parking that reset on a
    # dead ack forever (it has the crashed commit's zombie to scrub). A
    # second detect/repair round must splice again and finish the drain
    # — with the history anomaly-free and every acked write durable.
    Scenario(
        "txn-reset-crash",
        "survivor crash lands mid-reset_after_failover; second round recovers",
        events=(
            _crash("host2", at_op=5),
            _crash("host3", at_phase="reset", phase_delay_ms=0.0),
        ),
        workload=_txn_specs(functools.partial(_init_and_mix, 13)),
        checks=(
            _fired("host_crash", commits=True),
            _check(
                "crashes-in-order",
                "failed hosts {failed_hosts}",
                lambda world: world.failed_hosts == _CRASHED,
            ),
            _check(
                "first-reset-interrupted",
                "started={resets_started} completed={resets_done}",
                lambda world: world.resets_started == 2
                and [round_ for round_, _ in world.resets_done] == [1],
            ),
            _check(
                "two-repair-rounds",
                "repairs={repairs[0]}",
                lambda world: world.repairs == [2] and all(world.rebound),
            ),
            *_TXN,
            _clean_group(1, "b"),
        ),
        hosts=10,
        groups=((1, ".a0"), (4, ".b")),
        txn=True,
        recovery=_repair([[7, 8]], prefix=".a", after=_probe_reset),
        deadline_ms=20_000,
        drain_ms=5,
        note=_TXN_NOTE,
    ),
)

SCENARIOS: Dict[str, Scenario] = {spec.name: spec for spec in _TABLE}

COMPOUND_SCENARIOS = (
    "partition-repair",
    "double-crash",
    "stall-lossy",
    "client-crash",
    "txn-insert",
    "txn-chaos",
    "txn-double-failover",
    "txn-reset-crash",
)
"""The overlapping-failure subset — the default sweep matrix."""


def run_scenario(name: str, seed: int) -> ScenarioReport:
    """Run one registered scenario with the given seed."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; have {', '.join(sorted(SCENARIOS))}"
        ) from None
    return scenario.run(seed)


def run_matrix(seed: int, names: Optional[Sequence[str]] = None) -> List[ScenarioReport]:
    """Run the full matrix (or a subset) with one seed."""
    return [run_scenario(name, seed) for name in (names or list(SCENARIOS))]


def render_matrix(reports: Sequence[ScenarioReport]) -> str:
    """Deterministic text report for a matrix run."""
    passed = sum(1 for report in reports if report.passed)
    lines = [f"chaos matrix: {passed}/{len(reports)} scenarios passed", ""]
    for report in reports:
        lines.append(report.render())
        lines.append("")
    lines.append(
        "RESULT: PASS" if passed == len(reports) else "RESULT: FAIL"
    )
    return "\n".join(lines)
