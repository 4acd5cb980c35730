"""Chaos scenarios: a workload, a fault plan, and invariants.

Each scenario builds a fresh cluster, installs a
:class:`~repro.faults.plan.FaultInjector`, drives a workload (gWRITE
streams, the mixed-primitive chaos generator, a YCSB-keyed update
stream, or the replicated KV store), and checks the paper's guarantees
afterwards. ``python -m repro chaos`` runs the registered matrix.

Everything here is deterministic in ``(scenario, seed)``: operation
streams and payloads come from named ``sim.rng`` streams, fault timing
from the virtual clock, and reports contain no wall-clock state — the
CI chaos job runs the matrix twice and diffs the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..bench.harness import run_until
from ..core.group import HyperLoopGroup
from ..hw.host import Cluster
from ..sim import MS, Simulator
from ..storage.kvstore import ReplicatedKVStore
from ..storage.recovery import ChainRepair, ClientReattach, HeartbeatMonitor
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
from .plan import FaultInjector, FaultPlan

__all__ = [
    "COMPOUND_SCENARIOS",
    "SCENARIOS",
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


def _finish(name, seed, sim, injector, ops, invariants, notes=()) -> ScenarioReport:
    return ScenarioReport(
        name=name,
        seed=seed,
        passed=all(result.ok for result in invariants),
        ops=ops,
        sim_ms=sim.now / MS,
        faults=injector.summary(),
        invariants=list(invariants),
        notes=list(notes),
    )


def _exercised(
    injector: FaultInjector, *keys: str, commits_hit: Optional[int] = None
) -> InvariantResult:
    """The plan actually fired — scenarios must not pass vacuously.

    The txn crash scenarios also pass ``commits_hit``, the number of
    transactions the chain died under (abandoned or epoch-aborted and
    replayed): the crash must land on an in-flight commit, however
    fast the commit protocol is. Their crashes are armed by op count
    (``at_op``) and fire between two transactions, so the *next*
    commit's install runs into the dead chain at any protocol speed;
    the ``sleep(50_000)``/``sleep(100_000)`` in their writer loops are
    poll periods of the supervising task, not fault offsets.
    """
    detail = " ".join(f"{key}={injector.counters.get(key, 0)}" for key in keys)
    ok = sum(injector.counters.get(key, 0) for key in keys) > 0
    if commits_hit is not None:
        detail += f" commits_hit={commits_hit}"
        ok = ok and commits_hit > 0
    return InvariantResult("fault-exercised", ok, detail)


# -- gWRITE-stream scenarios (drop / partition / stall) ----------------------------


def _gwrite_scenario(
    name: str,
    seed: int,
    plan: FaultPlan,
    exercised: Sequence[str],
    n_ops: int = 50,
    pace_ns: int = 0,
    deadline_ms: int = 5_000,
) -> ScenarioReport:
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    region_size = 1 << 14
    group = HyperLoopGroup(
        cluster[0], cluster.hosts[1:4], region_size=region_size, rounds=16, name=name
    )
    injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )
    rng = sim.rng("chaos-ops")
    slot = 256
    ops = []
    for _ in range(n_ops):
        offset = rng.randrange(region_size // slot) * slot
        size = rng.randrange(16, slot)
        ops.append((offset, bytes([rng.randrange(1, 256)]) * size))

    model = bytearray(region_size)
    acked: Dict[int, bytes] = {}
    done: List[bool] = []

    def body(task):
        for offset, data in ops:
            group.write_local(offset, data)
            model[offset : offset + len(data)] = data
            yield from group.gwrite(task, offset, len(data))
            acked[offset] = data
            injector.notify_op()
            if pace_ns:
                yield from task.sleep(pace_ns)
        done.append(True)

    cluster[0].os.spawn(body, name=f"{name}.writer")
    run_until(sim, lambda: bool(done), deadline_ms=deadline_ms)
    sim.run(until=sim.now + 2 * MS)  # drain stragglers (duplicates, late acks)

    invariants = [
        _exercised(injector, *exercised),
        check_acked_writes(group, acked),
        check_model_match(group, model),
        check_replicas_identical(group),
        check_no_errors(group),
    ]
    return _finish(name, seed, sim, injector, len(ops), invariants)


def _scenario_drop(seed: int) -> ScenarioReport:
    plan = FaultPlan(label="drop").add("drop", probability=0.03)
    return _gwrite_scenario("drop", seed, plan, ["drop"])


def _scenario_partition(seed: int) -> ScenarioReport:
    plan = (
        FaultPlan(label="partition")
        .add("partition", pair=("host1", "host2"), at_ms=1.0)
        .add("heal", pair=("host1", "host2"), at_ms=4.0)
    )
    return _gwrite_scenario(
        "partition",
        seed,
        plan,
        ["partition", "heal", "partition_drop"],
        n_ops=40,
        pace_ns=100_000,
    )


def _scenario_stall(seed: int) -> ScenarioReport:
    plan = (
        FaultPlan(label="stall")
        .add("nic_stall", target="host2", at_ms=0.5)
        .add("nic_resume", target="host2", at_ms=2.0)
    )
    return _gwrite_scenario(
        "stall", seed, plan, ["nic_stall", "nic_resume"], n_ops=40, pace_ns=50_000
    )


# -- mixed-primitive lossy scenario ------------------------------------------------


def _scenario_lossy(seed: int) -> ScenarioReport:
    """Corruption, duplication, reordering-by-delay and a trickle of
    drops under all three primitives at once (the chaos-consistency
    generator, now on a lossy wire)."""
    name = "lossy"
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    region_size = 1 << 14
    group = HyperLoopGroup(
        cluster[0], cluster.hosts[1:4], region_size=region_size, rounds=16, name=name
    )
    plan = (
        FaultPlan(label=name)
        .add("drop", probability=0.01)
        .add("corrupt", probability=0.01)
        .add("duplicate", probability=0.02, duplicates=1)
        .add("delay", probability=0.05, extra_delay_ns=2_000)
    )
    injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )
    model = bytearray(region_size)
    n_workers = 2
    ops_per_worker = 18
    rng = sim.rng("chaos-ops")
    slab = region_size // (n_workers + 1)

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
    finished: List[int] = []
    cas_mismatches: List[str] = []

    def worker_body(worker):
        ops = plans[worker]

        def body(task):
            for op in ops:
                if op[0] == "gwrite":
                    _, offset, data = op
                    group.write_local(offset, data)
                    model[offset : offset + len(data)] = data
                    yield from group.gwrite(task, offset, len(data))
                elif op[0] == "gmemcpy":
                    _, src, dst, size = op
                    model[dst : dst + size] = model[src : src + size]
                    yield from group.gmemcpy(task, src, dst, size)
                else:
                    _, lock, compare, swap = op
                    model[lock : lock + 8] = swap.to_bytes(8, "little")
                    result = yield from group.gcas(task, lock, compare, swap)
                    if any(value != compare for value in result):
                        cas_mismatches.append(f"w{worker}@{lock}: {result}")
                injector.notify_op()
            finished.append(worker)

        return body

    for worker in range(n_workers):
        cluster[0].os.spawn(worker_body(worker), name=f"{name}.w{worker}")
    run_until(sim, lambda: len(finished) == n_workers, deadline_ms=10_000)
    sim.run(until=sim.now + 2 * MS)

    invariants = [
        _exercised(injector, "corrupt", "duplicate", "delay", "drop"),
        InvariantResult(
            "gcas-linearizable",
            not cas_mismatches,
            cas_mismatches[0] if cas_mismatches else f"{n_workers} lock words",
        ),
        check_model_match(group, model),
        check_replicas_identical(group),
        check_no_errors(group),
    ]
    return _finish(
        name, seed, sim, injector, n_workers * ops_per_worker, invariants
    )


# -- failover scenarios (NIC crash / host crash -> detect -> repair) ----------------


def _failover_scenario(
    name: str,
    seed: int,
    action: str,
    extra_events: Sequence[Dict] = (),
    extra_exercised: Sequence[str] = (),
) -> ScenarioReport:
    """Kill the mid-chain replica during a YCSB-keyed update stream;
    the heartbeat monitor must suspect it, ChainRepair must splice in
    the spare, and writes must resume with nothing acked lost.

    ``extra_events`` are appended to the fault plan (keyword dicts for
    :meth:`FaultPlan.add`); ``at_phase="repair"`` events fire relative
    to the moment repair starts — that is how the compound
    partition-during-repair scenario lands its partition inside the
    catch-up window."""
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=5, n_cores=4)
    client = cluster[0]
    replicas = cluster.hosts[1:4]
    spare = cluster[4]
    region_size = 1 << 14
    generation = [0]

    def factory(members):
        generation[0] += 1
        return HyperLoopGroup(
            client,
            members,
            region_size=region_size,
            rounds=16,
            name=f"{name}.g{generation[0]}",
        )

    group = HyperLoopGroup(
        client, replicas, region_size=region_size, rounds=16, name=f"{name}.g0"
    )
    crash_at_op = 25
    plan = FaultPlan(label=name).add(action, target="host2", at_op=crash_at_op)
    for event in extra_events:
        plan.add(**event)
    injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )
    monitor = HeartbeatMonitor(
        client, replicas, interval=2 * MS, miss_threshold=3, name=f"{name}.hb"
    )
    repairer = ChainRepair(client, group, factory, on_phase=injector.notify_phase)

    # Update stream keyed by YCSB workload A over fixed-size slots.
    slots = 48
    slot_bytes = region_size // slots
    value_bytes = 192
    workload = YcsbWorkload(WORKLOADS["A"], record_count=slots, value_size=value_bytes, seed=seed)
    data_rng = sim.rng("failover-data")
    n_ops = 50
    ops = []
    for _ in range(n_ops):
        op = workload.next_operation()
        offset = (op.key % slots) * slot_bytes
        ops.append((offset, bytes([data_rng.randrange(1, 256)]) * value_bytes))

    model = bytearray(region_size)
    acked: Dict[int, bytes] = {}
    progress: Dict[str, object] = {
        "done": False,
        "repaired": False,
        "detect_ns": None,
        "failed_index": None,
        "reissued": 0,
    }

    def one_shot(target_group, offset, size):
        def body(task):
            yield from target_group.gwrite(task, offset, size)

        return body

    def writer(task):
        for index, (offset, data) in enumerate(ops):
            while True:
                while repairer.paused:
                    yield from task.sleep(100_000)
                current = repairer.group
                current.write_local(offset, data)
                sub = client.os.spawn(
                    one_shot(current, offset, len(data)), name=f"{name}.op{index}"
                )
                while (
                    not sub.process.triggered
                    and repairer.group is current
                    and not repairer.paused
                ):
                    yield from task.sleep(50_000)
                if sub.process.triggered:
                    break
                # The chain died under this op: it was never acked, so
                # replay it on the repaired group (the abandoned probe
                # task stays parked on the dead chain's ack event).
                progress["reissued"] += 1
            model[offset : offset + len(data)] = data
            acked[offset] = data
            injector.notify_op()
        progress["done"] = True

    def detector(task):
        index = yield from monitor.wait_for_suspicion(task)
        progress["detect_ns"] = sim.now
        progress["failed_index"] = index
        monitor.stop_beats(index)
        yield from repairer.repair(
            task, index, spare, copy_from=0 if index != 0 else 1
        )
        progress["repaired"] = True

    client.os.spawn(writer, name=f"{name}.writer")
    client.os.spawn(detector, name=f"{name}.detector")
    run_until(
        sim,
        lambda: progress["done"] and progress["repaired"],
        deadline_ms=5_000,
    )
    sim.run(until=sim.now + 5 * MS)  # quiesce: drain the repaired chain

    final = repairer.group
    crash_ns = injector.fired[0][0] if injector.fired else 0
    invariants = [
        _exercised(injector, action, *extra_exercised),
        InvariantResult(
            "failed-replica-detected",
            progress["failed_index"] == 1,
            f"suspected index {progress['failed_index']}",
        ),
        check_suspicion_bound(monitor, crash_ns, progress["detect_ns"]),
        InvariantResult(
            "repair-completed",
            repairer.repairs == 1 and final is not group,
            f"repairs={repairer.repairs} membership="
            + ",".join(host.name for host in final.replicas),
        ),
        check_acked_writes(final, acked),
        check_model_match(final, model),
        check_replicas_identical(final),
        check_no_errors(final),
    ]
    notes = [f"writes re-issued after failure: {progress['reissued']}"]
    return _finish(name, seed, sim, injector, n_ops, invariants, notes)


def _scenario_nic_crash(seed: int) -> ScenarioReport:
    return _failover_scenario("nic-crash", seed, "nic_crash")


def _scenario_host_crash(seed: int) -> ScenarioReport:
    return _failover_scenario("host-crash", seed, "host_crash")


# -- compound scenarios (overlapping failures) --------------------------------------


def _scenario_partition_repair(seed: int) -> ScenarioReport:
    """Host crash -> repair, with a client<->survivor partition landing
    the moment catch-up starts and healing 2ms in. The repair preads
    and the chain rebuild must ride out the window on RC
    retransmission — §5.1 recovery under the very faults it recovers
    from."""
    extra = [
        dict(action="partition", pair=("host0", "host1"), at_phase="repair"),
        dict(
            action="heal",
            pair=("host0", "host1"),
            at_phase="repair",
            phase_delay_ms=2.0,
        ),
    ]
    return _failover_scenario(
        "partition-repair",
        seed,
        "host_crash",
        extra_events=extra,
        extra_exercised=["partition", "heal", "partition_drop"],
    )


def _scenario_stall_lossy(seed: int) -> ScenarioReport:
    """NIC stall layered on a lossy fabric: while host2's NIC is dark,
    drops/delays/duplicates keep hitting every other link — the
    retransmission path must absorb both at once."""
    plan = (
        FaultPlan(label="stall-lossy")
        .add("drop", probability=0.02)
        .add("delay", probability=0.05, extra_delay_ns=2_000)
        .add("duplicate", probability=0.02, duplicates=1)
        .add("nic_stall", target="host2", at_ms=0.5)
        .add("nic_resume", target="host2", at_ms=2.0)
    )
    return _gwrite_scenario(
        "stall-lossy",
        seed,
        plan,
        ["drop", "delay", "duplicate", "nic_stall"],
        n_ops=40,
        pace_ns=50_000,
        deadline_ms=10_000,
    )


def _scenario_double_crash(seed: int) -> ScenarioReport:
    """Cascading failures: a second replica dies after the first
    repair completes. Two full detect -> repair -> re-issue rounds must
    each land within the suspicion bound with nothing acked lost."""
    name = "double-crash"
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=6, n_cores=4)
    client = cluster[0]
    replicas = cluster.hosts[1:4]
    spares = [cluster[4], cluster[5]]
    region_size = 1 << 14
    generation = [0]

    def factory(members):
        generation[0] += 1
        return HyperLoopGroup(
            client,
            members,
            region_size=region_size,
            rounds=16,
            name=f"{name}.g{generation[0]}",
        )

    group = HyperLoopGroup(
        client, replicas, region_size=region_size, rounds=16, name=f"{name}.g0"
    )
    plan = (
        FaultPlan(label=name)
        .add("host_crash", target="host2", at_op=15)
        .add("host_crash", target="host3", at_op=30)
    )
    injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )
    # The first spare joins after repair 1, so it is monitored from the
    # start (idle beats are harmless and never suspected).
    candidates = list(replicas) + [spares[0]]
    monitor = HeartbeatMonitor(
        client, candidates, interval=2 * MS, miss_threshold=3, name=f"{name}.hb"
    )
    repairer = ChainRepair(client, group, factory, on_phase=injector.notify_phase)

    rng = sim.rng("chaos-ops")
    slot = 256
    n_ops = 45
    ops = []
    for _ in range(n_ops):
        offset = rng.randrange(region_size // slot) * slot
        size = rng.randrange(16, slot)
        ops.append((offset, bytes([rng.randrange(1, 256)]) * size))

    model = bytearray(region_size)
    acked: Dict[int, bytes] = {}
    progress: Dict[str, object] = {
        "done": False,
        "detects": [],
        "failed_hosts": [],
        "reissued": 0,
    }

    def one_shot(target_group, offset, size):
        def body(task):
            yield from target_group.gwrite(task, offset, size)

        return body

    def writer(task):
        for index, (offset, data) in enumerate(ops):
            while True:
                while repairer.paused:
                    yield from task.sleep(100_000)
                current = repairer.group
                current.write_local(offset, data)
                sub = client.os.spawn(
                    one_shot(current, offset, len(data)), name=f"{name}.op{index}"
                )
                while (
                    not sub.process.triggered
                    and repairer.group is current
                    and not repairer.paused
                ):
                    yield from task.sleep(50_000)
                if sub.process.triggered:
                    break
                progress["reissued"] += 1
            model[offset : offset + len(data)] = data
            acked[offset] = data
            injector.notify_op()
        progress["done"] = True

    def detector(task):
        handled = set()
        for round_ in range(2):
            while True:
                found = None
                for index in range(len(candidates)):
                    if index not in handled and monitor.suspected(index):
                        found = index
                        break
                if found is not None:
                    break
                yield from task.sleep(monitor.interval)
            handled.add(found)
            progress["detects"].append(sim.now)
            failed_host = candidates[found]
            progress["failed_hosts"].append(failed_host.name)
            monitor.stop_beats(found)
            current = repairer.group
            failed_index = current.replicas.index(failed_host)
            yield from repairer.repair(
                task,
                failed_index,
                spares[round_],
                copy_from=0 if failed_index != 0 else 1,
            )

    client.os.spawn(writer, name=f"{name}.writer")
    client.os.spawn(detector, name=f"{name}.detector")
    run_until(
        sim,
        lambda: progress["done"] and repairer.repairs == 2,
        deadline_ms=5_000,
    )
    sim.run(until=sim.now + 5 * MS)

    final = repairer.group
    crash_times = [when for when, _ in injector.fired]
    suspicion = [
        check_suspicion_bound(
            monitor,
            crash_times[index] if index < len(crash_times) else 0,
            progress["detects"][index] if index < len(progress["detects"]) else 0,
            name=f"suspicion-bound-{index + 1}",
        )
        for index in range(2)
    ]
    invariants = [
        _exercised(injector, "host_crash"),
        InvariantResult(
            "both-crashes-fired",
            injector.counters.get("host_crash", 0) == 2,
            f"host_crash fired {injector.counters.get('host_crash', 0)}x",
        ),
        InvariantResult(
            "failed-replicas-detected",
            progress["failed_hosts"] == ["host2", "host3"],
            "detected " + ",".join(progress["failed_hosts"]),
        ),
        *suspicion,
        InvariantResult(
            "repairs-completed",
            repairer.repairs == 2
            and [host.name for host in final.replicas]
            == ["host1", "host4", "host5"],
            f"repairs={repairer.repairs} membership="
            + ",".join(host.name for host in final.replicas),
        ),
        check_acked_writes(final, acked),
        check_model_match(final, model),
        check_replicas_identical(final),
        check_no_errors(final),
    ]
    notes = [f"writes re-issued after failures: {progress['reissued']}"]
    return _finish(name, seed, sim, injector, n_ops, invariants, notes)


def _scenario_client_crash(seed: int) -> ScenarioReport:
    """The coordinator itself crashes mid-stream and restarts 1ms
    later: :class:`ClientReattach` rebuilds the read path over fresh
    QPs, pulls the image from the chain head, and re-installs it
    through a fresh group. The writer re-issues the op that died with
    the client."""
    name = "client-crash"
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    client = cluster[0]
    region_size = 1 << 14
    generation = [0]

    def factory(members):
        generation[0] += 1
        return HyperLoopGroup(
            client,
            members,
            region_size=region_size,
            rounds=16,
            name=f"{name}.g{generation[0]}",
        )

    group = HyperLoopGroup(
        client, cluster.hosts[1:4], region_size=region_size, rounds=16, name=f"{name}.g0"
    )
    # The crash must land while a gwrite is *in flight* (an op-count
    # trigger fires synchronously between ops), so it hangs off a
    # phase the writer notifies right after posting op 15; the restart
    # hangs off a phase the recoverer reports when it notices the
    # outage.
    plan = (
        FaultPlan(label=name)
        .add("host_crash", target="host0", at_phase="mid-op")
        .add(
            "host_restart",
            target="host0",
            at_phase="client-down",
            phase_delay_ms=1.0,
        )
    )
    injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )
    reattacher = ClientReattach(client, group, factory)

    rng = sim.rng("chaos-ops")
    slot = 256
    n_ops = 30
    ops = []
    for _ in range(n_ops):
        offset = rng.randrange(region_size // slot) * slot
        size = rng.randrange(16, slot)
        ops.append((offset, bytes([rng.randrange(1, 256)]) * size))

    model = bytearray(region_size)
    acked: Dict[int, bytes] = {}
    progress: Dict[str, object] = {
        "done": False,
        "outage": False,
        "reattached": False,
        "reissued": 0,
    }

    def one_shot(target_group, offset, size):
        def body(task):
            yield from target_group.gwrite(task, offset, size)

        return body

    def writer(task):
        for index, (offset, data) in enumerate(ops):
            while True:
                while client.down or progress["outage"]:
                    yield from task.sleep(100_000)
                current = reattacher.group
                current.write_local(offset, data)
                sub = client.os.spawn(
                    one_shot(current, offset, len(data)), name=f"{name}.op{index}"
                )
                if index == 15:
                    injector.notify_phase("mid-op")  # crash lands on this op
                while (
                    not sub.process.triggered
                    and reattacher.group is current
                    and not client.down
                ):
                    yield from task.sleep(50_000)
                if sub.process.triggered:
                    break
                # The op died with the client (never acked): replay it
                # once the re-attached group is up.
                progress["reissued"] += 1
            model[offset : offset + len(data)] = data
            acked[offset] = data
            injector.notify_op()
        progress["done"] = True

    def recoverer(task):
        while not client.down:
            yield from task.sleep(200_000)
        progress["outage"] = True
        injector.notify_phase("client-down")  # arms the planned restart
        while client.down:
            yield from task.sleep(200_000)
        yield from reattacher.reattach(task)
        progress["reattached"] = True
        progress["outage"] = False

    client.os.spawn(writer, name=f"{name}.writer")
    client.os.spawn(recoverer, name=f"{name}.recover")
    run_until(
        sim,
        lambda: progress["done"] and progress["reattached"],
        deadline_ms=5_000,
    )
    sim.run(until=sim.now + 2 * MS)

    final = reattacher.group
    invariants = [
        _exercised(injector, "host_crash", "host_restart"),
        InvariantResult(
            "reattach-completed",
            reattacher.reattaches == 1 and final is not group,
            f"reattaches={reattacher.reattaches}",
        ),
        check_acked_writes(final, acked),
        check_model_match(final, model),
        check_replicas_identical(final),
        check_no_errors(final),
    ]
    notes = [f"writes re-issued after client crash: {progress['reissued']}"]
    return _finish(name, seed, sim, injector, n_ops, invariants, notes)


# -- power-failure durability scenario ---------------------------------------------


def _scenario_power_failure(seed: int) -> ScenarioReport:
    """Replicated KV store loses power on a replica after the last
    commit; its durable WAL + checkpoint must reconstruct every
    committed operation (gFLUSH closed each durability window)."""
    name = "power-failure"
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    region_size = 1 << 15
    group = HyperLoopGroup(
        cluster[0], cluster.hosts[1:4], region_size=region_size, rounds=16, name=name
    )
    n_ops = 24
    plan = FaultPlan(label=name).add(
        "host_power_failure", target="host2", at_op=n_ops
    )
    injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )
    store = ReplicatedKVStore(group, start_sync_tasks=False, name=f"{name}.kv")
    committed: Dict[bytes, bytes] = {}
    value_rng = sim.rng("pf-values")
    done: List[bool] = []

    def body(task):
        for index in range(n_ops):
            key = f"key{index:03d}".encode()
            if index % 5 == 4 and index >= 2:
                victim = f"key{index - 2:03d}".encode()
                yield from store.delete(task, victim)
                committed.pop(victim, None)
            value = bytes([value_rng.randrange(1, 256)]) * 64
            yield from store.put(task, key, value)
            committed[key] = value
            if index == n_ops // 2:
                yield from store.checkpoint(task)
            injector.notify_op()
        done.append(True)

    cluster[0].os.spawn(body, name=f"{name}.writer")
    run_until(sim, lambda: bool(done), deadline_ms=5_000)

    invariants = [
        _exercised(injector, "host_power_failure"),
        check_wal_recovery(store, 1, committed, name="wal-recovery-failed-replica"),
        check_wal_recovery(store, 0, committed, name="wal-recovery-survivor"),
        check_replicas_identical(group),
        check_no_errors(group),
    ]
    notes = [f"committed keys at failure: {len(committed)}"]
    return _finish(name, seed, sim, injector, n_ops, invariants, notes)


# -- transaction-layer scenarios (repro.txn under faults) ---------------------------


def _txn_spec_runner(coordinator, spec, outcome):
    """A one-shot task body running one transaction spec.

    Spawned as a probe sub-task so the caller can abandon it if its
    chain dies mid-commit (the coordinator's epoch guard keeps the
    zombie from committing after failover)."""
    from ..txn import TxnAborted

    def bump(value):
        current = int.from_bytes(value or b"\x00", "little")
        return ((current + 1) & 0xFFFFFFFF).to_bytes(8, "little")

    def body(task):
        txn = yield from coordinator.begin(task)
        try:
            if spec[0] == "init":
                for key in spec[1]:
                    coordinator.write(txn, key, (1).to_bytes(8, "little"))
            elif spec[0] == "rmw":
                value = yield from coordinator.read(task, txn, spec[1])
                coordinator.write(txn, spec[1], bump(value))
            elif spec[0] == "insert":
                coordinator.insert(txn, spec[1], (1).to_bytes(8, "little"))
            elif spec[0] == "scan":
                yield from coordinator.scan(task, txn, spec[1], spec[2])
            else:  # transfer
                first = yield from coordinator.read(task, txn, spec[1])
                second = yield from coordinator.read(task, txn, spec[2])
                coordinator.write(txn, spec[1], bump(first))
                coordinator.write(txn, spec[2], bump(second))
            yield from coordinator.commit(task, txn)
            outcome["result"] = "committed"
        except TxnAborted as exc:
            outcome["result"] = f"aborted:{exc.reason}"

    return body


def _scenario_txn_failover(seed: int) -> ScenarioReport:
    """A replica of a transaction participant group dies while commits
    are flowing: the heartbeat monitor suspects it, ChainRepair splices
    in the spare, the coordinator's failover reset aborts the parked
    epoch and drains the WAL, and the workload resumes — with the
    committed history still anomaly-free, snapshot reads never stale,
    and every published version durable on the repaired chain."""
    from ..txn import AvailabilityTracker, TxnCoordinator, VersionedGroupStore
    from ..storage.transactions import TransactionManager

    name = "txn-failover"
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=8, n_cores=4)
    client = cluster[0]
    group_a_hosts = cluster.hosts[1:4]
    group_b_hosts = cluster.hosts[4:7]
    spare = cluster[7]
    region_size = 1 << 14
    generation = [0]

    def factory(members):
        generation[0] += 1
        return HyperLoopGroup(
            client,
            members,
            region_size=region_size,
            rounds=16,
            name=f"{name}.a{generation[0]}",
        )

    group_a = HyperLoopGroup(
        client, group_a_hosts, region_size=region_size, rounds=16, name=f"{name}.a0"
    )
    group_b = HyperLoopGroup(
        client, group_b_hosts, region_size=region_size, rounds=16, name=f"{name}.b"
    )
    stores = [
        VersionedGroupStore(TransactionManager(group_a, writer_id=1), name=f"{name}.s0"),
        VersionedGroupStore(TransactionManager(group_b, writer_id=2), name=f"{name}.s1"),
    ]
    tracker = AvailabilityTracker()
    coordinator = TxnCoordinator(stores, mode="ssi", tracker=tracker, name=name)

    crash_at_op = 6
    plan = FaultPlan(label=name).add("host_crash", target="host2", at_op=crash_at_op)
    injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )
    monitor = HeartbeatMonitor(
        client, group_a_hosts, interval=2 * MS, miss_threshold=3, name=f"{name}.hb"
    )
    pause_hook = tracker.on_repair_phase(0)

    def on_phase(phase):
        pause_hook(phase)
        injector.notify_phase(phase)

    repairer = ChainRepair(client, group_a, factory, on_phase=on_phase)

    keys = [f"k{index:02d}".encode() for index in range(8)]
    rng = sim.rng("chaos-ops")
    n_ops = 18
    specs = [("init", tuple(keys))]
    for _ in range(n_ops - 1):
        if rng.random() < 0.5:
            specs.append(("rmw", rng.choice(keys)))
        else:
            first, second = rng.sample(keys, 2)
            specs.append(("transfer", first, second))

    progress: Dict[str, object] = {
        "done": False,
        "repaired": False,
        "rebound": False,
        "failed_index": None,
        "drained": None,
        "reissued": 0,
        "retried": 0,
    }

    def writer(task):
        for index, spec in enumerate(specs):
            while True:
                while repairer.paused or (
                    repairer.repairs > 0 and not progress["rebound"]
                ):
                    yield from task.sleep(100_000)
                current = repairer.group
                outcome: Dict[str, str] = {}
                sub = client.os.spawn(
                    _txn_spec_runner(coordinator, spec, outcome),
                    name=f"{name}.t{index}",
                )
                while (
                    not sub.process.triggered
                    and repairer.group is current
                    and not repairer.paused
                ):
                    yield from task.sleep(50_000)
                if sub.process.triggered:
                    result = outcome.get("result", "")
                    if result in ("aborted:failover", "aborted:stale-epoch"):
                        progress["retried"] += 1
                        continue  # epoch casualty — replay on the new chain
                    break
                # The chain died under this transaction (commit parked
                # on a dead ack, never acknowledged): abandon the probe
                # and replay once the coordinator has rebound.
                progress["reissued"] += 1
            injector.notify_op()
        progress["done"] = True

    def detector(task):
        index = yield from monitor.wait_for_suspicion(task)
        progress["failed_index"] = index
        monitor.stop_beats(index)
        yield from repairer.repair(
            task, index, spare, copy_from=0 if index != 0 else 1
        )
        progress["repaired"] = True
        drained = yield from coordinator.reset_after_failover(
            task, 0, repairer.group
        )
        progress["drained"] = drained
        progress["rebound"] = True

    client.os.spawn(writer, name=f"{name}.writer")
    client.os.spawn(detector, name=f"{name}.detector")
    run_until(
        sim,
        lambda: progress["done"] and progress["rebound"],
        deadline_ms=10_000,
    )
    sim.run(until=sim.now + 5 * MS)

    invariants = [
        _exercised(
            injector,
            "host_crash",
            commits_hit=progress["reissued"] + progress["retried"],
        ),
        InvariantResult(
            "failed-replica-detected",
            progress["failed_index"] == 1,
            f"suspected index {progress['failed_index']}",
        ),
        InvariantResult(
            "repair-completed",
            repairer.repairs == 1 and progress["rebound"] is True,
            f"repairs={repairer.repairs} wal_drained={progress['drained']}",
        ),
        check_no_serialization_anomaly(coordinator),
        check_read_your_writes(coordinator),
        check_txn_acked_writes(coordinator),
        check_no_errors(group_b, name="no-group-errors-b"),
    ]
    notes = [
        f"committed={coordinator.commits} "
        f"failover_aborts={coordinator.aborts_failover} "
        f"reissued={progress['reissued']} retried={progress['retried']} "
        f"read_failovers={tracker.failovers}"
    ]
    return _finish(name, seed, sim, injector, len(specs), invariants, notes)


def _scenario_txn_insert(seed: int) -> ScenarioReport:
    """A replica dies under an insert-bearing commit install: the
    in-flight insert's slot assignment survives as an orphan the epoch
    guard keeps unpublished, the heartbeat/repair/reset path splices in
    the spare, and the replayed insert commits on the repaired chain —
    with scans over the mixed keyspace staying anomaly-free and every
    acked insert durable."""
    from ..txn import AvailabilityTracker, TxnCoordinator, VersionedGroupStore
    from ..storage.transactions import TransactionManager

    name = "txn-insert"
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=8, n_cores=4)
    client = cluster[0]
    group_a_hosts = cluster.hosts[1:4]
    group_b_hosts = cluster.hosts[4:7]
    spare = cluster[7]
    region_size = 1 << 14
    generation = [0]

    def factory(members):
        generation[0] += 1
        return HyperLoopGroup(
            client,
            members,
            region_size=region_size,
            rounds=16,
            name=f"{name}.a{generation[0]}",
        )

    group_a = HyperLoopGroup(
        client, group_a_hosts, region_size=region_size, rounds=16, name=f"{name}.a0"
    )
    group_b = HyperLoopGroup(
        client, group_b_hosts, region_size=region_size, rounds=16, name=f"{name}.b"
    )
    stores = [
        VersionedGroupStore(TransactionManager(group_a, writer_id=1), name=f"{name}.s0"),
        VersionedGroupStore(TransactionManager(group_b, writer_id=2), name=f"{name}.s1"),
    ]
    tracker = AvailabilityTracker()
    coordinator = TxnCoordinator(stores, mode="ssi", tracker=tracker, name=name)

    # The crash fires when the sixth spec's notify lands, so spec 6 —
    # an insert by construction of the kind cycle below — finds the
    # replica dead while its commit install is on the wire.
    crash_at_op = 6
    plan = FaultPlan(label=name).add("host_crash", target="host2", at_op=crash_at_op)
    injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )
    monitor = HeartbeatMonitor(
        client, group_a_hosts, interval=2 * MS, miss_threshold=3, name=f"{name}.hb"
    )
    pause_hook = tracker.on_repair_phase(0)

    def on_phase(phase):
        pause_hook(phase)
        injector.notify_phase(phase)

    repairer = ChainRepair(client, group_a, factory, on_phase=on_phase)

    keys = [f"k{index:02d}".encode() for index in range(6)]
    rng = sim.rng("chaos-ops")
    n_ops = 16
    specs = [("init", tuple(keys))]
    inserted = 0
    for index in range(1, n_ops):
        kind = ("scan", "rmw", "insert")[index % 3]  # index 6 -> insert
        if kind == "insert":
            specs.append(("insert", f"n{inserted:02d}".encode()))
            inserted += 1
        elif kind == "scan":
            specs.append(("scan", rng.choice(keys), 4))
        else:
            specs.append(("rmw", rng.choice(keys)))

    progress: Dict[str, object] = {
        "done": False,
        "repaired": False,
        "rebound": False,
        "failed_index": None,
        "drained": None,
        "reissued": 0,
        "retried": 0,
    }

    def writer(task):
        for index, spec in enumerate(specs):
            while True:
                while repairer.paused or (
                    repairer.repairs > 0 and not progress["rebound"]
                ):
                    yield from task.sleep(100_000)
                current = repairer.group
                outcome: Dict[str, str] = {}
                sub = client.os.spawn(
                    _txn_spec_runner(coordinator, spec, outcome),
                    name=f"{name}.t{index}",
                )
                while (
                    not sub.process.triggered
                    and repairer.group is current
                    and not repairer.paused
                ):
                    yield from task.sleep(50_000)
                if sub.process.triggered:
                    result = outcome.get("result", "")
                    if result in ("aborted:failover", "aborted:stale-epoch"):
                        progress["retried"] += 1
                        continue  # epoch casualty — replay on the new chain
                    break
                # The chain died under this commit (an insert's install
                # parked on a dead ack): abandon the probe — the epoch
                # guard keeps its orphan slot unpublished — and replay
                # once the coordinator has rebound.
                progress["reissued"] += 1
            injector.notify_op()
        progress["done"] = True

    def detector(task):
        index = yield from monitor.wait_for_suspicion(task)
        progress["failed_index"] = index
        monitor.stop_beats(index)
        yield from repairer.repair(
            task, index, spare, copy_from=0 if index != 0 else 1
        )
        progress["repaired"] = True
        drained = yield from coordinator.reset_after_failover(
            task, 0, repairer.group
        )
        progress["drained"] = drained
        progress["rebound"] = True

    client.os.spawn(writer, name=f"{name}.writer")
    client.os.spawn(detector, name=f"{name}.detector")
    run_until(
        sim,
        lambda: progress["done"] and progress["rebound"],
        deadline_ms=10_000,
    )
    sim.run(until=sim.now + 5 * MS)

    committed_inserts = sum(
        1
        for txn in coordinator.history
        if any(key.startswith(b"n") for key in txn.writes)
    )
    invariants = [
        _exercised(
            injector,
            "host_crash",
            commits_hit=progress["reissued"] + progress["retried"],
        ),
        InvariantResult(
            "failed-replica-detected",
            progress["failed_index"] == 1,
            f"suspected index {progress['failed_index']}",
        ),
        InvariantResult(
            "repair-completed",
            repairer.repairs == 1 and progress["rebound"] is True,
            f"repairs={repairer.repairs} wal_drained={progress['drained']}",
        ),
        InvariantResult(
            "inserts-replayed",
            committed_inserts >= 1,
            f"insert-bearing commits: {committed_inserts}",
        ),
        check_no_serialization_anomaly(coordinator),
        check_read_your_writes(coordinator),
        check_txn_acked_writes(coordinator),
        check_no_errors(group_b, name="no-group-errors-b"),
    ]
    notes = [
        f"committed={coordinator.commits} inserts={committed_inserts} "
        f"failover_aborts={coordinator.aborts_failover} "
        f"phantom_aborts={coordinator.aborts_phantom} "
        f"reissued={progress['reissued']} retried={progress['retried']} "
        f"read_failovers={tracker.failovers}"
    ]
    return _finish(name, seed, sim, injector, len(specs), invariants, notes)


def _scenario_txn_chaos(seed: int) -> ScenarioReport:
    """The SSI workload — concurrent mixed transactions plus one
    rendezvoused write-skew pair — on a lossy fabric (drops, delays,
    duplicates). RC retransmission must absorb the noise; the committed
    history must stay anomaly-free and every version durable, and the
    write skew must still be caught."""
    from ..txn import TxnAborted, TxnCoordinator, VersionedGroupStore
    from ..txn.workload import Rendezvous
    from ..storage.transactions import TransactionManager

    name = "txn-chaos"
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    client = cluster[0]
    region_size = 1 << 14
    groups = [
        HyperLoopGroup(
            client,
            cluster.hosts[1:4],
            region_size=region_size,
            rounds=16,
            name=f"{name}.g{index}",
        )
        for index in range(2)
    ]
    stores = [
        VersionedGroupStore(
            TransactionManager(group, writer_id=index + 1), name=f"{name}.s{index}"
        )
        for index, group in enumerate(groups)
    ]
    coordinator = TxnCoordinator(stores, mode="ssi", name=name)

    plan = (
        FaultPlan(label=name)
        .add("drop", probability=0.01)
        .add("delay", probability=0.04, extra_delay_ns=2_000)
        .add("duplicate", probability=0.02, duplicates=1)
    )
    injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )

    keys = [f"k{index:02d}".encode() for index in range(8)]
    skew_x, skew_y = b"wsx", b"wsy"
    rng = sim.rng("chaos-ops")
    n_workers = 2
    ops_per_worker = 6
    plans = []
    for _ in range(n_workers):
        ops = []
        for _ in range(ops_per_worker):
            if rng.random() < 0.5:
                ops.append(("rmw", rng.choice(keys)))
            else:
                first, second = rng.sample(keys, 2)
                ops.append(("transfer", first, second))
        plans.append(ops)

    progress: Dict[str, object] = {"init": False, "workers": 0, "pairs": 0}
    rendezvous = Rendezvous(sim)

    def init_body(task):
        outcome: Dict[str, str] = {}
        yield from _txn_spec_runner(
            coordinator, ("init", tuple(keys) + (skew_x, skew_y)), outcome
        )(task)
        progress["init"] = True

    def worker_body(worker):
        def body(task):
            for spec in plans[worker]:
                outcome: Dict[str, str] = {}
                yield from _txn_spec_runner(coordinator, spec, outcome)(task)
                injector.notify_op()
            progress["workers"] += 1

        return body

    def skew_body(side):
        def body(task):
            txn = yield from coordinator.begin(task)
            try:
                yield from coordinator.read(task, txn, skew_x)
                yield from coordinator.read(task, txn, skew_y)
                yield from rendezvous.arrive(task)
                coordinator.write(
                    txn, skew_y if side == 0 else skew_x, (0).to_bytes(8, "little")
                )
                yield from coordinator.commit(task, txn)
            except TxnAborted:
                pass
            progress["pairs"] += 1

        return body

    client.os.spawn(init_body, name=f"{name}.init")
    run_until(sim, lambda: progress["init"], deadline_ms=10_000)
    for worker in range(n_workers):
        client.os.spawn(worker_body(worker), name=f"{name}.w{worker}")
    for side in range(2):
        client.os.spawn(skew_body(side), name=f"{name}.ws{side}")
    run_until(
        sim,
        lambda: progress["workers"] == n_workers and progress["pairs"] == 2,
        deadline_ms=10_000,
    )
    sim.run(until=sim.now + 2 * MS)

    invariants = [
        _exercised(injector, "drop", "delay", "duplicate"),
        InvariantResult(
            "write-skew-caught",
            coordinator.aborts_ssi >= 1,
            f"ssi aborts={coordinator.aborts_ssi}",
        ),
        check_no_serialization_anomaly(coordinator),
        check_read_your_writes(coordinator),
        check_txn_acked_writes(coordinator),
        *[
            check_no_errors(group, name=f"no-group-errors-{index}")
            for index, group in enumerate(groups)
        ],
    ]
    notes = [
        f"committed={coordinator.commits} "
        f"aborts_ssi={coordinator.aborts_ssi} aborts_ww={coordinator.aborts_ww}"
    ]
    return _finish(
        name, seed, sim, injector, 1 + n_workers * ops_per_worker + 2, invariants, notes
    )


def _scenario_txn_double_failover(seed: int) -> ScenarioReport:
    """Overlapping failovers: one replica of *each* participant group
    dies at the same workload op. Two detector/repair pipelines run
    concurrently, rendezvous once both chains are spliced, and then
    both groups sit inside ``reset_after_failover`` at the same time —
    the epoch bumps twice, every parked commit is cleared, and the
    committed history must still be anomaly-free with nothing acked
    lost and no snapshot read served stale."""
    from ..txn import AvailabilityTracker, TxnCoordinator, VersionedGroupStore
    from ..storage.transactions import TransactionManager

    name = "txn-double-failover"
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=10, n_cores=4)
    client = cluster[0]
    group_hosts = [cluster.hosts[1:4], cluster.hosts[4:7]]
    spares = [cluster[7], cluster[8]]
    region_size = 1 << 14
    generation = [0]

    def factory(members):
        generation[0] += 1
        return HyperLoopGroup(
            client,
            members,
            region_size=region_size,
            rounds=16,
            name=f"{name}.r{generation[0]}",
        )

    groups = [
        HyperLoopGroup(
            client,
            hosts,
            region_size=region_size,
            rounds=16,
            name=f"{name}.g{index}",
        )
        for index, hosts in enumerate(group_hosts)
    ]
    stores = [
        VersionedGroupStore(
            TransactionManager(group, writer_id=index + 1), name=f"{name}.s{index}"
        )
        for index, group in enumerate(groups)
    ]
    tracker = AvailabilityTracker()
    coordinator = TxnCoordinator(stores, mode="ssi", tracker=tracker, name=name)

    # Both crashes trigger off the same op count, so the two failure
    # windows open together and the repairs genuinely overlap.
    crash_at_op = 6
    plan = (
        FaultPlan(label=name)
        .add("host_crash", target="host2", at_op=crash_at_op)
        .add("host_crash", target="host5", at_op=crash_at_op)
    )
    injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )
    monitors = [
        HeartbeatMonitor(
            client, hosts, interval=2 * MS, miss_threshold=3, name=f"{name}.hb{index}"
        )
        for index, hosts in enumerate(group_hosts)
    ]
    repairers = []
    for index, group in enumerate(groups):
        pause_hook = tracker.on_repair_phase(index)

        def on_phase(phase, hook=pause_hook):
            hook(phase)
            injector.notify_phase(phase)

        repairers.append(ChainRepair(client, group, factory, on_phase=on_phase))

    keys = [f"k{index:02d}".encode() for index in range(8)]
    rng = sim.rng("chaos-ops")
    n_ops = 14
    specs = [("init", tuple(keys))]
    for _ in range(n_ops - 1):
        if rng.random() < 0.5:
            specs.append(("rmw", rng.choice(keys)))
        else:
            first, second = rng.sample(keys, 2)
            specs.append(("transfer", first, second))

    progress: Dict[str, object] = {
        "done": False,
        "failed": [None, None],
        "repaired": [False, False],
        "rebound": [False, False],
        "drained": [None, None],
        "reset_span": [[None, None], [None, None]],
        "reissued": 0,
        "retried": 0,
    }

    def blocked() -> bool:
        return any(repairer.paused for repairer in repairers) or any(
            repairers[g].repairs > 0 and not progress["rebound"][g]
            for g in range(2)
        )

    def writer(task):
        for index, spec in enumerate(specs):
            while True:
                while blocked():
                    yield from task.sleep(100_000)
                current = tuple(repairer.group for repairer in repairers)
                outcome: Dict[str, str] = {}
                sub = client.os.spawn(
                    _txn_spec_runner(coordinator, spec, outcome),
                    name=f"{name}.t{index}",
                )
                while (
                    not sub.process.triggered
                    and tuple(r.group for r in repairers) == current
                    and not any(r.paused for r in repairers)
                ):
                    yield from task.sleep(50_000)
                if sub.process.triggered:
                    result = outcome.get("result", "")
                    if result in ("aborted:failover", "aborted:stale-epoch"):
                        progress["retried"] += 1
                        continue  # epoch casualty — replay post-reset
                    break
                progress["reissued"] += 1  # chain died under the probe
            injector.notify_op()
        progress["done"] = True

    def detector(g: int):
        monitor, repairer = monitors[g], repairers[g]

        def body(task):
            index = yield from monitor.wait_for_suspicion(task)
            progress["failed"][g] = index
            monitor.stop_beats(index)
            yield from repairer.repair(
                task, index, spares[g], copy_from=0 if index != 0 else 1
            )
            progress["repaired"][g] = True
            # Rendezvous: both chains spliced before either resets, so
            # the two reset_after_failover calls are in flight at once.
            # Fine-grained poll: a reset only lasts tens of µs, so a
            # coarse wakeup would let one finish before the other starts.
            while not all(progress["repaired"]):
                yield from task.sleep(5_000)
            progress["reset_span"][g][0] = sim.now
            drained = yield from coordinator.reset_after_failover(
                task, g, repairer.group
            )
            progress["reset_span"][g][1] = sim.now
            progress["drained"][g] = drained
            progress["rebound"][g] = True

        return body

    client.os.spawn(writer, name=f"{name}.writer")
    for g in range(2):
        client.os.spawn(detector(g), name=f"{name}.detector{g}")
    run_until(
        sim,
        lambda: progress["done"] and all(progress["rebound"]),
        deadline_ms=15_000,
    )
    sim.run(until=sim.now + 5 * MS)

    spans = progress["reset_span"]
    complete = all(span[0] is not None and span[1] is not None for span in spans)
    overlap_ns = (
        min(span[1] for span in spans) - max(span[0] for span in spans)
        if complete
        else -1
    )
    invariants = [
        _exercised(
            injector,
            "host_crash",
            commits_hit=progress["reissued"] + progress["retried"],
        ),
        InvariantResult(
            "both-replicas-detected",
            progress["failed"] == [1, 1],
            f"suspected indices {progress['failed']}",
        ),
        InvariantResult(
            "both-repairs-completed",
            all(repairer.repairs == 1 for repairer in repairers)
            and all(progress["rebound"]),
            f"repairs={[r.repairs for r in repairers]} "
            f"drained={progress['drained']}",
        ),
        InvariantResult(
            "resets-overlapped",
            complete and overlap_ns >= 0,
            f"overlap={overlap_ns / MS:.3f}ms" if complete else "incomplete",
        ),
        check_no_serialization_anomaly(coordinator),
        check_read_your_writes(coordinator),
        check_txn_acked_writes(coordinator),
    ]
    notes = [
        f"committed={coordinator.commits} epoch={coordinator.epoch} "
        f"failover_aborts={coordinator.aborts_failover} "
        f"reissued={progress['reissued']} retried={progress['retried']} "
        f"read_failovers={tracker.failovers}"
    ]
    return _finish(name, seed, sim, injector, len(specs), invariants, notes)


def _scenario_txn_reset_crash(seed: int) -> ScenarioReport:
    """A crash lands *inside* ``reset_after_failover``: the first
    failover's reset is draining the repaired chain's WAL when a
    surviving replica of that same chain dies, parking the reset on a
    dead ack forever. A second detect/repair round must splice again,
    break the parked reset's stale lock, and finish the drain — with
    the history anomaly-free and every acked write durable."""
    from ..txn import AvailabilityTracker, TxnCoordinator, VersionedGroupStore
    from ..storage.transactions import TransactionManager

    name = "txn-reset-crash"
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=10, n_cores=4)
    client = cluster[0]
    replicas = cluster.hosts[1:4]
    group_b_hosts = cluster.hosts[4:7]
    spares = [cluster[7], cluster[8]]
    region_size = 1 << 14
    generation = [0]

    def factory(members):
        generation[0] += 1
        return HyperLoopGroup(
            client,
            members,
            region_size=region_size,
            rounds=16,
            name=f"{name}.a{generation[0]}",
        )

    group_a = HyperLoopGroup(
        client, replicas, region_size=region_size, rounds=16, name=f"{name}.a0"
    )
    group_b = HyperLoopGroup(
        client, group_b_hosts, region_size=region_size, rounds=16, name=f"{name}.b"
    )
    stores = [
        VersionedGroupStore(TransactionManager(group_a, writer_id=1), name=f"{name}.s0"),
        VersionedGroupStore(TransactionManager(group_b, writer_id=2), name=f"{name}.s1"),
    ]
    tracker = AvailabilityTracker()
    coordinator = TxnCoordinator(stores, mode="ssi", tracker=tracker, name=name)

    # host2 dies mid-commit; host3 (a survivor carried into the
    # repaired chain) dies the moment the first reset starts — the
    # detector reports the "reset" phase right before calling it, and
    # zero phase delay lands the crash inside the WAL drain.
    plan = (
        FaultPlan(label=name)
        .add("host_crash", target="host2", at_op=5)
        .add("host_crash", target="host3", at_phase="reset", phase_delay_ms=0.0)
    )
    injector = FaultInjector(
        sim, cluster.fabric, {host.name: host for host in cluster.hosts}, plan
    )
    candidates = list(replicas) + [spares[0]]
    monitor = HeartbeatMonitor(
        client, candidates, interval=2 * MS, miss_threshold=3, name=f"{name}.hb"
    )
    pause_hook = tracker.on_repair_phase(0)

    def on_phase(phase):
        pause_hook(phase)
        injector.notify_phase(phase)

    repairer = ChainRepair(client, group_a, factory, on_phase=on_phase)

    keys = [f"k{index:02d}".encode() for index in range(8)]
    rng = sim.rng("chaos-ops")
    n_ops = 14
    specs = [("init", tuple(keys))]
    for _ in range(n_ops - 1):
        if rng.random() < 0.5:
            specs.append(("rmw", rng.choice(keys)))
        else:
            first, second = rng.sample(keys, 2)
            specs.append(("transfer", first, second))

    progress: Dict[str, object] = {
        "done": False,
        "failed_hosts": [],
        "resets_started": 0,
        "resets_done": [],
        "rebound": False,
        "reissued": 0,
        "retried": 0,
    }

    def writer(task):
        for index, spec in enumerate(specs):
            while True:
                while repairer.paused or (
                    repairer.repairs > 0 and not progress["rebound"]
                ):
                    yield from task.sleep(100_000)
                current = repairer.group
                outcome: Dict[str, str] = {}
                sub = client.os.spawn(
                    _txn_spec_runner(coordinator, spec, outcome),
                    name=f"{name}.t{index}",
                )
                while (
                    not sub.process.triggered
                    and repairer.group is current
                    and not repairer.paused
                ):
                    yield from task.sleep(50_000)
                if sub.process.triggered:
                    result = outcome.get("result", "")
                    if result in ("aborted:failover", "aborted:stale-epoch"):
                        progress["retried"] += 1
                        continue
                    break
                progress["reissued"] += 1
            injector.notify_op()
        progress["done"] = True

    def reset_probe(round_: int):
        def body(task):
            drained = yield from coordinator.reset_after_failover(
                task, 0, repairer.group
            )
            progress["resets_done"].append((round_, drained))
            progress["rebound"] = True

        return body

    def detector(task):
        handled = set()
        for round_ in range(2):
            while True:
                found = None
                for index in range(len(candidates)):
                    if index not in handled and monitor.suspected(index):
                        found = index
                        break
                if found is not None:
                    break
                yield from task.sleep(monitor.interval)
            handled.add(found)
            failed_host = candidates[found]
            progress["failed_hosts"].append(failed_host.name)
            monitor.stop_beats(found)
            current = repairer.group
            failed_index = current.replicas.index(failed_host)
            yield from repairer.repair(
                task,
                failed_index,
                spares[round_],
                copy_from=0 if failed_index != 0 else 1,
            )
            # The reset runs as an abandonable probe: round 1's parks
            # forever on the freshly-crashed survivor's ack (the
            # "reset" phase fires host3's crash with zero delay), and
            # this task must stay free to run the second round.
            injector.notify_phase("reset")
            progress["resets_started"] += 1
            client.os.spawn(reset_probe(round_), name=f"{name}.reset{round_}")

    client.os.spawn(writer, name=f"{name}.writer")
    client.os.spawn(detector, name=f"{name}.detector")
    run_until(
        sim,
        lambda: progress["done"] and progress["rebound"],
        deadline_ms=20_000,
    )
    sim.run(until=sim.now + 5 * MS)

    invariants = [
        _exercised(
            injector,
            "host_crash",
            commits_hit=progress["reissued"] + progress["retried"],
        ),
        InvariantResult(
            "crashes-in-order",
            progress["failed_hosts"] == ["host2", "host3"],
            f"failed hosts {progress['failed_hosts']}",
        ),
        InvariantResult(
            "first-reset-interrupted",
            progress["resets_started"] == 2
            and [round_ for round_, _ in progress["resets_done"]] == [1],
            f"started={progress['resets_started']} "
            f"completed={progress['resets_done']}",
        ),
        InvariantResult(
            "two-repair-rounds",
            repairer.repairs == 2 and progress["rebound"] is True,
            f"repairs={repairer.repairs}",
        ),
        check_no_serialization_anomaly(coordinator),
        check_read_your_writes(coordinator),
        check_txn_acked_writes(coordinator),
        check_no_errors(group_b, name="no-group-errors-b"),
    ]
    notes = [
        f"committed={coordinator.commits} epoch={coordinator.epoch} "
        f"failover_aborts={coordinator.aborts_failover} "
        f"reissued={progress['reissued']} retried={progress['retried']} "
        f"read_failovers={tracker.failovers}"
    ]
    return _finish(name, seed, sim, injector, len(specs), invariants, notes)


# -- registry and matrix ------------------------------------------------------------


@dataclass(frozen=True)
class _Scenario:
    run: Callable[[int], ScenarioReport]
    description: str


SCENARIOS: Dict[str, _Scenario] = {
    "drop": _Scenario(_scenario_drop, "3% message loss under a gWRITE stream"),
    "lossy": _Scenario(
        _scenario_lossy, "corrupt+duplicate+delay+drop under all three primitives"
    ),
    "partition": _Scenario(
        _scenario_partition, "3ms bidirectional mid-chain partition, then heal"
    ),
    "stall": _Scenario(_scenario_stall, "mid-chain NIC stalls 1.5ms, then resumes"),
    "nic-crash": _Scenario(
        _scenario_nic_crash, "mid-chain NIC crash -> heartbeat -> chain repair"
    ),
    "host-crash": _Scenario(
        _scenario_host_crash, "mid-chain host crash -> heartbeat -> chain repair"
    ),
    "power-failure": _Scenario(
        _scenario_power_failure, "replica power loss; WAL recovery from durable NVM"
    ),
    "partition-repair": _Scenario(
        _scenario_partition_repair,
        "host crash -> repair with a partition landing mid-catch-up",
    ),
    "double-crash": _Scenario(
        _scenario_double_crash, "two replicas die in sequence; two repair rounds"
    ),
    "stall-lossy": _Scenario(
        _scenario_stall_lossy, "NIC stall layered on drop+delay+duplicate fabric"
    ),
    "client-crash": _Scenario(
        _scenario_client_crash, "coordinator crash -> restart -> re-attach + catch-up"
    ),
    "txn-failover": _Scenario(
        _scenario_txn_failover,
        "replica crash mid-commit -> repair -> txn epoch reset + replay",
    ),
    "txn-insert": _Scenario(
        _scenario_txn_insert,
        "replica crash under an insert-bearing commit install -> replay",
    ),
    "txn-chaos": _Scenario(
        _scenario_txn_chaos,
        "SSI transaction mix + write skew on a drop+delay+duplicate fabric",
    ),
    "txn-double-failover": _Scenario(
        _scenario_txn_double_failover,
        "both txn groups lose a replica at once; overlapping repair + reset",
    ),
    "txn-reset-crash": _Scenario(
        _scenario_txn_reset_crash,
        "survivor crash lands mid-reset_after_failover; second round recovers",
    ),
}

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
