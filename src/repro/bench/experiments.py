"""Experiment builders for every table and figure in the paper (§6).

Each function builds the full scenario — cluster, background tenants,
system under test, workload — runs it to completion, and returns the
same metrics the paper plots. The ``benchmarks/`` suite is a thin
layer over these, printing paper-style rows and asserting the *shape*
(who wins, by roughly what factor).

Scale note: operation counts default to simulation-friendly values
(thousands rather than the paper's 10k-16M); every function takes the
count as a parameter so a longer run is one argument away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..baseline import NaiveGroup
from ..core import HyperLoopGroup
from ..hw import Cluster, Host
from ..sim import MS, SECOND, Simulator
from ..storage import MongoServer, ReplicatedKVStore, split_mongo
from ..workloads import WORKLOADS, YcsbWorkload
from .harness import LatencyRecorder, LatencyStats, run_until

__all__ = [
    "MicrobenchResult",
    "microbench_latency",
    "microbench_throughput",
    "fig2_mongodb_motivation",
    "fig11_rocksdb",
    "fig12_mongodb",
    "MESSAGE_SIZES_FIG8",
    "MESSAGE_SIZES_FIG9",
    "EXPERIMENTS",
    "run_experiment",
]

MESSAGE_SIZES_FIG8 = [128, 256, 512, 1024, 2048, 4096, 8192]
MESSAGE_SIZES_FIG9 = [1024, 2048, 4096, 8192, 16384, 32768, 65536]


def _spawn_background(cluster: Cluster, hosts: Sequence[Host], per_core: int) -> None:
    """CPU-bound tenants (stress-ng-style) on the given hosts."""
    for host in hosts:
        for index in range(per_core * len(host.os.cores)):
            host.os.spawn_stress(f"{host.name}.tenant{index}")


def _build_group(
    system: str,
    client: Host,
    replicas: Sequence[Host],
    region_size: int,
    rounds: int,
    durable: bool = True,
):
    """``system``: hyperloop | naive-event | naive-polling."""
    if system == "hyperloop":
        return HyperLoopGroup(
            client,
            replicas,
            region_size=region_size,
            rounds=rounds,
            durable=durable,
            client_mode="polling",
            client_core=0,
            name="sut",
        )
    if system in ("naive-event", "naive-polling"):
        mode = system.split("-")[1]
        return NaiveGroup(
            client,
            replicas,
            region_size=region_size,
            rounds=rounds,
            durable=durable,
            replica_mode=mode,
            replica_cores=[0] * len(replicas),  # pinned, paper's best case
            client_mode="polling",
            client_core=0,
            name="sut",
        )
    raise ValueError(f"unknown system {system!r}")


@dataclass
class MicrobenchResult:
    """One microbenchmark configuration's outcome."""

    system: str
    primitive: str
    message_size: int
    group_size: int
    stats: LatencyStats
    replica_cpu_fraction: float
    throughput_kops: float = 0.0
    errors: List[str] = field(default_factory=list)
    samples_ns: List[int] = field(default_factory=list)
    """Raw per-op latencies (ns). Lets sweep merging be sample-exact
    (:func:`repro.bench.parallel.merge_run_stats`); empty for
    experiments that only measure aggregates (throughput) and for runs
    large enough to ship :attr:`sketch` instead."""
    sketch: Optional[Dict] = None
    """Mergeable percentile sketch (``PercentileSketch.to_dict()``),
    shipped in place of ``samples_ns`` above
    :data:`~repro.bench.sketch.SKETCH_THRESHOLD` samples."""


def microbench_latency(
    system: str,
    primitive: str = "gwrite",
    message_size: int = 1024,
    group_size: int = 3,
    n_ops: int = 2000,
    stress_per_core: int = 3,
    n_cores: int = 16,
    durable: bool = True,
    pipeline_depth: int = 16,
    rounds: int = 4096,
    seed: int = 42,
    deadline_ms: int = 600_000,
) -> MicrobenchResult:
    """§6.1 latency microbenchmark (Figures 8 and 10, Table 2).

    A multi-threaded client process on an unloaded machine (the
    paper's benchmark client) keeps ``pipeline_depth`` operations in
    flight against a chain of ``group_size`` replicas whose hosts
    carry ``stress_per_core`` CPU-bound tenants per core. gCAS
    alternates the compare value per round so every CAS succeeds
    (lock acquire/release pattern).
    """
    if primitive not in ("gwrite", "gmemcpy", "gcas"):
        raise ValueError(f"unknown primitive {primitive!r}")
    from ..sim.shard import maybe_contained

    contained = maybe_contained(
        "repro.bench.experiments:microbench_latency",
        dict(
            system=system,
            primitive=primitive,
            message_size=message_size,
            group_size=group_size,
            n_ops=n_ops,
            stress_per_core=stress_per_core,
            n_cores=n_cores,
            durable=durable,
            pipeline_depth=pipeline_depth,
            rounds=rounds,
            seed=seed,
            deadline_ms=deadline_ms,
        ),
    )
    if contained is not None:
        return contained[0]
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=group_size + 1, n_cores=n_cores)
    replicas = cluster.hosts[1 : group_size + 1]
    _spawn_background(cluster, replicas, stress_per_core)
    region_size = max(1 << 16, message_size * 4)
    group = _build_group(system, cluster[0], replicas, region_size, rounds=rounds, durable=durable)
    recorder = LatencyRecorder(f"{system}/{primitive}/{message_size}")
    state = {"issued": 0, "running": pipeline_depth}

    def worker(worker_index):
        def body(task):
            group.write_local(0, b"\xab" * message_size)
            while state["issued"] < n_ops:
                index = state["issued"]
                state["issued"] += 1
                start = sim.now
                if primitive == "gwrite":
                    yield from group.gwrite(task, 0, message_size)
                elif primitive == "gmemcpy":
                    yield from group.gmemcpy(task, 0, message_size * 2, message_size)
                elif primitive == "gcas":
                    # Each worker alternates acquire/release on its
                    # own lock word so every CAS succeeds; each CAS is
                    # one sample.
                    offset = 8 * worker_index
                    phase = state.setdefault(f"phase{worker_index}", 0)
                    yield from group.gcas(task, offset, phase, 1 - phase)
                    state[f"phase{worker_index}"] = 1 - phase
                else:
                    raise ValueError(f"unknown primitive {primitive!r}")
                recorder.record(sim.now - start)
            state["running"] -= 1

        return body

    time0 = sim.now
    workers = [
        cluster[0].os.spawn(
            worker(worker_index),
            f"bench{worker_index}",
            pinned_core=1 + worker_index % (n_cores - 1),
        )
        for worker_index in range(pipeline_depth)
    ]
    _run_workload(sim, workers, lambda: state["running"] == 0, deadline_ms)
    cpu_fraction = _group_cpu_fraction(group, sim.now - time0)
    samples, sketch = recorder.ship()
    return MicrobenchResult(
        system=system,
        primitive=primitive,
        message_size=message_size,
        group_size=group_size,
        stats=recorder.stats(),
        replica_cpu_fraction=cpu_fraction,
        errors=list(group.errors),
        samples_ns=samples,
        sketch=sketch,
    )


def microbench_throughput(
    system: str,
    message_size: int = 4096,
    total_bytes: int = 32 << 20,
    group_size: int = 3,
    pipeline_depth: int = 16,
    n_cores: int = 16,
    stress_per_core: int = 0,
    seed: int = 43,
    deadline_ms: int = 600_000,
) -> MicrobenchResult:
    """§6.1 throughput benchmark (Figure 9): write ``total_bytes`` in
    ``message_size`` chunks with ``pipeline_depth`` concurrent client
    workers; report Kops/s and replica critical-path CPU."""
    from ..sim.shard import maybe_contained

    contained = maybe_contained(
        "repro.bench.experiments:microbench_throughput",
        dict(
            system=system,
            message_size=message_size,
            total_bytes=total_bytes,
            group_size=group_size,
            pipeline_depth=pipeline_depth,
            n_cores=n_cores,
            stress_per_core=stress_per_core,
            seed=seed,
            deadline_ms=deadline_ms,
        ),
    )
    if contained is not None:
        return contained[0]
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=group_size + 1, n_cores=n_cores)
    replicas = cluster.hosts[1 : group_size + 1]
    _spawn_background(cluster, replicas, stress_per_core)
    region_size = max(1 << 16, message_size * 4)
    group = _build_group(system, cluster[0], replicas, region_size, rounds=2048)
    n_ops = max(1, total_bytes // message_size)
    remaining = {"ops": n_ops, "running": pipeline_depth}
    started = {}

    def worker(task):
        if "t0" not in started:
            started["t0"] = sim.now
        group.write_local(0, b"\xcd" * message_size)
        while remaining["ops"] > 0:
            remaining["ops"] -= 1
            yield from group.gwrite(task, 0, message_size)
        remaining["running"] -= 1
        if remaining["running"] == 0:
            # Record the true finish time: run_until advances the
            # clock in chunks, which would otherwise inflate elapsed.
            started["t1"] = sim.now
            started["cpu1"] = group.replica_cpu_ns()

    time0 = sim.now
    cpu0 = group.replica_cpu_ns()
    workers = [
        cluster[0].os.spawn(worker, f"tx{index}", pinned_core=1 + index % (n_cores - 1))
        for index in range(pipeline_depth)
    ]
    _run_workload(sim, workers, lambda: remaining["running"] == 0, deadline_ms)
    elapsed = started["t1"] - started.get("t0", time0)
    kops = n_ops / (elapsed / SECOND) / 1000.0
    if elapsed <= 0:
        cpu_fraction = 0.0
    else:
        cpu_fraction = (started["cpu1"] - cpu0) / elapsed / group.group_size
    stats = LatencyStats(n_ops, 0, 0, 0, 0, 0, 0)
    return MicrobenchResult(
        system=system,
        primitive="gwrite",
        message_size=message_size,
        group_size=group_size,
        stats=stats,
        replica_cpu_fraction=cpu_fraction,
        throughput_kops=kops,
        errors=list(group.errors),
    )


def _run_workload(sim, workers, done, deadline_ms) -> None:
    """run_until that surfaces a dead worker's exception immediately
    instead of waiting out the deadline."""

    def finished():
        if done():
            return True
        return any(w.process.triggered and not w.process.ok for w in workers)

    run_until(sim, finished, deadline_ms=deadline_ms)
    for worker in workers:
        if worker.process.triggered and not worker.process.ok:
            raise worker.process.value


def _replica_busy(replicas: Sequence[Host]) -> int:
    return sum(host.os.busy_ns for host in replicas)


def _group_replica_cpu(group) -> int:
    return group.replica_cpu_ns()


def _group_cpu_fraction(group, elapsed: int) -> float:
    """Replica CPU consumed by the replication system per unit time,
    as a fraction of one core (the paper's 'critical path CPU')."""
    if elapsed <= 0:
        return 0.0
    return group.replica_cpu_ns() / elapsed / group.group_size


# ---------------------------------------------------------------------------
# Figure 2: vanilla MongoDB motivation study
# ---------------------------------------------------------------------------


@dataclass
class Fig2Result:
    """One Figure 2 configuration."""

    replica_sets: int
    n_cores: int
    stats: LatencyStats
    context_switches: int


def fig2_mongodb_motivation(
    n_replica_sets: int,
    n_cores: int = 16,
    ops_per_set: int = 60,
    load_docs: int = 20,
    value_size: int = 512,
    seed: int = 44,
    deadline_ms: int = 2_000_000,
) -> Fig2Result:
    """§2.2 / Figure 2: vanilla MongoDB replica-sets on 3 servers.

    Each replica-set is a native primary process (RPC + CPU-driven
    chain) plus two backup daemons; primaries rotate across servers.
    YCSB-A clients on 3 unloaded machines drive every set
    concurrently. Returns latency stats over all operations plus the
    servers' total context switches.
    """
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=6, n_cores=n_cores)
    servers = cluster.hosts[0:3]
    clients = cluster.hosts[3:6]
    for server in servers:
        server.os.set_enabled_cores(n_cores)
    deployments = []
    for index in range(n_replica_sets):
        primary = servers[index % 3]
        backups = [servers[(index + 1) % 3], servers[(index + 2) % 3]]
        server = MongoServer(
            primary,
            backups,
            region_size=1 << 17,
            rounds=64,
            replica_mode="event",
            server_mode="event",
            parse_ns=60_000,
            name=f"rs{index}",
        )
        client = server.connect(clients[index % 3])
        deployments.append((server, client))
    recorder = LatencyRecorder("fig2")
    finished = {"n": 0}

    def ycsb_body(index, client):
        workload = YcsbWorkload(WORKLOADS["A"], record_count=load_docs, value_size=value_size, seed=seed + index)

        def body(task):
            for key in workload.load_keys():
                yield from client.insert(
                    task, f"u{key:06d}".encode(), {"field0": b"\x11" * value_size}
                )
            for op in workload.operations(ops_per_set):
                doc_id = f"u{op.key:06d}".encode()
                start = sim.now
                if op.kind == "read":
                    yield from client.read(task, doc_id)
                elif op.kind == "update":
                    yield from client.update(
                        task, doc_id, {"field0": b"\x22" * value_size}
                    )
                recorder.record(sim.now - start)
            finished["n"] += 1

        return body

    switches0 = sum(server.os.context_switches for server in servers)
    for index, (server, client) in enumerate(deployments):
        clients[index % 3].os.spawn(ycsb_body(index, client), f"ycsb{index}")
    run_until(sim, lambda: finished["n"] == n_replica_sets, deadline_ms=deadline_ms)
    switches = sum(server.os.context_switches for server in servers) - switches0
    return Fig2Result(
        replica_sets=n_replica_sets,
        n_cores=n_cores,
        stats=recorder.stats(),
        context_switches=switches,
    )


# ---------------------------------------------------------------------------
# Figure 11: replicated RocksDB under multi-tenancy
# ---------------------------------------------------------------------------


def fig11_rocksdb(
    system: str,
    n_ops: int = 1200,
    n_records: int = 200,
    value_size: int = 1024,
    stress_per_core: int = 10,
    n_cores: int = 8,
    app_threads: int = 8,
    rounds: int = 4096,
    seed: int = 45,
    deadline_ms: int = 2_000_000,
) -> LatencyStats:
    """§6.2 / Figure 11: update latency of replicated RocksDB.

    The store's backups run on servers carrying a 10:1 process:core
    multi-tenant load (the paper co-locates I/O-intensive instances;
    CPU-bound tenants exercise the same scheduler contention). The
    application itself is multi-threaded ("the number of application
    threads on each socket is 10x the number of its CPU cores");
    ``app_threads`` tasks issue operations concurrently and meet at the
    WAL mutex like real RocksDB writers: whoever queued while one
    append was in flight rides the next one's record run and header
    (group commit, :mod:`repro.storage.log`), so an update pays about
    two chain round trips — the one it waits out and the one it rides
    — rather than one per writer ahead of it (hyperloop avg 92.0 →
    26.5 us, p99 100.3 → 40.5 us at the benchmark's size). Only update
    operations are timed, per the paper ("traces from YCSB workload A
    ... latencies of update operations").
    """
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=n_cores)
    replicas = cluster.hosts[1:4]
    _spawn_background(cluster, replicas, stress_per_core)
    group = _build_group(system, cluster[0], replicas, region_size=1 << 21, rounds=rounds)
    kv = ReplicatedKVStore(group, sync_interval=5 * MS)
    workload = YcsbWorkload(WORKLOADS["A"], record_count=n_records, value_size=value_size, seed=seed)
    operations = list(workload.operations(n_ops))
    recorder = LatencyRecorder(f"fig11/{system}")
    state = {"cursor": 0, "running": app_threads, "loaded": False}

    def loader(task):
        value = b"\x33" * value_size
        for key in workload.load_keys():
            yield from kv.put(task, f"user{key:08d}".encode(), value)
        state["loaded"] = True

    def worker(task):
        value = b"\x33" * value_size
        # Wait for the load phase to finish.
        while not state["loaded"]:
            yield from task.sleep(100_000)
        while state["cursor"] < len(operations):
            op = operations[state["cursor"]]
            state["cursor"] += 1
            key = f"user{op.key:08d}".encode()
            if op.kind == "update":
                start = sim.now
                yield from kv.put(task, key, value)
                recorder.record(sim.now - start)
            else:
                yield from kv.get(task, key)
        state["running"] -= 1

    workers = [cluster[0].os.spawn(loader, "load", pinned_core=1)]
    workers.extend(
        cluster[0].os.spawn(
            worker, f"ycsb{index}", pinned_core=1 + index % (n_cores - 1)
        )
        for index in range(app_threads)
    )
    _run_workload(sim, workers, lambda: state["running"] == 0, deadline_ms)
    return recorder.stats()


# ---------------------------------------------------------------------------
# Figure 12: MongoDB with native vs HyperLoop replication, YCSB A/B/D/E/F
# ---------------------------------------------------------------------------


def fig12_mongodb(
    offloaded: bool,
    workload_name: str,
    n_ops: int = 500,
    n_records: int = 150,
    value_size: int = 1024,
    stress_per_core: int = 10,
    n_cores: int = 8,
    max_scan: int = 20,
    rounds: int = 512,
    seed: int = 46,
    deadline_ms: int = 4_000_000,
) -> LatencyStats:
    """§6.2 / Figure 12: the split MongoDB (front end on the client)
    over the HyperLoop or Naïve-polling backend, per YCSB workload."""
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=n_cores)
    replicas = cluster.hosts[1:4]
    _spawn_background(cluster, replicas, stress_per_core)
    store = split_mongo(
        cluster[0],
        replicas,
        offloaded=offloaded,
        region_size=1 << 21,
        rounds=rounds,
        replica_mode="polling",
        parse_ns=60_000,
        name="m",
    )
    mix = WORKLOADS[workload_name]
    if mix.max_scan_length > max_scan:
        mix = type(mix)(
            name=mix.name,
            read=mix.read,
            update=mix.update,
            insert=mix.insert,
            modify=mix.modify,
            scan=mix.scan,
            distribution=mix.distribution,
            max_scan_length=max_scan,
        )
    workload = YcsbWorkload(mix, record_count=n_records, value_size=value_size, seed=seed)
    recorder = LatencyRecorder(f"fig12/{workload_name}/{offloaded}")
    done = {}

    def body(task):
        payload = b"\x44" * value_size
        for key in workload.load_keys():
            yield from store.insert(task, f"user{key:08d}".encode(), {"field0": payload})
        for op in workload.operations(n_ops):
            doc_id = f"user{op.key:08d}".encode()
            start = sim.now
            if op.kind == "read":
                yield from store.read(task, doc_id, replica=op.key % 3)
            elif op.kind == "update":
                yield from store.update(task, doc_id, {"field0": payload})
            elif op.kind == "insert":
                yield from store.insert(task, doc_id, {"field0": payload})
            elif op.kind == "modify":
                yield from store.modify(task, doc_id, {"field0": payload})
            elif op.kind == "scan":
                yield from store.scan(task, doc_id, op.scan_length, replica=op.key % 3)
            recorder.record(sim.now - start)
        done["y"] = True

    cluster[0].os.spawn(body, "ycsb", pinned_core=1)
    run_until(sim, lambda: "y" in done, deadline_ms=deadline_ms)
    return recorder.stats()


# ---------------------------------------------------------------------------
# Registry — names the parallel runner and the CLI can address.
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "latency": microbench_latency,
    "throughput": microbench_throughput,
    "fig2": fig2_mongodb_motivation,
    "fig11": fig11_rocksdb,
    "fig12": fig12_mongodb,
}
"""Every experiment addressable by name.

The :mod:`repro.bench.parallel` runner ships ``(name, params, seed)``
triples to worker processes, so entries must be importable module-level
callables whose parameters and return values pickle cleanly.
"""


def run_experiment(name: str, **kwargs):
    """Run a registered experiment by name."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {name!r} (known: {known})") from None
    return fn(**kwargs)
