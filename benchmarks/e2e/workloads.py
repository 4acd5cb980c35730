"""The five worlds the benchmark drives, and their client operations.

Each workload builds its world through the public entry points only
(``Simulator``, ``Cluster``, ``HyperLoopGroup``, ``NaiveGroup``,
``ReplicatedKVStore``, ``build_txn_system``, the ``TxnCoordinator``
verbs, ``run_with_retries``/``make_policy``, ``YcsbWorkload``) and owns
its client loop, so that construction, load, warm-up and the timed
phase are separate spans. Why each one exists is recorded in
``README.md`` and, in one line, in ``BENCHMARK.json``.

Every input is made from ``seed``: the simulator seed (stress tenants,
retry jitter), the YCSB streams and the payload stamps. The program
only ever sees generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, Generator, List, Optional

from repro import Cluster, HyperLoopGroup, NaiveGroup, Simulator
from repro.sim import MS
from repro.storage import ReplicatedKVStore
from repro.txn import (
    RetryStats,
    build_txn_system,
    find_cycle,
    make_policy,
    run_with_retries,
)
from repro.workloads import WORKLOADS, YcsbWorkload

from spans import SpanLog

RUN_SECONDS = 10
"""``run_seconds`` of BENCHMARK.json: the timed seconds of one run (three
repeats). ``BASE_OPS`` are sized for it on the 2-core reference host;
``--seconds`` scales the op count linearly."""

WARMUP_SHARE = 20  # first 1/20 of the ops run untimed


def _stamp(text: str, size: int) -> bytes:
    raw = text.encode()
    return (raw * (size // len(raw) + 1))[:size]


def _pow2_at_least(n: int) -> int:
    return 1 << max(n - 1, 1).bit_length()


def _spawn_tenants(hosts, per_core: int) -> None:
    """CPU-bound neighbours (stress-ng style) on the replica hosts."""
    for host in hosts:
        for index in range(per_core * len(host.os.cores)):
            host.os.spawn_stress(f"{host.name}.tenant{index}")


class Workload:
    """One world plus the operation its clients repeat.

    Subclasses set the class constants, build the world in ``__init__``
    under ``spans`` and implement :meth:`op`; :meth:`load` and
    :meth:`check` are optional.
    """

    name = ""
    base_ops = 0  # timed ops per repeat at RUN_SECONDS
    clients = 1  # closed loop: each client issues its next op on completion
    n_cores = 16

    def __init__(self, seed: int, n_ops: int, spans: SpanLog, setup: int):
        self.seed = seed
        self.n_ops = n_ops  # warm-up + timed
        self.spans = spans
        self.sim = spans.sim = Simulator(seed=seed)
        self.groups: list = []
        self.anomalies = 0  # committed transactions on a serialization cycle

    # -- hooks -------------------------------------------------------------

    def load(self, task) -> Generator:
        return
        yield

    def op(self, task, index: int, parent: Optional[int]) -> Generator:
        """Run op ``index``; return ``(ok, latency_ns)``.

        The latency is simulated time from issue to completion, stamped
        here from ``sim.now``; ``None`` marks an op that counts towards
        throughput but is not a latency sample.
        """
        raise NotImplementedError

    def readback(self, task) -> Generator:
        """Reads issued at rest, after the timed phase; errors go to check()."""
        return
        yield

    def check(self) -> List[str]:
        """Output errors after the run (empty = correct)."""
        return []

    def layer_stats(self) -> Dict[str, int]:
        """Running totals of workload-specific layer counts; the pass
        reports their growth over the timed phase."""
        return {}

    # -- shared pieces -----------------------------------------------------

    def spawn_client(self, body, index: int):
        return self.cluster[0].os.spawn(
            body, f"{self.name}.c{index}", pinned_core=1 + index % (self.n_cores - 1)
        )

    def group_errors(self) -> List[str]:
        return [f"{g.name}: {e}" for g in self.groups for e in g.errors]

    def replica_cpu_ns(self) -> List[int]:
        return [group.replica_cpu_ns() for group in self.groups]

    def replicas_differ(self, group, size: int) -> List[str]:
        images = [group.read_replica(i, 0, size) for i in range(group.group_size)]
        return [
            f"{group.name}: replica {i} differs from replica 0"
            for i in range(1, len(images))
            if images[i] != images[0]
        ]


class _GroupWrites(Workload):
    """16 pipelined clients, 1 KiB durable gWRITE over 3 replicas (Fig 8).

    Every client owns a 1 KiB slot of the region and stamps each write
    with ``seed/op``, so the final region is a function of the op stream
    and the replicas can be compared with the client's copy. Before
    each write the client computes for a seeded think time: without it
    nothing in this world depends on the seed and every simulated
    figure repeats for all seeds (the pinned Fig-8 p50 of 9.536 us).
    """

    base_ops = 3500
    clients = 16
    message_size = 1024
    stress_per_core = 3
    think_ns = 2000  # think time is uniform in [0, think_ns)
    rounds = 4096
    span_name = ""

    def __init__(self, seed, n_ops, spans, setup):
        super().__init__(seed, n_ops, spans, setup)
        with spans.span("workloads.plan", setup):
            rng = random.Random(f"think/{seed}")
            self.think = [rng.randrange(self.think_ns) for _ in range(n_ops)]
        with spans.span("hw.memory.cluster_build", setup):
            self.cluster = Cluster(self.sim, n_hosts=4, n_cores=self.n_cores)
        replicas = self.cluster.hosts[1:4]
        _spawn_tenants(replicas, self.stress_per_core)
        self.region_size = max(1 << 16, self.clients * self.message_size)
        with spans.span("core.group_build", setup):
            self.group = self.build_group(self.cluster[0], replicas)
        self.groups = [self.group]

    def build_group(self, client, replicas):
        raise NotImplementedError

    def op(self, task, index, parent):
        yield from task.compute(self.think[index])
        slot = (index % self.clients) * self.message_size
        self.group.write_local(slot, _stamp(f"{self.seed}/{index};", self.message_size))
        issued = self.sim.now
        yield from self.spans.call(
            self.span_name, parent, index, self.group.gwrite(task, slot, self.message_size)
        )
        return True, self.sim.now - issued

    def check(self):
        used = self.clients * self.message_size
        errors = self.replicas_differ(self.group, used)
        if self.group.read_replica(0, 0, used) != self.group.client_region.read(0, used):
            errors.append(f"{self.group.name}: replicas differ from the client's region")
        return errors


class GwriteChain(_GroupWrites):
    name = "gwrite_chain"
    span_name = "core.gwrite"

    def build_group(self, client, replicas):
        # Pre-post more rounds than the run has ops. Replica CPUs re-arm
        # consumed rounds off the critical path, but under 3 tenants per
        # core that task can be ~3 ms late, and 16 clients at ~1.4 Mops/s
        # drain a 4096-round ring in 2.9 ms: whether the chain then runs
        # dry for ~1.7 ms depends on the seed, and sim_kops with it.
        rounds = max(self.rounds, _pow2_at_least(self.n_ops + 1))
        return HyperLoopGroup(
            client, replicas, region_size=self.region_size, rounds=rounds,
            durable=True, client_mode="polling", client_core=0, name="sut",
        )


class NaiveTenancy(_GroupWrites):
    name = "naive_tenancy"
    span_name = "baseline.gwrite"
    # One op in ten waits ~4 ms for a scheduler tick and stalls all 16
    # clients with it, so throughput is set by a few dozen stall episodes
    # per 5000 ops and moves +-20% with the seed; this many ops hold it.
    base_ops = 6500

    def build_group(self, client, replicas):
        return NaiveGroup(
            client, replicas, region_size=self.region_size, rounds=self.rounds,
            durable=True, replica_mode="event", replica_cores=[0] * len(replicas),
            client_mode="polling", client_core=0, name="sut",
        )


class KvYcsbA(Workload):
    """ReplicatedKVStore over HyperLoop, YCSB-A, 10:1 tenancy (Fig 11)."""

    name = "kv_ycsb_a"
    base_ops = 3500
    clients = 8
    n_cores = 8
    n_records = 200
    value_size = 1024
    stress_per_core = 10

    def __init__(self, seed, n_ops, spans, setup):
        super().__init__(seed, n_ops, spans, setup)
        with spans.span("workloads.plan", setup):
            workload = YcsbWorkload(
                WORKLOADS["A"], record_count=self.n_records,
                value_size=self.value_size, seed=seed,
            )
            self.load_keys = list(workload.load_keys())
            self.plan = list(workload.operations(n_ops))
        with spans.span("hw.memory.cluster_build", setup):
            self.cluster = Cluster(self.sim, n_hosts=4, n_cores=self.n_cores)
        replicas = self.cluster.hosts[1:4]
        _spawn_tenants(replicas, self.stress_per_core)
        with spans.span("core.group_build", setup):
            self.group = HyperLoopGroup(
                self.cluster[0], replicas, region_size=1 << 21, rounds=4096,
                durable=True, client_mode="polling", client_core=0, name="sut",
            )
        self.groups = [self.group]
        self.kv = ReplicatedKVStore(self.group, sync_interval=5 * MS)
        self.acked: Dict[bytes, bytes] = {}
        self.user_bytes = 0
        self.in_flight = 0
        self.flushing = False
        self.checkpoints = 0

    @staticmethod
    def key(index: int) -> bytes:
        return f"user{index:08d}".encode()

    def _enter(self, task):
        """Gate every op passes: checkpoint once the WAL is half full.

        ``kv.checkpoint`` dumps the memtable and then truncates the log
        to its tail, so a put that lands in between would lose its
        record: the client that finds the log half full holds new ops
        at the gate, waits for those in flight, and checkpoints alone
        (a stop-the-world memtable flush). The wait is outside every
        op's latency and inside the throughput.
        """
        while self.flushing:
            yield from task.sleep(20_000)
        log = self.kv.log
        if log.tail - log.head > self.kv.layout.wal_size // 2:
            self.flushing = True
            while self.in_flight:
                yield from task.sleep(5_000)
            yield from self.kv.checkpoint(task)
            self.checkpoints += 1
            self.flushing = False
        self.in_flight += 1

    def _put(self, task, key, value, parent, index):
        yield from self.spans.call(
            "storage.put", parent, index, self.kv.put(task, key, value)
        )
        self.acked[key] = value
        self.user_bytes += len(key) + len(value)

    def load(self, task):
        for index in self.load_keys:
            value = _stamp(f"{self.seed}/load/{index};", self.value_size)
            yield from self._put(task, self.key(index), value, None, None)

    def op(self, task, index, parent):
        yield from self._enter(task)
        try:
            return (yield from self._op(task, index, parent))
        finally:
            self.in_flight -= 1

    def _op(self, task, index, parent):
        op = self.plan[index]
        key = self.key(op.key)
        issued = self.sim.now
        if op.kind == "update":
            value = _stamp(f"{self.seed}/{index};", self.value_size)
            yield from self._put(task, key, value, parent, index)
            return True, self.sim.now - issued
        value = yield from self.spans.call(
            "storage.get", parent, index, self.kv.get(task, key)
        )
        # A get may overlap a put of the same key by another client, so
        # only the shape is checked here; readback() reads at rest. Gets
        # are local memtable reads of ~1 us next to ~150 us puts: pooled,
        # the median would flip between the two modes with the seed's
        # read share, so only updates are latency samples (as in Fig 11).
        return value is not None and len(value) == self.value_size, None

    def readback(self, task):
        self.stale = []
        for key, value in self.acked.items():
            if (yield from self.kv.get(task, key)) != value:
                self.stale.append(key)

    def check(self):
        errors = self.replicas_differ(self.group, self.group.region_size)
        for key in self.stale:
            errors.append(f"kv: read-back of {key!r} is not the last acknowledged value")
        for replica in range(self.group.group_size):
            if self.kv.recover_from_replica(replica) != self.acked:
                errors.append(f"kv: replica {replica} does not recover the acknowledged state")
        return errors

    def layer_stats(self):
        return {
            "wal_tail": self.kv.log.tail,
            "user_bytes": self.user_bytes,
            "checkpoints": self.checkpoints,
        }


class _TxnYcsb(Workload):
    """Transactional YCSB over 4 groups under SSI with backoff retry."""

    base_ops = 800
    clients = 4
    n_cores = 4
    n_groups = 4
    n_keys = 48
    ops_per_txn = 3
    value_size = 16
    max_scan = 12
    max_attempts = 16
    mix = ""

    def __init__(self, seed, n_ops, spans, setup):
        super().__init__(seed, n_ops, spans, setup)
        with spans.span("workloads.plan", setup):
            mix = WORKLOADS[self.mix]
            if mix.max_scan_length > self.max_scan:
                mix = replace(mix, max_scan_length=self.max_scan)
            workload = YcsbWorkload(
                mix, record_count=self.n_keys, value_size=self.value_size, seed=seed
            )
            stream = list(workload.operations(n_ops * self.ops_per_txn))
            self.plan = [
                stream[i * self.ops_per_txn : (i + 1) * self.ops_per_txn]
                for i in range(n_ops)
            ]
        # One 256-byte slot per key per group; leave room for hash skew.
        n_keys = self.n_keys + sum(1 for op in stream if op.kind == "insert")
        region_size = max(1 << 16, _pow2_at_least(3 * 256 * n_keys // self.n_groups))
        with spans.span("hw.memory.cluster_build", setup):
            self.cluster = Cluster(self.sim, n_hosts=4, n_cores=self.n_cores)
        with spans.span("core.group_build", setup):
            self.coordinator = build_txn_system(
                self.sim, self.cluster, n_groups=self.n_groups,
                region_size=region_size, mode="ssi", name="ycsb",
            )
        self.groups = [store.group for store in self.coordinator.stores]
        # The default budget of 6 attempts gives up on ~0.5% of mix-A
        # transactions; a failed op has no latency, so the client is
        # patient enough that none does.
        self.policy = make_policy(
            "backoff", rng=self.sim.rng("txn-retry"), max_attempts=self.max_attempts
        )
        self.stats = RetryStats()

    def spawn_client(self, body, index):
        return self.cluster[0].os.spawn(body, name=f"{self.name}.c{index}")

    @staticmethod
    def key(index: int) -> bytes:
        return f"y{index:04d}".encode()

    def value(self, key: int, txn_index: int) -> bytes:
        return _stamp(f"{self.seed}/{key}/{txn_index};", self.value_size)

    def load(self, task):
        coordinator = self.coordinator
        txn = yield from coordinator.begin(task)
        for index in range(self.n_keys):
            coordinator.write(txn, self.key(index), self.value(index, -1))
        yield from coordinator.commit(task, txn)

    def op(self, task, index, parent):
        coordinator = self.coordinator
        call = self.spans.call

        def attempt(task):
            txn = yield from call("txn.begin", parent, index, coordinator.begin(task))
            for op in self.plan[index]:
                key = self.key(op.key)
                if op.kind == "read":
                    yield from call("txn.read", parent, index, coordinator.read(task, txn, key))
                elif op.kind == "update":
                    coordinator.write(txn, key, self.value(op.key, index))
                elif op.kind == "insert":
                    coordinator.insert(txn, key, self.value(op.key, index))
                elif op.kind == "scan":
                    yield from call(
                        "txn.scan", parent, index,
                        coordinator.scan(task, txn, key, op.scan_length),
                    )
                else:
                    raise ValueError(f"unplanned op kind {op.kind!r}")
            yield from call("txn.commit", parent, index, coordinator.commit(task, txn))

        issued = self.sim.now
        outcome, _, _ = yield from run_with_retries(task, self.policy, attempt, self.stats)
        return outcome == "committed", self.sim.now - issued

    def check(self):
        coordinator = self.coordinator
        errors = []
        for store in coordinator.stores:
            for key in store.keys_from(b""):
                latest = store.latest(key)
                for replica in range(store.group.group_size):
                    durable = store.read_durable_offline(replica, key)
                    if durable is None or durable[0] != latest.commit_ts or durable[3] != latest.value:
                        errors.append(
                            f"{store.name}: replica {replica} slot of {key!r} is not "
                            "the newest published version"
                        )
        # A serialization cycle is counted, not fatal: every committed
        # transaction on it is a failed op (README, "failed ops").
        cycle = find_cycle(coordinator.history)
        self.anomalies = len(cycle) if cycle else 0
        return errors

    def layer_stats(self):
        c, s = self.coordinator, self.stats
        return {
            "attempts": s.attempts,
            "committed": s.committed,
            "gave_up": s.gave_up,
            "aborts_ww": c.aborts_ww,
            "aborts_ssi": c.aborts_ssi,
            "aborts_phantom": c.aborts_phantom,
            "backoff_ns": s.backoff_ns,
        }


class TxnYcsbA(_TxnYcsb):
    name = "txn_ycsb_a"
    mix = "A"


class TxnYcsbE(_TxnYcsb):
    name = "txn_ycsb_e"
    mix = "E"
    base_ops = 1100


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (GwriteChain, NaiveTenancy, KvYcsbA, TxnYcsbA, TxnYcsbE)
}

__all__ = ["RUN_SECONDS", "WARMUP_SHARE", "WORKLOAD_CLASSES", "Workload"]
