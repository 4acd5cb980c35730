"""Transaction bookkeeping is bounded by live state.

Two contended 4-client worlds shaped like the end-to-end benchmark's
transactional workloads — YCSB-A (three reads and updates a
transaction over 48 Zipfian keys on 4 groups) and YCSB-E (scans of up
to 12 keys, and inserts) — run N and 20N transactions. What the
coordinator and the client host keep must not grow with the run:

* the SSI graph holds, after every coordinator call, only live
  transactions and committed ones concurrent with a live one — commit
  after the oldest live snapshot — and nothing at rest;
* no commit is pending, no install queued or in flight, and no
  committer parked for a wake or a hand-off at rest;
* the client host's task list is as long after 20N transactions as
  after N;
* no read was served from a stale copy.

On the uncontended two-client world of ``test_hot_path_budget.py``, a
committed transaction retains at most 700 bytes of heap: its history
record and its two versions.
"""

import gc
import tracemalloc
from dataclasses import replace
from itertools import islice

import pytest

from repro.bench import run_until
from repro.hw import Cluster
from repro.hw.wqe import _DECODE_CACHE, _DECODE_CACHE_MAX
from repro.sim import MS, Simulator
from repro.txn import TxnAborted, build_txn_system
from repro.workloads.ycsb import WORKLOADS, YcsbWorkload
from tests.unit.test_hot_path_budget import TxnWorld

N = 15
CLIENTS = 4
OPS_PER_TXN = 3
KEYS = 48


def graph_nodes(coordinator):
    graph = coordinator.certifier.graph
    return graph._in.keys() | graph._out.keys()


class BoundedWorld:
    """A YCSB-shaped transactional world whose clients check the graph
    bound after every coordinator call."""

    def __init__(self, mix, n_txns, seed=3):
        self.sim = Simulator(seed=seed)
        self.cluster = Cluster(self.sim, n_hosts=4, n_cores=4)
        self.coordinator = build_txn_system(
            self.sim, self.cluster, n_groups=4, region_size=1 << 16, name="b"
        )
        workload = YcsbWorkload(
            replace(WORKLOADS[mix], max_scan_length=12),
            record_count=KEYS, value_size=16, seed=seed,
        )
        stream = workload.operations(OPS_PER_TXN * n_txns)
        self.plan = [list(islice(stream, OPS_PER_TXN)) for _ in range(n_txns)]
        self.commit_ts = {}  # txid -> commit_ts, from the history
        self.checks = self.peak_retained = self.peak_queued = 0

    @staticmethod
    def key(index):
        return b"y%04d" % index

    def check_graph(self):
        coordinator = self.coordinator
        for txn in coordinator.history[len(self.commit_ts):]:
            self.commit_ts[txn.txid] = txn.commit_ts
        live = coordinator.certifier.active
        watermark = min(txn.snapshot_ts for txn in live.values()) if live else None
        retained = graph_nodes(coordinator) - live.keys()
        for txid in retained:
            assert txid in self.commit_ts, f"T{txid}: neither live nor committed"
            assert watermark is not None and self.commit_ts[txid] > watermark, (
                f"T{txid} (commit {self.commit_ts[txid]}) kept past watermark {watermark}"
            )
        self.checks += 1
        self.peak_retained = max(self.peak_retained, len(retained))
        # Parked committers, and each group's queued installs: each a
        # live commit.
        queued = max(len(queue.staged) for queue in coordinator._queues)
        self.peak_queued = max(self.peak_queued, len(coordinator._wakes), queued)

    def run(self):
        coordinator = self.coordinator

        def load(task):
            txn = yield from coordinator.begin(task)
            for index in range(KEYS):
                coordinator.write(txn, self.key(index), b"load%012d" % index)
            yield from coordinator.commit(task, txn)

        self._drive([self.cluster[0].os.spawn(load, "load")])
        cursor = iter(range(len(self.plan)))

        def client(task):
            for index in cursor:
                txn = yield from coordinator.begin(task)
                self.check_graph()
                try:
                    for op in self.plan[index]:
                        key = self.key(op.key)
                        value = b"t%015d" % index
                        if op.kind == "read":
                            yield from coordinator.read(task, txn, key)
                        elif op.kind == "update":
                            coordinator.write(txn, key, value)
                        elif op.kind == "insert":
                            coordinator.insert(txn, key, value)
                        else:
                            yield from coordinator.scan(task, txn, key, op.scan_length)
                        self.check_graph()
                    yield from coordinator.commit(task, txn)
                except TxnAborted:
                    pass
                self.check_graph()

        self._drive([
            self.cluster[0].os.spawn(client, f"c{index}") for index in range(CLIENTS)
        ])
        return self

    def _drive(self, tasks):
        run_until(
            self.sim, lambda: all(t.process.triggered for t in tasks), deadline_ms=60_000
        )
        assert all(task.process.ok for task in tasks)

    def tasks(self):
        return sum(len(host.os.tasks) for host in self.cluster.hosts)


@pytest.mark.parametrize("mix", ["A", "E"])
def test_state_is_flat_from_n_to_20n_transactions(mix):
    short = BoundedWorld(mix, N).run()
    long = BoundedWorld(mix, 20 * N).run()
    for world in (short, long):
        coordinator = world.coordinator
        assert not coordinator.certifier.active
        assert len(coordinator.certifier.graph) == 0  # nothing at rest
        assert coordinator.certifier._retiring == []
        assert coordinator.certifier.pending == {}
        assert not any(queue.flight or queue.staged for queue in coordinator._queues)
        assert coordinator._wakes == {} and coordinator._done == {}
        assert coordinator.stale_reads == []
        assert coordinator.read_violations == []
    # Committed transactions did wait in the graph for live peers, and
    # the bound was checked all along.
    assert long.peak_retained > 0
    assert long.checks > 20 * N * (OPS_PER_TXN + 1)
    if mix == "A":
        coordinator = long.coordinator
        assert coordinator.aborts_ww > 0 and coordinator.aborts_ssi > 0
    # The wake map and each install queue never held more than one
    # entry per client, however long the run.
    assert 0 < short.peak_queued <= long.peak_queued <= CLIENTS
    # Finished clients have left the client host.
    assert short.tasks() == long.tasks()


def test_a_committed_transaction_retains_at_most_700_bytes():
    """Heap the package allocates per transaction and keeps: the
    history record and two versions (~670 bytes). Before, observations,
    SSI nodes and finished install tasks made it ~2,200. Counted as the
    slope between two points of one traced run, so what is merely in
    flight at a snapshot cancels; the client's own keys and values
    (~160 bytes, referenced by history and versions) are left out.

    The WQE decode cache is process-wide and bounded on its own: it
    is emptied before each snapshot, so neither its entries nor the
    slot bytes that key them count, whatever earlier tests left in it
    (it refills to its cap and starts over every few thousand
    distinct descriptors).

    Each snapshot is taken at rest: the world runs 1 sim ms past its
    last op, so every install has finished and the replicas'
    maintenance task has drained their completion queues. Otherwise
    what is in flight at a snapshot depends on where it falls in that
    period, not on what a transaction keeps."""
    world = TxnWorld().start()
    n_ops = 100

    def settle():
        world.sim.run(until=world.sim.now + 1 * MS)
        _DECODE_CACHE.clear()
        gc.collect()

    package = [
        tracemalloc.Filter(True, "*/repro/*"),
        tracemalloc.Filter(False, "*/repro/hw/wqe.py"),
    ]
    gc.collect()
    tracemalloc.start()
    try:
        world.run(20)
        settle()
        done = world.done
        before = tracemalloc.take_snapshot().filter_traces(package)
        world.run(n_ops)
        assert len(_DECODE_CACHE) <= _DECODE_CACHE_MAX
        settle()
        assert world.done - done == n_ops
        after = tracemalloc.take_snapshot().filter_traces(package)
    finally:
        tracemalloc.stop()
    stats = after.compare_to(before, "lineno")
    retained = sum(stat.size_diff for stat in stats)
    assert retained / n_ops <= 700, [str(stat) for stat in stats[:6]]
