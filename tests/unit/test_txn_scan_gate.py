"""Deterministic cost gate for snapshot scans (ROADMAP 2, read side).

Counts, not clocks, in the style of ``test_txn_cost_gate.py``: a scan's
durable cross-checks go out as one READ batch per group — a run of
adjacent slots is a single READ — and the groups' round trips overlap,
so a 12-key scan over 4 groups costs 4 READ WQEs, 4 doorbells and one
round trip of simulated time. One round trip per key (12 WQEs,
12 doorbells, 24 deliveries, 44,284 sim ns on this world) turns this
red on any host, without a timer. A one-key scan and a ``read`` are the
one-extent case of the same code and must stay exactly one WQE, one
doorbell, one wait: that is what keeps every transaction that does not
scan on its old schedule (``test_txn_cost_gate.py`` is the proof at
workload size).

A legitimate change to the kernel, NIC, reader or txn layers moves the
pins; re-measure, and say in CHANGES.md what moved them.
"""

import pytest

from repro.bench import run_until
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import Simulator
from repro.txn import build_txn_system, run_ycsb_mix, ycsb

N_CLIENTS = 4
TXNS_PER_CLIENT = 40

# 49,427 / 2,373 / 3,635 while every WAL append also wrote a tail header;
# 46,186 / 2,373 / 3,305 while a completion thread woke each ack's waiter;
# 44,967 / 2,224 / 3,254 before committed transactions stayed probed by
# the SSI rules; 45,194 / 2,239 / 3,266 while one global latch
# serialized every commit from validation to publish; 44,924 / 2,199 /
# 3,246 while every install took the group lock; 39,459 / 2,199 / 2,798
# while every install waited for its head advance; 38,836 / 2,156 /
# 2,757 while replicas re-armed their rings only on the 200 us tick;
# 39,127 / 2,231 / 2,757 while every install waited a second time, for
# its gMEMCPYs (the 41 WQEs fewer are all READs: an image gWRITE costs
# what a gMEMCPY did).
KERNEL_DISPATCHES = 37_750
CPU_DISPATCHES = 2_163
WQES_EXECUTED = 2_716
# Reads routed to each replica of each group: concurrent scans spread
# over every copy, and replica 0 (the idle choice) serves most.
# Group 1 was [211, 110, 56] with a tail header behind every append;
# all four were [[172, 111, 64], [210, 110, 57], [146, 72, 26],
# [208, 114, 60]] while a completion thread woke each ack's waiter, and
# [[165, 104, 72], [214, 106, 55], [154, 65, 22], [202, 118, 57]] before
# committed transactions stayed probed by the SSI rules, and [[165, 108,
# 74], [202, 119, 56], [152, 63, 26], [201, 112, 64]] under the global
# commit latch, and [[201, 100, 46], [228, 101, 47], [172, 60, 17],
# [226, 110, 48]] while every install took the group lock, and [[191,
# 111, 45], [222, 116, 37], [171, 70, 8], [213, 122, 49]] while every
# install waited for its head advance, and [[195, 106, 53], [207, 114,
# 52], [156, 67, 17], [201, 118, 55]] while every install waited a
# second time, for its gMEMCPYs.
SERVED = [[159, 114, 73], [172, 124, 75], [139, 82, 25], [168, 125, 77]]

ONE_READ_NS = 4_757


def _idle_world_op(op):
    """Cost of one read-side call on an idle 4-group world holding
    ``y0000``–``y0047``: (sim ns, counter deltas, result)."""
    out = {}
    with tracing(record_kernel=False) as tracer:
        sim = Simulator(seed=7)
        cluster = Cluster(sim, n_hosts=4, n_cores=4)
        coordinator = build_txn_system(sim, cluster, n_groups=4)

        def body(task):
            txn = yield from coordinator.begin(task)
            for index in range(48):
                coordinator.write(txn, b"y%04d" % index, b"v%04d" % index * 3)
            yield from coordinator.commit(task, txn)
            yield from task.sleep(100_000)
            txn = yield from coordinator.begin(task)
            before = dict(tracer.counters)
            started = sim.now
            out["result"] = yield from op(coordinator, task, txn)
            out["ns"] = sim.now - started
            out["delta"] = {
                name: count - before.get(name, 0)
                for name, count in tracer.counters.items()
            }

        task = cluster[0].os.spawn(body, "client")
        run_until(sim, lambda: task.process.triggered, deadline_ms=100)
        assert task.process.ok, task.process.value
    delta = out["delta"]
    counts = (
        delta["nic.wqe_executed"],
        delta["nic.doorbells"],
        delta["fabric.deliveries"],
    )
    return out["ns"], counts, out["result"]


def test_twelve_key_scan_is_one_read_batch_per_group_overlapped():
    ns, counts, rows = _idle_world_op(
        lambda coordinator, task, txn: coordinator.scan(task, txn, b"y0010", 12)
    )
    assert [key for key, _ in rows] == [b"y%04d" % index for index in range(10, 22)]
    assert counts == (4, 4, 8)
    assert ns < 8_000  # one round trip and change, not twelve


@pytest.mark.parametrize(
    "op",
    [
        lambda coordinator, task, txn: coordinator.scan(task, txn, b"y0010", 1),
        lambda coordinator, task, txn: coordinator.read(task, txn, b"y0010"),
    ],
    ids=["scan-1", "read"],
)
def test_one_key_is_exactly_one_read_round_trip(op):
    ns, counts, _ = _idle_world_op(op)
    assert counts == (1, 1, 2)
    assert ns == ONE_READ_NS


def _measure_ycsb_e(monkeypatch):
    built = []

    def build(*args, **kwargs):
        built.append(build_txn_system(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ycsb, "build_txn_system", build)
    with tracing(record_kernel=False) as tracer:
        report = run_ycsb_mix(
            mix="E",
            seed=7,
            n_txns=N_CLIENTS * TXNS_PER_CLIENT,
            n_workers=N_CLIENTS,
        )
    counters = tracer.counters
    counts = (
        tracer.dispatches,
        counters["cpu.dispatches"],
        counters["nic.wqe_executed"],
    )
    return counts, counters, report, built[0]


def test_ycsb_e_counts_repeat_and_match_the_pin(monkeypatch):
    counts, counters, report, coordinator = _measure_ycsb_e(monkeypatch)
    assert counts == _measure_ycsb_e(monkeypatch)[0]
    assert report.committed == N_CLIENTS * TXNS_PER_CLIENT
    assert report.gave_up == 0 and report.errors == []
    # Per-key round trips cost 72,691 / 5,057 / 4,969 here.
    assert counts == (KERNEL_DISPATCHES, CPU_DISPATCHES, WQES_EXECUTED)
    # 2,724 slots cross-checked by 1,346 READs in 1,333 batches: a
    # group's share of a scan is almost always one run of slots
    # (2,763 / 1,413 / 1,350 while a completion thread woke each
    # ack's waiter, 2,725 / 1,362 / 1,334 before the SSI rules kept
    # committed transactions probed, 2,733 / 1,374 / 1,342 under the
    # global commit latch, 2,769 / 1,388 / 1,356 while every install
    # took the group lock, 2,765 / 1,388 / 1,355 while every install
    # waited for its head advance, 2,747 / 1,387 / 1,341 while every
    # install waited a second time, for its gMEMCPYs).
    assert counters["txn.scan_reads"] == 2_724
    assert counters["reader.wqes"] == 1_346
    assert counters["reader.batches"] == 1_333
    tracker = coordinator.tracker
    assert tracker.served == SERVED
    assert all(count > 0 for group in tracker.served for count in group)
    assert tracker.failovers == 0
    # Mid-chain and tail copies served reads, and none was behind the
    # snapshot: the Available-Copies property those reads rely on.
    assert coordinator.stale_reads == []
    assert coordinator.read_violations == []
