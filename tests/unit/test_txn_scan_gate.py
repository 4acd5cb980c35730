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
from repro.txn import build_txn_system, run_ycsb_mix

N_CLIENTS = 4
TXNS_PER_CLIENT = 40

KERNEL_DISPATCHES = 50_301
CPU_DISPATCHES = 2_968
WQES_EXECUTED = 3_586

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


def _measure_ycsb_e():
    with tracing(record_kernel=False) as tracer:
        report = run_ycsb_mix(
            mix="E",
            seed=7,
            n_txns=N_CLIENTS * TXNS_PER_CLIENT,
            n_workers=N_CLIENTS,
            install="parallel",
        )
    counters = tracer.counters
    counts = (
        tracer.dispatches,
        counters["cpu.dispatches"],
        counters["nic.wqe_executed"],
    )
    return counts, counters, report


def test_ycsb_e_counts_repeat_and_match_the_pin():
    counts, counters, report = _measure_ycsb_e()
    assert counts == _measure_ycsb_e()[0]
    assert report.committed == N_CLIENTS * TXNS_PER_CLIENT
    assert report.gave_up == 0 and report.errors == []
    # Per-key round trips cost 72,691 / 5,057 / 4,969 here.
    assert counts == (KERNEL_DISPATCHES, CPU_DISPATCHES, WQES_EXECUTED)
    # 2,749 slots cross-checked by 1,364 READs in 1,341 batches: a
    # group's share of a scan is almost always one run of slots.
    assert counters["txn.scan_reads"] == 2_749
    assert counters["reader.wqes"] == 1_364
    assert counters["reader.batches"] == 1_341
