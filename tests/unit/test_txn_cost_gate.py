"""Deterministic cost gate for the transactional path (ROADMAP 2c).

Counts, not clocks: a fixed seeded YCSB-A run must cost exactly the
same number of kernel dispatches and scheduler dispatches every time,
and exactly the pinned number per committed transaction. Anything that
manufactures events per wait — a sleep-poll on the commit latch cost
18,923 scheduler dispatches here, one chain round trip per install
step 4,700, instead of 3,233 — turns this red on any host, without a
timer.

A legitimate change to the kernel, NIC, group or txn layers moves the
pins; re-measure, and say in CHANGES.md what moved them.
"""

import pytest

from repro.bench import run_until
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import Simulator
from repro.sim.events import AllOf
from repro.txn import build_txn_system, run_ycsb_mix

N_CLIENTS = 4
TXNS_PER_CLIENT = 40

KERNEL_DISPATCHES = 137_709
CPU_DISPATCHES = 3_233


def _measure():
    with tracing(record_kernel=False) as tracer:
        report = run_ycsb_mix(
            mix="A",
            seed=7,
            n_txns=N_CLIENTS * TXNS_PER_CLIENT,
            n_workers=N_CLIENTS,
            install="parallel",
        )
    return tracer.dispatches, tracer.counters["cpu.dispatches"], report


def test_ycsb_a_dispatch_counts_repeat_and_match_the_pin():
    kernel, cpu, report = _measure()
    assert (kernel, cpu) == _measure()[:2]
    assert report.committed == N_CLIENTS * TXNS_PER_CLIENT
    assert report.gave_up == 0 and report.errors == []
    # 860.68 kernel / 20.2 scheduler dispatches per committed txn.
    assert (kernel, cpu) == (KERNEL_DISPATCHES, CPU_DISPATCHES)


@pytest.mark.parametrize("n_keys", [1, 3, 12])
def test_uncontended_install_is_three_ack_waits_however_many_keys(n_keys):
    """One group's commit install waits for acks exactly three times:
    {record, header, lock gCAS} → {n × gMEMCPY} → {head advance,
    unlock gCAS}. A fourth wait is a chain round trip back on the
    critical path, under the global commit latch."""
    sim = Simulator(seed=7)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=1)
    store = coordinator.stores[0]
    items = [(f"k{index:02d}".encode(), b"v" * 24) for index in range(n_keys)]
    rounds = []
    finished = {}

    def body(task):
        wait = task.wait

        def counting_wait(event):
            if isinstance(event, AllOf):  # one all-of per batch of acks
                rounds.append(len(event.events))
            return wait(event)

        task.wait = counting_wait
        yield from store.install(task, items, commit_ts=1, txid=1)
        finished["at"] = sim.now

    cluster[0].os.spawn(body, "installer")
    run_until(sim, lambda: "at" in finished, deadline_ms=100)
    assert rounds == [3, n_keys, 2]
    assert store.manager.locks.conflicts == 0
    for key, _ in items:
        assert store.read_durable_offline(1, key)[2] == key
