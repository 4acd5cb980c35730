"""Deterministic cost gate for the transactional path (ROADMAP 2c).

Counts, not clocks: a fixed seeded YCSB-A run must cost exactly the
same number of kernel dispatches and scheduler dispatches every time,
and exactly the pinned number per committed transaction. Anything that
manufactures events per wait — a sleep-poll on the commit latch cost
18,923 scheduler dispatches here instead of 4,700 — turns this red on
any host, without a timer.

A legitimate change to the kernel, NIC, group or txn layers moves the
pins; re-measure, and say in CHANGES.md what moved them.
"""

from repro.obs import tracing
from repro.txn import run_ycsb_mix

N_CLIENTS = 4
TXNS_PER_CLIENT = 40

KERNEL_DISPATCHES = 143_413
CPU_DISPATCHES = 4_700


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
    # 896.33 kernel / 29.4 scheduler dispatches per committed txn.
    assert (kernel, cpu) == (KERNEL_DISPATCHES, CPU_DISPATCHES)
