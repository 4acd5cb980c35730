"""Deterministic cost gate for the transactional path (ROADMAP 2c).

Counts, not clocks: a fixed seeded YCSB-A run must cost exactly the
same number of kernel dispatches and scheduler dispatches every time,
and exactly the pinned number (``tests/pins.json``, ``txn-cost-gate``).
Anything that manufactures events per wait — a sleep-poll, a chain
round trip per install step — turns this red on any host, without a
timer.

The world must commit every transaction, or the pin would count a
give-up's retries: at seed 10 all 160 commit (``docs/perf-log.md``,
*Pin history*, has the seeds it ran before).

The same run's retries — attempts, aborts by reason, peer waits and
sleeps — are the ``txn-retry-split`` pin: the work a contended run
wastes, beside what it costs.

A legitimate change to the kernel, NIC, group or txn layers moves the
pins; re-measure with ``python -m tests.pins txn-cost-gate``, and say
in CHANGES.md what moved them.
"""

import pytest

from repro.bench import run_until
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import Simulator
from repro.sim.events import AllOf
from repro.txn import build_txn_system, run_ycsb_mix, ycsb
from tests.pins import assert_pinned

N_CLIENTS = 4
TXNS_PER_CLIENT = 40

SEED = 10


def _measure():
    with tracing(record_kernel=False) as tracer:
        report = run_ycsb_mix(
            mix="A",
            seed=SEED,
            n_txns=N_CLIENTS * TXNS_PER_CLIENT,
            n_workers=N_CLIENTS,
        )
    return tracer.dispatches, tracer.counters["cpu.dispatches"], report


def measure_ycsb_a():
    """The gate's own checks, then its pinned counts."""
    kernel, cpu, report = _measure()
    assert (kernel, cpu) == _measure()[:2]
    assert report.committed == N_CLIENTS * TXNS_PER_CLIENT
    assert report.gave_up == 0 and report.errors == []
    return {"kernel_dispatches": kernel, "cpu_dispatches": cpu}


def test_ycsb_a_dispatch_counts_repeat_and_match_the_pin():
    assert_pinned("txn-cost-gate", measure_ycsb_a())


def measure_retry_split():
    """The same run's wasted work: attempts, aborts by reason, and the
    retries that waited for a pending peer's publish or slept."""
    report = run_ycsb_mix(
        mix="A", seed=SEED, n_txns=N_CLIENTS * TXNS_PER_CLIENT, n_workers=N_CLIENTS
    )
    assert report.committed == N_CLIENTS * TXNS_PER_CLIENT
    assert report.gave_up == 0 and report.anomaly == "none"
    return {
        "attempts": report.attempts,
        "aborts_ww": report.aborts_ww,
        "aborts_ssi": report.aborts_ssi,
        "aborts_phantom": report.aborts_phantom,
        "peer_waits": report.peer_waits,
        "sleeps": report.retries - report.peer_waits,
    }


def test_ycsb_a_retry_split_matches_the_pin():
    assert_pinned("txn-retry-split", measure_retry_split())


@pytest.mark.parametrize("seed", range(1, 9))
def test_contended_ycsb_a_gives_up_nothing(seed):
    """A retry that waits for its peer still gets through: 160
    transactions on 48 keys, default backoff budget, none given up and
    no cycle."""
    report = run_ycsb_mix("A", seed=seed, n_txns=160)
    assert report.committed == 160 and report.gave_up == 0
    assert report.anomaly == "none" and report.errors == []


@pytest.mark.parametrize("n_keys", [1, 3, 12])
def test_uncontended_install_is_one_ack_wait_however_many_keys(n_keys):
    """One group's commit install waits for acks exactly once:
    {record, n × slot image gWRITE}, no group lock. The images ride the
    record's chain, which executes in post order, so none lands before
    the record. The head advance is owed, not waited for: the next
    install carries it ahead of its record, {head advance, record,
    n × image}. A second wait is a chain round trip back on the
    critical path of every commit queued on the group behind it, and a
    lock gCAS beside the record is an op more in its wait."""
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
        for commit_ts in (1, 2):
            staged = store.stage(items, commit_ts=commit_ts, txid=commit_ts)
            yield from (yield from store.post_install(task, [staged])).wait(task)
        finished["at"] = sim.now

    cluster[0].os.spawn(body, "installer")
    run_until(sim, lambda: "at" in finished, deadline_ms=100)
    assert rounds == [1 + n_keys, 2 + n_keys]
    for key, _ in items:
        assert store.read_durable_offline(1, key)[2] == key


def test_the_client_host_switches_at_most_once_per_worker_and_once_more():
    """Installs are written by the committers themselves, so no task
    is spawned on the commit path: a task started there pays a context
    switch and pushes a client off its core, which pays another when
    it resumes. The 160-transaction run's client host (4 cores, one
    worker each) makes at most ``n_workers + 1`` context switches."""
    clusters = []

    def cluster(*args, **kwargs):
        clusters.append(Cluster(*args, **kwargs))
        return clusters[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ycsb, "Cluster", cluster)
        report = run_ycsb_mix(
            mix="A", seed=SEED, n_txns=N_CLIENTS * TXNS_PER_CLIENT, n_workers=N_CLIENTS
        )
    assert report.committed == N_CLIENTS * TXNS_PER_CLIENT
    assert clusters[0][0].os.context_switches <= N_CLIENTS + 1
