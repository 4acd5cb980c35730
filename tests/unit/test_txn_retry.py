"""Retry-policy semantics: schedules, budgets, and the PR 7 control.

Three regression surfaces from the ISSUE:

* backoff schedules are a pure function of the plan seed — two
  policies built from the same named stream replay bit-for-bit, and
  two whole workload runs render identically;
* ``unavailable`` aborts respect the Available-Copies bounded-blocking
  budget *before* retrying — every attempt spends at least
  ``max_wait_ns`` of virtual time blocked, so retries cannot busy-spin
  a dead group;
* the no-retry control with sequential installs (the PR 7 code
  path) keeps its pinned seed-7 outcome: 24/29 committed, the
  aborts all ssi-pivot, no anomaly.
"""

import random

import pytest

from repro.bench import run_until
from repro.hw import Cluster
from repro.core import HyperLoopGroup
from repro.sim import MS, Simulator
from repro.storage.transactions import TransactionManager
from repro.txn import (
    AvailabilityTracker,
    ExponentialBackoff,
    ImmediateRetry,
    NoRetry,
    RetryStats,
    TxnCoordinator,
    VersionedGroupStore,
    make_policy,
    run_with_retries,
    run_txn_workload,
)
from repro.txn.retry import AVAILABILITY_REASONS, CONTENTION_REASONS


# -- policy unit semantics ----------------------------------------------------------


def test_no_retry_is_always_fatal():
    policy = NoRetry()
    for reason in ("ssi-pivot", "ww-conflict", "unavailable", "failover"):
        assert policy.next_delay_ns(1, reason) is None


def test_immediate_retries_contention_and_availability_until_cap():
    policy = ImmediateRetry(max_attempts=3)
    for reason in sorted(CONTENTION_REASONS | AVAILABILITY_REASONS):
        assert policy.next_delay_ns(1, reason) == 0
        assert policy.next_delay_ns(2, reason) == 0
        assert policy.next_delay_ns(3, reason) is None  # cap reached
    # Failover/epoch aborts are the harness's business, never retried.
    assert policy.next_delay_ns(1, "failover") is None
    assert policy.next_delay_ns(1, "stale-epoch") is None


def test_backoff_windows_and_flat_availability_delay():
    policy = ExponentialBackoff(
        random.Random("test"),
        base_ns=50_000,
        cap_ns=2 * MS,
        max_attempts=6,
        availability_delay_ns=77_000,
    )
    # Contention: equal jitter inside the exponential window, capped.
    for attempt in range(1, 6):
        window = min(2 * MS, 50_000 * (2 ** (attempt - 1)))
        for _ in range(20):
            delay = policy.next_delay_ns(attempt, "ssi-pivot")
            assert window // 2 <= delay <= window
    # Availability: the read already blocked its full budget; the
    # policy only spaces out re-probes with a flat delay.
    assert policy.next_delay_ns(1, "unavailable") == 77_000
    assert policy.next_delay_ns(5, "unavailable") == 77_000
    # Fatal reasons and the attempt cap.
    assert policy.next_delay_ns(1, "failover") is None
    assert policy.next_delay_ns(6, "ww-conflict") is None


def test_policy_constructor_validation():
    with pytest.raises(ValueError):
        ImmediateRetry(max_attempts=0)
    with pytest.raises(ValueError):
        ExponentialBackoff(random.Random(1), base_ns=0)
    with pytest.raises(ValueError):
        ExponentialBackoff(random.Random(1), base_ns=100, cap_ns=50)
    with pytest.raises(ValueError):
        make_policy("backoff")  # needs a seeded rng
    with pytest.raises(ValueError):
        make_policy("nope")
    assert make_policy("none").name == "none"
    assert make_policy("immediate").name == "immediate"
    assert make_policy("backoff", rng=random.Random(1)).name == "backoff"


# -- bit-for-bit schedule replay ----------------------------------------------------


def test_backoff_schedule_replays_from_the_plan_seed():
    """Same seed, same named stream => the identical delay sequence.

    ``sim.rng("txn-retry")`` is a pure function of the plan seed, so a
    policy's whole jitter schedule replays bit-for-bit — the property
    that makes retry-laden runs diffable in CI.
    """
    reasons = ["ssi-pivot", "ww-conflict", "ssi-pivot", "unavailable"] * 5

    def schedule(seed):
        policy = ExponentialBackoff(Simulator(seed=seed).rng("txn-retry"))
        return [
            policy.next_delay_ns(1 + index % 4, reason)
            for index, reason in enumerate(reasons)
        ]

    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(8)  # the seed actually matters


def test_backoff_workload_renders_identically_across_runs():
    first = run_txn_workload(seed=7, retry="backoff")
    second = run_txn_workload(seed=7, retry="backoff")
    assert first.render() == second.render()
    assert first.retry == "backoff"
    # Only the main mix goes through the policy (24 logical txns by
    # default); init and the write-skew pairs are policy-free.
    assert first.retry_attempts - first.retries == 24


# -- the PR 7 control ---------------------------------------------------------------


def test_no_retry_sequential_reproduces_pr7_numbers():
    """``retry="none", install="sequential"`` is the pre-PR-9 workload.

    The pinned seed-7 outcome: 24 of 29 committed, five ssi-pivot
    aborts (two from the write-skew pairs, three mix casualties), no
    ww-conflict, no anomaly. (PR 7 recorded 26/29 with three ssi-pivot
    aborts under the 2 us sleep-poll commit latch, PR 13 24/29 with
    three ssi-pivot and two ww-conflict aborts; the wake-on-release
    latch and then the three-wait install changed the simulated
    schedule, not the control's semantics.)
    """
    report = run_txn_workload(seed=7, retry="none", install="sequential")
    assert report.attempted == 29
    assert report.commits == 24
    assert report.aborts_ssi == 5
    assert report.aborts_ww == 0
    assert report.aborts_other == 0
    assert report.anomaly == "none"
    assert report.errors == []
    # The control drops aborted transactions: no retries, no backoff.
    assert report.retries == 0
    assert report.backoff_ms == 0.0


# -- the unavailable bounded-blocking budget ----------------------------------------


def _one_group_system(sim, cluster, tracker):
    group = HyperLoopGroup(
        cluster[0],
        cluster.hosts[1:4],
        region_size=1 << 14,
        rounds=16,
        name="rg0",
    )
    manager = TransactionManager(group, writer_id=1)
    store = VersionedGroupStore(manager, name="rs0")
    return TxnCoordinator(
        [store], tracker=tracker, name="retry-test", install="sequential"
    )


def _drive(sim, cluster, body, until_ms=20_000):
    done = {}

    def wrapper(task):
        done["r"] = yield from body(task)

    task = cluster[0].os.spawn(wrapper, "client")
    run_until(
        sim, lambda: "r" in done or task.process.triggered, deadline_ms=until_ms
    )
    if task.process.triggered and not task.process.ok:
        raise task.process.value
    return done["r"]


def test_unavailable_retries_respect_the_blocking_budget():
    """Each attempt blocks the full ``max_wait_ns`` before aborting.

    A paused group (mid-ChainRepair) serves nothing; the read path
    must wait out the whole Available-Copies budget per attempt, so an
    immediate-retry client still cannot probe faster than the budget
    allows — the spacing between attempts is bounded below by it.
    """
    sim = Simulator(seed=3)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    tracker = AvailabilityTracker(poll_ns=10_000, max_wait_ns=150_000)
    coordinator = _one_group_system(sim, cluster, tracker)
    key = b"budget"

    def init(task):
        txn = yield from coordinator.begin(task)
        coordinator.write(txn, key, b"v0")
        yield from coordinator.commit(task, txn)

    _drive(sim, cluster, init)

    # Pause the group as ChainRepair's phase hook would.
    tracker.on_repair_phase(0)("repair")
    starts = []

    def attempt(task):
        starts.append(sim.now)
        txn = yield from coordinator.begin(task)
        yield from coordinator.read(task, txn, key)
        yield from coordinator.commit(task, txn)

    stats = RetryStats()

    def body(task):
        return (
            yield from run_with_retries(
                task, ImmediateRetry(max_attempts=3), attempt, stats
            )
        )

    outcome, attempts, result = _drive(sim, cluster, body)
    finished = sim.now

    assert outcome == "aborted:unavailable"
    assert attempts == 3 and result is None
    assert stats.attempts == 3
    assert stats.retries == 2
    assert stats.gave_up == 1
    assert stats.by_reason == {"unavailable": 2}
    assert coordinator.aborts_unavailable == 3
    assert tracker.blocks == 3
    # The budget bounds the spacing: every attempt spent at least
    # max_wait_ns blocked before its abort let the next one start.
    assert len(starts) == 3
    for earlier, later in zip(starts, starts[1:]):
        assert later - earlier >= tracker.max_wait_ns
    assert finished - starts[-1] >= tracker.max_wait_ns

    # Un-pausing makes the same transaction commit.
    tracker.on_repair_phase(0)("repair-done")
    outcome, attempts, _ = _drive(
        sim,
        cluster,
        lambda task: run_with_retries(task, NoRetry(), attempt, None),
    )
    assert outcome == "committed" and attempts == 1
