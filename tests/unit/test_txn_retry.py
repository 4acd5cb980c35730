"""Retry-policy semantics: schedules, budgets, peer waits and the no-retry control.

Four regression surfaces:

* backoff schedules are a pure function of the plan seed — two
  policies built from the same named stream replay bit-for-bit, and
  two whole workload runs render identically;
* ``unavailable`` aborts respect the Available-Copies bounded-blocking
  budget *before* retrying — every attempt spends at least
  ``max_wait_ns`` of virtual time blocked, so retries cannot busy-spin
  a dead group;
* the no-retry control keeps its pinned seed-7 outcome: 27/29
  committed, two ssi-pivot aborts, no ww-conflict, no anomaly;
* a backoff retry whose abort names a pending peer waits for that
  peer's publish (or its failed install, or a failover reset) and
  begins again in that nanosecond, drawing nothing from its stream.
"""

import random
from functools import partial

import pytest

from repro.bench import run_until
from repro.hw import Cluster
from repro.core import HyperLoopGroup
from repro.sim import MS, Event, Simulator
from repro.txn import (
    AvailabilityTracker,
    ExponentialBackoff,
    ImmediateRetry,
    NoRetry,
    RetryStats,
    TxnAborted,
    TxnCoordinator,
    VersionedGroupStore,
    build_txn_system,
    make_policy,
    run_with_retries,
    run_txn_workload,
)
from repro.txn.retry import AVAILABILITY_REASONS, CONTENTION_REASONS
from repro.txn.ssi import find_cycle
from repro.txn.workload import bump_counter, run_txn


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


# -- the no-retry control -----------------------------------------------------------


def test_no_retry_sequential_control_keeps_its_seed_7_numbers():
    """``retry="none"``: no retries. (The control used to install one
    group at a time; with concurrent multi-group installs it reads the
    same seed-7 numbers.)

    The pinned seed-7 outcome: 27 of 29 committed, two ssi-pivot
    aborts (the write-skew pairs') and no ww-conflict, no anomaly.
    (The first version of this workload recorded 26/29 with three
    ssi-pivot aborts under the 2 us sleep-poll commit latch; the
    wake-on-release latch, the three-wait install, reads spread over
    every eligible replica, reads of one replica overlapping in lanes,
    acks waking their waiter directly (23/29 before), committed
    transactions staying probed by the SSI rules (24/29, five
    ssi-pivot), commits without the global latch (27/29, two
    ssi-pivot), installs without the group lock (26/29, three
    ssi-pivot) and installs that owe their head advance to the next
    post each moved the simulated schedule, not the control's
    semantics.)
    """
    report = run_txn_workload(seed=7, retry="none")
    assert report.attempted == 29
    assert report.commits == 27
    assert report.aborts_ssi == 2
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
    store = VersionedGroupStore(group, name="rs0")
    return TxnCoordinator([store], tracker=tracker, name="retry-test")


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


# -- a retry waits for the commit it lost to ----------------------------------------

HOT = b"hot"


def _ww_race(policy, patch_install=None, beside=None, published_first=False):
    """Loser L and winner W of one key. L begins, W begins 100 ns
    later, writes the key and commits; 1 us after its begin L writes
    the key and commits, and loses (``ww-conflict``) to W, which is
    still installing — or, with ``published_first``, L commits only
    once W has published. ``patch_install(store)`` may replace W's
    install; ``beside(task, seen)`` runs on a task of its own. Returns
    what the run saw."""
    sim = Simulator(seed=5)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=1)
    if patch_install is not None:
        patch_install(coordinator.stores[0])
    seen = {"starts": [], "coordinator": coordinator, "sim": sim}
    stats = seen["stats"] = RetryStats()

    def attempt(task):
        seen["starts"].append(sim.now)
        txn = yield from coordinator.begin(task)
        coordinator.write(txn, HOT, b"L")
        if len(seen["starts"]) == 1:
            yield from task.sleep(1_000)
            winner = seen["winner"]
            if published_first:
                while winner.status == "active":
                    yield from task.sleep(1_000)
            else:
                assert winner.txid in coordinator.certifier.pending  # installing
                coordinator._done[winner.txid].add_callback(
                    lambda _: seen.setdefault("released", sim.now)
                )
        try:
            yield from coordinator.commit(task, txn)
        except TxnAborted as exc:
            seen.setdefault("aborted", sim.now)
            seen.setdefault("exc", exc)
            raise

    def loser(task):
        seen["outcome"] = yield from run_with_retries(task, policy, attempt, stats)

    def winner(task):
        yield from task.sleep(100)
        txn = seen["winner"] = yield from coordinator.begin(task)
        coordinator.write(txn, HOT, b"W")
        try:
            yield from coordinator.commit(task, txn)
        except Exception as exc:  # a failed install or a reset
            seen["winner_error"] = exc

    tasks = [cluster[0].os.spawn(loser, "loser"), cluster[0].os.spawn(winner, "winner")]
    if beside is not None:
        tasks.append(cluster[0].os.spawn(lambda task: beside(task, seen), "beside"))
    run_until(sim, lambda: "outcome" in seen or _died(tasks), deadline_ms=100)
    _died(tasks)
    return seen


def _died(tasks):
    for task in tasks:
        if task.process.triggered and not task.process.ok:
            raise task.process.value
    return False


def test_a_ww_loser_begins_again_in_the_nanosecond_its_winner_publishes():
    rng = random.Random("peer-wait")
    state = rng.getstate()
    seen = _ww_race(ExponentialBackoff(rng))
    exc, stats = seen["exc"], seen["stats"]
    assert exc.reason == "ww-conflict"
    assert exc.peers == (seen["winner"].txid,)
    assert seen["winner"].status == "committed"
    assert seen["outcome"] == ("committed", 2, None)
    # No sleep and no jitter draw: the second attempt begins when the
    # winner's publish event fires.
    assert seen["starts"][1] == seen["released"] > seen["aborted"]
    assert rng.getstate() == state
    assert stats.peer_waits == 1 and stats.retries == 1
    assert stats.backoff_ns == seen["released"] - seen["aborted"]


def _failing_install(store, after_ns=3_000):
    """The store's next install fails ``after_ns`` after it is posted,
    having written nothing."""
    real = store.post_install

    def post_install(task, batches):
        store.post_install = real  # the next install goes through
        yield from task.sleep(after_ns)
        raise RuntimeError("chain down")

    store.post_install = post_install


def test_the_winners_failed_install_wakes_the_loser():
    seen = _ww_race(ExponentialBackoff(random.Random(1)), patch_install=_failing_install)
    assert isinstance(seen["winner_error"], RuntimeError)
    assert seen["winner"].abort_reason == "install-failed"
    assert seen["outcome"] == ("committed", 2, None)
    assert seen["starts"][1] == seen["released"]
    assert seen["stats"].peer_waits == 1


def test_a_failover_reset_wakes_the_loser():
    def resetter(task, seen):
        coordinator = seen["coordinator"]
        while "aborted" not in seen:
            yield from task.sleep(100)
        assert seen["winner"].txid in coordinator.certifier.pending
        seen["reset_at"] = seen["sim"].now
        yield from coordinator.reset_after_failover(task, 0, coordinator.stores[0].group)

    # The winner's install is out for 20 us: the reset lands first.
    seen = _ww_race(
        ExponentialBackoff(random.Random(1)),
        patch_install=partial(_failing_install, after_ns=20_000),
        beside=resetter,
    )
    assert seen["winner"].abort_reason == "failover"
    assert seen["outcome"] == ("committed", 2, None)
    assert seen["starts"][1] == seen["released"] == seen["reset_at"]
    assert seen["stats"].peer_waits == 1


def test_with_no_pending_peer_the_backoff_schedule_is_todays():
    """The winner has published when the loser commits: the loser
    sleeps the jittered delay, drawn from the same stream as before."""
    seen = _ww_race(ExponentialBackoff(random.Random("same")), published_first=True)
    exc, stats = seen["exc"], seen["stats"]
    assert exc.reason == "ww-conflict" and exc.peers == (seen["winner"].txid,)
    assert exc.after is None
    delay = ExponentialBackoff(random.Random("same")).next_delay_ns(1, "ww-conflict")
    assert seen["starts"][1] - seen["aborted"] == delay
    assert stats.backoff_ns == delay and stats.peer_waits == 0


def test_none_and_immediate_never_wait_for_a_peer():
    seen = _ww_race(NoRetry())
    assert seen["exc"].after is not None  # the peer was pending
    assert seen["outcome"] == ("aborted:ww-conflict", 1, None)
    assert seen["stats"].retries == 0 and seen["stats"].backoff_ns == 0
    seen = _ww_race(ImmediateRetry())
    assert seen["outcome"] == ("committed", 2, None)
    assert seen["starts"][1] == seen["aborted"]  # at once, the peer still pending
    assert seen["stats"].peer_waits == 0 and seen["stats"].backoff_ns == 0
    for policy in (NoRetry(), ImmediateRetry()):
        assert policy.peer_wait(seen["exc"]) is None


def test_eight_clients_on_one_hot_key_give_up_nothing():
    """Read-modify-write of one counter from 8 clients on 4 cores, 5
    transactions each, default backoff: every one commits, in one
    serial order."""
    sim = Simulator(seed=8)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=1)
    policy = make_policy("backoff", rng=sim.rng("txn-retry"))
    stats = RetryStats()
    finished = []

    def client(task):
        for _ in range(5):
            attempt = partial(
                run_txn, coordinator=coordinator, steps=[("read", HOT), ("bump", HOT, bump_counter)]
            )
            yield from run_with_retries(task, policy, attempt, stats)
        finished.append(task.name)

    for index in range(8):
        cluster[0].os.spawn(client, f"hot.c{index}")
    run_until(sim, lambda: len(finished) == 8, deadline_ms=1_000)
    assert stats.gave_up == 0 and stats.committed == 40
    assert stats.retries > 0 and stats.peer_waits > 0
    assert find_cycle(coordinator.history) is None
    latest = coordinator.stores[0].latest(HOT)
    assert int.from_bytes(latest.value, "little") == 40


def test_an_attempt_a_peer_wait_followed_is_not_held_against_the_budget():
    """With ``max_attempts=2``: a first abort waits for its peer, a
    second one finds none and sleeps the first window's delay, and the
    third attempt commits."""
    sim = Simulator(seed=1)
    cluster = Cluster(sim, n_hosts=2, n_cores=2)
    peer = Event(sim, "peer.publish")
    waited = TxnAborted(1, "ww-conflict", peers=(9,))
    waited.after = peer
    aborts = iter([waited, TxnAborted(2, "ssi-pivot", peers=(9,))])
    starts = []

    def attempt(task):
        starts.append(sim.now)
        exc = next(aborts, None)
        if exc is not None:
            raise exc
        return "done"
        yield

    def publisher(task):
        yield from task.sleep(5_000)
        starts.append(("published", sim.now))
        peer.succeed()

    cluster[0].os.spawn(publisher, "publisher")
    stats = RetryStats()
    policy = ExponentialBackoff(random.Random(2), max_attempts=2)
    outcome = _drive(sim, cluster, lambda task: run_with_retries(task, policy, attempt, stats))
    assert outcome == ("committed", 3, "done")
    delay = ExponentialBackoff(random.Random(2)).next_delay_ns(1, "ssi-pivot")
    first, (_, published), second, third = starts
    assert second == published > first and third - second == delay
    assert stats.peer_waits == 1 and stats.backoff_ns == published - first + delay
