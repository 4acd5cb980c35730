"""The commit latch is wake-on-release (repro.txn.coordinator).

``begin`` and ``commit`` park on one event while another commit holds
the latch; ``commit``'s unwind and ``reset_after_failover`` succeed
(and replace) that event. These tests pin what that buys and what it
must not break: parked waiters cost no kernel events however long the
holder takes, the latch is granted in arrival order, a failover reset
frees every waiter, a zombie's late unwind cannot release a
successor's latch, and no snapshot is ever taken under a held latch.
"""

import pytest

import repro.txn.coordinator as coordinator_module
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import US, Event, Simulator
from repro.txn import TxnAborted, build_txn_system

KEYS = [f"k{index}".encode() for index in range(8)]
VALUE = b"\x01" * 8


class World:
    """A two-group system with its keys seeded and one install that can
    be made slow: the stand-in for a commit whose chain round trips
    take ``hold`` (an int of ns, or an event that may never fire)."""

    def __init__(self, seed=23):
        self.sim = Simulator(seed=seed)
        self.cluster = Cluster(self.sim, n_hosts=4, n_cores=8)
        self.coordinator = build_txn_system(self.sim, self.cluster, n_groups=2)
        self.holds = {}  # txid -> ns or Event
        for store in self.coordinator.stores:
            store.install = self._slow(store.install)
        self.run(self.spawn(self._seed))

    def _slow(self, install):
        def wrapper(task, items, commit_ts, txid):
            hold = self.holds.pop(txid, None)
            if isinstance(hold, Event):
                yield from task.wait(hold)
            elif hold:
                yield from task.sleep(hold)
            yield from install(task, items, commit_ts, txid)

        return wrapper

    def _seed(self, task):
        txn = yield from self.coordinator.begin(task)
        for key in KEYS:
            self.coordinator.write(txn, key, VALUE)
        yield from self.coordinator.commit(task, txn)

    def spawn(self, body, name="client"):
        return self.cluster[0].os.spawn(body, name=name)

    def run(self, *tasks, for_ns=5_000 * US):
        self.sim.run(until=self.sim.now + for_ns)
        for task in tasks:
            assert task.process.triggered, f"{task.name} still parked"
            if not task.process.ok:
                raise task.process.value

    def writer(self, key, log, hold=None, delay=0):
        """Task body: begin, write ``key``, wait ``delay``, commit."""
        coordinator = self.coordinator

        def body(task):
            txn = yield from coordinator.begin(task)
            coordinator.write(txn, key, VALUE)
            if hold is not None:
                self.holds[txn.txid] = hold
            yield from task.sleep(delay)
            log.append(("arrive", txn.txid))
            try:
                commit_ts = yield from coordinator.commit(task, txn)
            except TxnAborted as exc:
                log.append(("abort", txn.txid, exc.reason))
            else:
                log.append(("commit", txn.txid, commit_ts))

        return body

    def beginner(self, log, delay):
        def body(task):
            yield from task.sleep(delay)
            txn = yield from self.coordinator.begin(task)
            log.append(("begun", txn.txid, txn.epoch))

        return body


def _dispatches_while_held(hold_ns, n_committers, n_beginners):
    """Kernel dispatches between "everyone parked" and "just before the
    holder releases". The replicas' maintenance tasks tick throughout,
    so the figure is only meaningful against a run with no waiters."""
    with tracing(record_kernel=False) as tracer:
        world = World()
        log = []
        tasks = [world.spawn(world.writer(KEYS[0], log, hold=hold_ns), "holder")]
        for index in range(n_committers):
            tasks.append(
                world.spawn(
                    world.writer(KEYS[1 + index], log, delay=(5 + index) * US),
                    f"committer{index}",
                )
            )
        for index in range(n_beginners):
            tasks.append(
                world.spawn(world.beginner(log, (10 + index) * US), f"begin{index}")
            )
        start = world.sim.now
        world.sim.run(until=start + 50 * US)
        assert world.coordinator._committing is not None
        assert log == [("arrive", 2 + index) for index in range(1 + n_committers)]
        parked = tracer.dispatches
        world.sim.run(until=start + hold_ns - 1 * US)
        assert world.coordinator._committing is not None
        before_release = tracer.dispatches
        world.run(*tasks)
        assert sum(entry[0] == "commit" for entry in log) == 1 + n_committers
        assert sum(entry[0] == "begun" for entry in log) == n_beginners
    return before_release - parked


@pytest.mark.parametrize("hold_us", [100, 1_000])
def test_parked_waiters_cost_no_kernel_events(hold_us):
    # Fails under a sleep-poll latch, where five waiters add one
    # timeout + wake + dispatch each per poll interval of the hold.
    alone = _dispatches_while_held(hold_us * US, 0, 0)
    crowded = _dispatches_while_held(hold_us * US, 3, 2)
    assert crowded == alone


def _contended_run():
    world = World()
    log = []
    tasks = [world.spawn(world.writer(KEYS[0], log, hold=200 * US), "holder")]
    for index in range(3):
        tasks.append(
            world.spawn(
                world.writer(KEYS[1 + index], log, delay=(5 + 3 * index) * US),
                f"committer{index}",
            )
        )
    world.run(*tasks)
    arrivals = [entry[1] for entry in log if entry[0] == "arrive"]
    history = [(txn.txid, txn.commit_ts) for txn in world.coordinator.history]
    return arrivals, history


def test_latch_is_granted_in_arrival_order_and_replays():
    arrivals, history = _contended_run()
    # history[0] is the seeding transaction.
    assert [txid for txid, _ in history[1:]] == arrivals
    assert [ts for _, ts in history] == sorted(ts for _, ts in history)
    assert _contended_run() == (arrivals, history)


def test_failover_reset_frees_every_parked_waiter():
    world = World()
    coordinator = world.coordinator
    log = []
    never_acked = Event(world.sim, "dead-chain-ack")
    zombie = world.spawn(world.writer(KEYS[0], log, hold=never_acked), "zombie")
    committers = [
        world.spawn(world.writer(KEYS[1 + index], log, delay=(5 + index) * US))
        for index in range(2)
    ]
    beginners = [
        world.spawn(world.beginner(log, (10 + index) * US)) for index in range(2)
    ]
    world.sim.run(until=world.sim.now + 100 * US)
    zombie_txid = coordinator._committing
    assert zombie_txid is not None
    assert not any(task.process.triggered for task in committers + beginners)

    def reset(task):
        yield from coordinator.reset_after_failover(
            task, 0, coordinator.stores[0].group
        )

    world.run(world.spawn(reset, "repair"), *committers, *beginners)
    assert coordinator._committing is None
    aborts = [entry for entry in log if entry[0] == "abort"]
    assert len(aborts) == 2
    assert {entry[2] for entry in aborts} <= {"failover", "stale-epoch"}
    begun = [entry for entry in log if entry[0] == "begun"]
    assert len(begun) == 2 and all(entry[2] == coordinator.epoch == 1 for entry in begun)

    # A successor takes the latch; the zombie's unwind (its generator
    # closed while still parked on the dead ack) must leave it alone.
    successor = world.spawn(world.writer(KEYS[3], log, hold=300 * US), "successor")
    world.sim.run(until=world.sim.now + 100 * US)
    held = coordinator._committing
    assert held is not None and held != zombie_txid
    assert not zombie.process.triggered
    zombie.process.generator.close()
    assert coordinator._committing == held
    world.run(successor)
    assert log[-1][:2] == ("commit", held)
    assert coordinator._committing is None


def test_no_snapshot_is_taken_under_a_held_latch(monkeypatch):
    world = World()
    coordinator = world.coordinator
    created = []
    original = coordinator_module.Transaction

    def checked_transaction(**fields):
        created.append((fields["txid"], coordinator._committing))
        return original(**fields)

    monkeypatch.setattr(coordinator_module, "Transaction", checked_transaction)
    log = []

    def client(index):
        def body(task):
            for round_ in range(6):
                key = KEYS[(index + round_) % 3]  # contended on purpose
                yield from world.writer(key, log)(task)

        return body

    tasks = [world.spawn(client(index), f"client{index}") for index in range(4)]
    world.run(*tasks, for_ns=50_000 * US)
    assert len(created) == 24
    assert all(holder is None for _, holder in created)
    assert sum(entry[0] == "commit" for entry in log) >= 4
