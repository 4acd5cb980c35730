"""The commit path without a global latch (repro.txn.coordinator).

Validation is the one atomic step; a validated commit is *pending*
until it publishes, its installs queue per group and go out in
batches, and it publishes in commit order. These tests pin what only
conflicting work may wait for: ``begin`` never parks, a read parks
only on an earlier pending writer of its key, commits queued on one
group ride one ``transact``, commits on disjoint groups overlap, and a
failover reset releases every waiter and leaves the healthy group's
queue draining. A batch that fails aborts its commits, and a validated
commit refuses a caller's abort.
"""

from repro.hw import Cluster
from repro.sim import US, Event, Simulator
from repro.storage.encoding import decode_version_record
from repro.txn import TxnAborted, build_txn_system

OLD = b"\x01" * 8
NEW = b"\x02" * 8


class _Failing:
    """A posted batch that its chain fails: the wait returns once the
    acks are in, then raises ``error``."""

    def __init__(self, posted, error):
        self.posted, self.error = posted, error

    def __getattr__(self, name):
        return getattr(self.posted, name)

    def wait(self, task):
        yield from self.posted.wait(task)
        raise self.error


class World:
    """A two-group system with eight keys seeded and installs that can
    be held: ``holds[txid]`` (an int of ns, or an event that may never
    fire) delays the batch carrying that commit before it posts — the
    stand-in for a commit whose chain round trips take that long — and
    an exception there fails the batch once its acks are in."""

    def __init__(self, seed=23):
        self.sim = Simulator(seed=seed)
        self.cluster = Cluster(self.sim, n_hosts=4, n_cores=8)
        self.coordinator = build_txn_system(self.sim, self.cluster, n_groups=2)
        self.holds = {}
        self.batches = {0: [], 1: []}  # group -> txids of each transact
        for index, store in enumerate(self.coordinator.stores):
            store.post_install = self._held(index, store.post_install)
        # Four keys on each group.
        by_group = {0: [], 1: []}
        for number in range(64):
            key = f"k{number:02d}".encode()
            by_group[self.coordinator.locate(key)].append(key)
        self.keys = {index: keys[:4] for index, keys in by_group.items()}
        self.run(self.spawn(self.writer([*self.keys[0], *self.keys[1]], OLD)))

    def _held(self, index, post_install):
        def wrapper(task, staged):
            txids = [decode_version_record(changes[0][1])[1] for changes in staged]
            self.batches[index].append(txids)
            error = None
            for txid in txids:
                hold = self.holds.pop(txid, None)
                if isinstance(hold, Exception):
                    error = hold
                elif isinstance(hold, Event):
                    yield from task.wait(hold)
                elif hold:
                    yield from task.sleep(hold)
            posted = yield from post_install(task, staged)
            return posted if error is None else _Failing(posted, error)

        return wrapper

    def spawn(self, body, name="client"):
        return self.cluster[0].os.spawn(body, name=name)

    def run(self, *tasks, for_ns=5_000 * US):
        self.sim.run(until=self.sim.now + for_ns)
        for task in tasks:
            assert task.process.triggered, f"{task.name} still parked"
            if not task.process.ok:
                raise task.process.value

    def writer(self, keys, value, log=None, hold=None, delay=0):
        """Task body: wait ``delay``, begin, write ``keys``, commit."""
        coordinator = self.coordinator

        def body(task):
            yield from task.sleep(delay)
            txn = yield from coordinator.begin(task)
            for key in keys:
                coordinator.write(txn, key, value)
            if hold is not None:
                self.holds[txn.txid] = hold
            try:
                yield from coordinator.commit(task, txn)
            except TxnAborted as exc:
                if log is not None:
                    log.append(("abort", txn.txid, exc.reason, self.sim.now))
            except RuntimeError as exc:
                if log is not None:
                    log.append(("error", txn.txid, str(exc), self.sim.now))
            else:
                if log is not None:
                    log.append(("commit", txn.txid, self.sim.now))

        return body

    def reader(self, key, log, delay):
        """Task body: wait ``delay``, begin, read ``key``."""
        coordinator = self.coordinator

        def body(task):
            yield from task.sleep(delay)
            txn = yield from coordinator.begin(task)
            start = self.sim.now
            try:
                value = yield from coordinator.read(task, txn, key)
            except TxnAborted as exc:
                log.append(("abort", key, exc.reason))
            else:
                log.append(("read", key, value, start, self.sim.now))

        return body


def test_begin_does_not_wait_for_an_installing_commit():
    world = World()
    coordinator = world.coordinator
    log = []
    holder = world.spawn(world.writer(world.keys[0][:1], NEW, log, hold=300 * US))
    begun = []

    def beginner(task):
        yield from task.sleep(20 * US)
        asked = world.sim.now
        txn = yield from coordinator.begin(task)
        begun.append((asked, world.sim.now, len(coordinator.certifier.pending), txn))

    world.run(holder, world.spawn(beginner, "beginner"))
    [(asked, returned, pending, txn)] = begun
    assert pending == 1 and returned == asked
    [(_, holder_txid, published)] = log
    assert txn.snapshot_ts > coordinator.history[-1].commit_ts
    assert coordinator.history[-1].txid == holder_txid and published > returned


def test_a_read_waits_only_for_an_earlier_pending_writer_of_its_key():
    world = World()
    hot, cold = world.keys[0][0], world.keys[1][0]
    log = []
    holder = world.spawn(world.writer([hot], NEW, log, hold=300 * US))
    reads = []
    readers = [
        world.spawn(world.reader(hot, reads, 20 * US), "hot-reader"),
        world.spawn(world.reader(cold, reads, 20 * US), "cold-reader"),
    ]
    world.run(holder, *readers)
    [(_, _, published)] = log
    by_key = {entry[1]: entry for entry in reads}
    _, _, value, start, end = by_key[hot]
    assert value == NEW and end >= published > start
    _, _, value, start, end = by_key[cold]
    assert value == OLD and end < published


def test_commits_queued_on_one_group_ride_one_transact():
    world = World()
    first, second, third = world.keys[0][:3]
    log = []
    tasks = [
        world.spawn(world.writer([first], NEW, log, hold=200 * US)),
        world.spawn(world.writer([second], NEW, log, delay=20 * US)),
        world.spawn(world.writer([third], NEW, log, delay=30 * US)),
    ]
    world.batches[0].clear()
    world.run(*tasks)
    txids = [entry[1] for entry in log]
    assert [entry[0] for entry in log] == ["commit"] * 3
    assert world.batches[0] == [[txids[0]], txids[1:]]
    # Published in commit order, each as soon as its batch was acked.
    commit_ts = [txn.commit_ts for txn in world.coordinator.history[-3:]]
    assert [txn.txid for txn in world.coordinator.history[-3:]] == txids
    assert commit_ts == sorted(commit_ts)
    assert log[1][2] == log[2][2] > log[0][2]


def _commit_time(keys_per_client):
    world = World()
    log = []
    start = world.sim.now
    tasks = [world.spawn(world.writer(keys, NEW, log)) for keys in keys_per_client]
    world.run(*tasks)
    assert [entry[0] for entry in log] == ["commit"] * len(keys_per_client)
    return max(entry[2] for entry in log) - start


def test_commits_on_disjoint_groups_overlap():
    world = World()
    one = _commit_time([world.keys[0][:1]])
    two = _commit_time([world.keys[0][:1], world.keys[1][:1]])
    assert two < 1.5 * one


def test_a_failover_with_commits_in_flight_on_two_groups_wedges_nothing():
    world = World()
    coordinator = world.coordinator
    a, b = world.keys[0][:2]
    c, d = world.keys[1][:2]
    dead_ack = Event(world.sim, "dead-chain-ack")
    log, reads = [], []
    # Group 0's batch parks forever on the dead chain; a second commit
    # queues behind it. Group 1's batch is in flight, another queued.
    zombie = world.spawn(world.writer([a], NEW, log, hold=dead_ack), "zombie")
    waiters = [
        world.spawn(world.writer([b], NEW, log, delay=10 * US), "queued-0"),
        world.spawn(world.writer([c], NEW, log, hold=100 * US, delay=10 * US), "flying-1"),
        world.spawn(world.writer([d], NEW, log, delay=20 * US), "queued-1"),
        world.spawn(world.reader(a, reads, 30 * US), "reader"),
    ]
    world.sim.run(until=world.sim.now + 50 * US)
    assert len(coordinator.certifier.pending) == 4 and log == [] and reads == []
    healthy = coordinator._queues[1]
    assert healthy.flight and len(healthy.staged) == 1

    def reset(task):
        yield from coordinator.reset_after_failover(task, 0, coordinator.stores[0].group)

    world.run(world.spawn(reset, "repair"), *waiters)
    assert not zombie.process.triggered
    assert sorted(entry[2] for entry in log) == ["failover"] * 3
    assert reads == [("abort", a, "failover")]
    assert coordinator.certifier.pending == {} and coordinator.certifier.active == {}
    # The healthy group's in-flight batch finished and stopped; nothing
    # of the old epoch published, and fresh commits on both groups go
    # through.
    assert not healthy.flight and coordinator._queues[1] is not healthy
    assert coordinator.stores[1].latest(c).value == OLD
    fresh = []
    world.run(
        world.spawn(world.writer([b], NEW, fresh)),
        world.spawn(world.writer([c, d], NEW, fresh)),
    )
    assert [entry[0] for entry in fresh] == ["commit", "commit"]
    assert coordinator.stores[1].latest(c).value == NEW
    assert not any(queue.flight or queue.staged for queue in coordinator._queues)


def test_a_batch_is_cut_where_the_next_commit_would_not_fit_one_record():
    world = World()
    keys = world.keys[0]
    big = b"\x03" * 200  # four of these per commit: two commits fill a record
    log = []
    tasks = [world.spawn(world.writer(keys, big, log, hold=200 * US))]
    tasks += [
        world.spawn(world.writer(keys, big, log, delay=(20 + 10 * index) * US))
        for index in range(3)
    ]
    world.batches[0].clear()
    world.run(*tasks)
    txids = [entry[1] for entry in log]
    assert [entry[0] for entry in log] == ["commit"] * 4
    assert world.batches[0] == [txids[:1], txids[1:3], txids[3:]]


def test_a_failed_batch_fails_its_commit_and_a_later_one_still_publishes():
    world = World()
    coordinator = world.coordinator
    first, second = world.keys[0][:2]
    other = world.keys[1][0]
    log = []
    # T2 queues behind T1 on group 0 and its batch fails; T3, on group
    # 1, installs long before and publishes only once T2 has died.
    tasks = [
        world.spawn(world.writer([first], NEW, log, hold=100 * US)),
        world.spawn(world.writer([second], NEW, log, hold=RuntimeError("nack"), delay=20 * US)),
        world.spawn(world.writer([other], NEW, log, delay=30 * US)),
    ]
    world.batches[0].clear()
    world.batches[1].clear()
    world.run(*tasks)
    (_, t1, done1), (kind, t2, _, failed), (_, t3, done3) = log
    assert kind == "error" and t1 < t2 < t3
    assert world.batches == {0: [[t1], [t2]], 1: [[t3]]}
    assert done1 < failed <= done3
    assert coordinator.stores[0].latest(second).value == OLD
    assert coordinator.stores[1].latest(other).value == NEW
    assert coordinator.certifier.pending == {}
    # The failed commit aborted: it holds back no watermark, so every
    # committed transaction retired from the SSI probes and graph.
    assert coordinator.certifier.active == {}
    assert coordinator.certifier._retained == {} and len(coordinator.certifier.graph) == 0
    assert coordinator.aborts_install == 1


def test_a_validated_commit_refuses_abort_and_publishes():
    """Past validation a commit counts as committed in every other
    transaction's pivot checks, so a caller's ``abort`` while it
    installs is refused: nothing is counted as aborted, and the commit
    publishes as it would have."""
    world = World()
    coordinator = world.coordinator
    key = world.keys[0][0]
    seen = {}

    def writer(task):
        txn = seen["txn"] = yield from coordinator.begin(task)
        coordinator.write(txn, key, NEW)
        world.holds[txn.txid] = 50 * US
        seen["commit_ts"] = yield from coordinator.commit(task, txn)

    def aborter(task):
        yield from task.sleep(20 * US)
        try:
            coordinator.abort(seen["txn"])
        except ValueError as exc:
            seen["refused"] = str(exc)

    world.run(world.spawn(writer), world.spawn(aborter, "aborter"))
    txn = seen["txn"]
    assert seen["refused"] == f"T{txn.txid} passed validation and cannot abort"
    assert coordinator.aborts_user == 0 and txn.abort_reason is None
    assert txn.status == "committed" and coordinator.history[-1].txid == txn.txid
    assert coordinator.stores[0].latest(key).value == NEW
    assert seen["commit_ts"] == txn.commit_ts


def test_a_commit_that_cannot_be_staged_aborts_and_later_ones_publish():
    """A write set with no slot to go to (here a record larger than a
    slot) fails at staging, after validation: the commit aborts like a
    failed install and raises, holding back no later publish."""
    world = World()
    coordinator = world.coordinator
    key, other = world.keys[0][:2]
    seen, log = {}, []

    def oversized(task):
        txn = seen["txn"] = yield from coordinator.begin(task)
        coordinator.write(txn, key, b"\x04" * 300)
        try:
            yield from coordinator.commit(task, txn)
        except ValueError as exc:
            seen["error"] = str(exc)

    world.run(world.spawn(oversized))
    assert "exceeds slot" in seen["error"]
    assert seen["txn"].status == "aborted" and seen["txn"].abort_reason == "install-failed"
    assert coordinator.aborts_install == 1
    assert coordinator.certifier.pending == {} and coordinator.certifier.active == {}
    world.run(world.spawn(world.writer([key, other], NEW, log)))
    assert log[-1][0] == "commit" and coordinator.stores[0].latest(key).value == NEW
