"""The Available-Copies replica choice: least busy, never ineligible.

``AvailabilityTracker.choose`` answers the eligible replica whose read
channel has the smallest backlog — the batches holding its lanes plus
the ones queued for a lane — with ties to the lowest index, so an idle
group reads replica 0. Eligibility is not negotiable: a crashed host, a halted NIC,
a replica restarted and not yet rewritten, or a group paused mid-repair
serves nothing, however idle its channel. ``failovers`` counts the reads
replica 0 was ineligible for, not every read another replica served.

A one-group world holds lanes with ``post_reads`` tickets and asks the
tracker directly. A batch queues only once every lane of its replica is
held. Every case runs over HyperLoop and over the Naïve baseline: the
rules come from the group shell both share, not from a data path.
"""

import pytest

from repro.baseline import NaiveGroup
from repro.bench import run_until
from repro.core import HyperLoopGroup
from repro.hw import Cluster
from repro.rdma.reader import _LANES
from repro.sim import Simulator
from repro.txn import (
    AvailabilityTracker,
    NoAvailableCopy,
    TxnCoordinator,
    VersionedGroupStore,
)

EXTENT = [(0, 8)]
EVERY_LANE = (0, 1, 2) * _LANES
GROUPS = {"hyperloop": HyperLoopGroup, "naive": NaiveGroup}


@pytest.fixture(params=GROUPS)
def world(request):
    return World(GROUPS[request.param])


class World:
    """One group of type ``group_class`` on hosts 1–3 (replica ``r`` is
    ``cluster[r + 1]``), written once so its copies are eligible."""

    def __init__(self, group_class):
        self.sim = Simulator(seed=11)
        self.cluster = Cluster(self.sim, n_hosts=4, n_cores=4)
        self.group = group_class(
            self.cluster[0], self.cluster.hosts[1:4], region_size=1 << 14,
            rounds=16, name="ac.g0",
        )
        store = VersionedGroupStore(self.group, name="ac")
        self.tracker = AvailabilityTracker(poll_ns=10_000, max_wait_ns=50_000)
        self.coordinator = TxnCoordinator([store], tracker=self.tracker, name="ac")

        def seed(task):
            txn = yield from self.coordinator.begin(task)
            self.coordinator.write(txn, b"key", b"\x07" * 8)
            yield from self.coordinator.commit(task, txn)

        self.run(seed)
        assert self.tracker.readable(0) == [0, 1, 2]

    def host(self, replica):
        return self.cluster[replica + 1]

    def slots(self, replica):
        return self.group._reader._channels[replica].slots

    def run(self, body):
        done = {}

        def wrapper(task):
            done["r"] = yield from body(task)

        task = self.cluster[0].os.spawn(wrapper, "client")
        run_until(self.sim, lambda: task.process.triggered, deadline_ms=100)
        if not task.process.ok:
            raise task.process.value
        return done["r"]

    def choose_while(self, held=(), queued=()):
        """``tracker.choose`` while the chooser holds one lane per entry
        of ``held`` and one more task per entry of ``queued`` waits for a
        lane of that replica (so each of those replicas must have every
        lane held). Returns the replica, or the :class:`NoAvailableCopy`
        raised."""
        group = self.group

        def taker(replica):
            def body(task):
                posted = yield from group.post_reads(task, replica, EXTENT)
                yield from posted.wait(task)

            return body

        takers = []

        def body(task):
            tickets = []
            for replica in held:
                tickets.append((yield from group.post_reads(task, replica, EXTENT)))
            for replica in queued:
                takers.append(self.cluster[0].os.spawn(taker(replica), "taker"))
            backlog = [
                (held.count(replica), queued.count(replica))
                for replica in range(group.group_size)
            ]
            for _ in range(100):  # until every taker is parked
                now = [
                    (self.slots(replica).in_use, self.slots(replica).queue_length)
                    for replica in range(group.group_size)
                ]
                if now == backlog:
                    break
                yield from task.sleep(1_000)
            assert now == backlog
            try:
                return (yield from self.tracker.choose(task, 0))
            except NoAvailableCopy as exc:
                return exc
            finally:
                for ticket in tickets:
                    yield from ticket.wait(task)

        chosen = self.run(body)
        run_until(
            self.sim, lambda: all(t.process.triggered for t in takers), deadline_ms=100
        )
        for replica in range(group.group_size):
            assert self.slots(replica).in_use == 0
        return chosen


def test_an_idle_group_reads_replica_zero(world):
    assert world.choose_while() == 0
    assert world.tracker.served == [[1, 0, 0]]
    assert world.tracker.failovers == 0


@pytest.mark.parametrize(
    "held,queued,expected",
    [
        ((0,), (), 1),
        ((0, 1), (), 2),
        ((0, 1, 2), (), 0),  # a three-way tie goes to the lowest index
        (EVERY_LANE, (0, 2), 1),
        (EVERY_LANE, (0, 0, 1), 2),
        ((0, 0, 1), (), 2),  # two lanes of replica 0 are a backlog of 2
    ],
    ids=[
        "0-held",
        "0-1-held",
        "all-held",
        "all-held-1-least-queued",
        "all-held-2-least-queued",
        "two-lanes-of-0-held",
    ],
)
def test_the_least_busy_channel_serves(world, held, queued, expected):
    assert world.choose_while(held, queued) == expected
    served = [0, 0, 0]
    served[expected] = 1
    assert world.tracker.served == [served]
    assert world.tracker.failovers == 0


def _crash(host):
    host.crash()


def _stall_nic(host):
    host.nic.stall()


def _restart_unwritten(host):
    host.crash()
    host.restart()


@pytest.mark.parametrize("ineligible", [0, 1, 2])
@pytest.mark.parametrize(
    "fault",
    [_crash, _stall_nic, _restart_unwritten],
    ids=["crashed-host", "halted-nic", "restarted-not-rewritten"],
)
def test_an_idle_but_ineligible_replica_never_serves(world, fault, ineligible):
    fault(world.host(ineligible))
    others = tuple(replica for replica in range(3) if replica != ineligible)
    assert world.tracker.readable(0) == list(others)
    # Its channel is the only idle one; the other two tie and the
    # lower index serves.
    assert world.choose_while(held=others) == others[0]
    assert world.tracker.failovers == (1 if ineligible == 0 else 0)


def test_a_group_paused_mid_repair_serves_nothing(world):
    world.tracker.on_repair_phase(0)("repair")
    outcome = world.choose_while(held=(0, 1))
    assert isinstance(outcome, NoAvailableCopy)
    assert world.tracker.blocks == 1
    assert world.tracker.served == [[0, 0, 0]]
    world.tracker.on_repair_phase(0)("repair-done")
    assert world.choose_while(held=(0, 1)) == 2


def test_failovers_count_only_reads_replica_zero_was_ineligible_for(world):
    assert world.choose_while(held=(0,)) == 1
    assert world.choose_while(held=(0, 1)) == 2
    assert world.tracker.failovers == 0  # replica 0 was busy, not ineligible
    world.host(0).crash()
    assert world.choose_while() == 1
    assert world.choose_while(held=(1,)) == 2
    assert world.tracker.failovers == 2
    assert world.tracker.served == [[0, 2, 2]]
