"""Transactions over the Naïve baseline: same isolation, other timing.

The §5 recipe (WAL, versioned stores, SSI coordinator, Available-Copies
reads) runs over any group with the shared shell. A seed-7 world of two
:class:`~repro.baseline.naive.NaiveGroup` groups on one replica set —
the layout ``build_txn_system`` builds from HyperLoop groups — runs
concurrent read-modify-writes, transfers and read-only transactions
plus write-skew litmus pairs. Its schedule differs from HyperLoop's
(replica CPUs forward every op); its committed history must still be
serializable, every read must see what its snapshot entitles it to,
and no group may report an error.
"""

from repro.baseline import NaiveGroup
from repro.bench import run_until
from repro.faults.invariants import check_read_your_writes, check_txn_acked_writes
from repro.hw import Cluster
from repro.sim import Simulator
from repro.txn import (
    AvailabilityTracker,
    TxnAborted,
    TxnCoordinator,
    VersionedGroupStore,
    find_cycle,
)

KEYS = [f"k{index:02d}".encode() for index in range(8)]
SKEW_PAIRS = [(b"ws0x", b"ws0y"), (b"ws1x", b"ws1y")]


def build_naive_txn_system(sim, cluster, name="naive-txn"):
    stores = []
    for index in range(2):
        group = NaiveGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 14, rounds=16,
            name=f"{name}.g{index}",
        )
        stores.append(VersionedGroupStore(group, name=f"{name}.s{index}"))
    return TxnCoordinator(stores, mode="ssi", tracker=AvailabilityTracker(), name=name)


def bump(value):
    return (int.from_bytes(value or b"\x00", "little") + 1).to_bytes(8, "little")


def test_a_two_group_ssi_world_over_the_naive_baseline_keeps_every_invariant():
    sim = Simulator(seed=7)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_naive_txn_system(sim, cluster)
    assert {coordinator.locate(key) for key in KEYS} == {0, 1}
    rng = sim.rng("naive-txn-ops")
    outcome = {"committed": 0, "aborted": 0, "skew_aborts": 0, "running": 0}

    def attempt(task, body):
        txn = yield from coordinator.begin(task)
        try:
            yield from body(txn)
            yield from coordinator.commit(task, txn)
        except TxnAborted:
            return False
        return True

    def rmw(task, key):
        def body(txn):
            value = yield from coordinator.read(task, txn, key)
            coordinator.write(txn, key, bump(value))

        return body

    def transfer(task, first, second):
        def body(txn):
            for key in (first, second):
                value = yield from coordinator.read(task, txn, key)
                coordinator.write(txn, key, bump(value))

        return body

    def readonly(task, keys):
        def body(txn):
            for key in keys:
                yield from coordinator.read(task, txn, key)

        return body

    plans = []
    for _ in range(3):
        plan = []
        for _ in range(8):
            kind = rng.choice(["rmw", "rmw", "transfer", "readonly"])
            if kind == "rmw":
                plan.append((rmw, rng.choice(KEYS)))
            elif kind == "transfer":
                plan.append((transfer, *rng.sample(KEYS, 2)))
            else:
                plan.append((readonly, tuple(rng.sample(KEYS, 3))))
        plans.append(plan)

    def worker(plan):
        def body(task):
            for make, *args in plan:
                committed = yield from attempt(task, make(task, *args))
                outcome["committed" if committed else "aborted"] += 1
            outcome["running"] -= 1

        return body

    def skew(mine, other):
        # Write skew: read both, write the other's key. Under SSI at
        # most one of two overlapping such transactions commits.
        def body(task):
            def write_other(txn):
                yield from coordinator.read(task, txn, mine)
                yield from coordinator.read(task, txn, other)
                yield from task.sleep(20_000)  # overlap the twin
                coordinator.write(txn, other, b"\x00" * 8)

            if not (yield from attempt(task, write_other)):
                outcome["skew_aborts"] += 1
            outcome["running"] -= 1

        return body

    def init(task):
        txn = yield from coordinator.begin(task)
        for key in KEYS + [key for pair in SKEW_PAIRS for key in pair]:
            coordinator.write(txn, key, (1).to_bytes(8, "little"))
        yield from coordinator.commit(task, txn)
        for index, plan in enumerate(plans):
            cluster[0].os.spawn(worker(plan), f"worker{index}")
        for index, (x_key, y_key) in enumerate(SKEW_PAIRS):
            cluster[0].os.spawn(skew(x_key, y_key), f"skew{index}x")
            cluster[0].os.spawn(skew(y_key, x_key), f"skew{index}y")
        outcome["running"] = len(plans) + 2 * len(SKEW_PAIRS)

    cluster[0].os.spawn(init, "init")
    run_until(sim, lambda: outcome["running"] == 0 and outcome["committed"], deadline_ms=10_000)

    assert outcome["running"] == 0
    assert outcome["committed"] + outcome["aborted"] == 24
    assert outcome["committed"] > outcome["aborted"]
    assert outcome["skew_aborts"] == len(SKEW_PAIRS)  # one per pair
    assert find_cycle(coordinator.history) is None
    assert check_read_your_writes(coordinator).ok
    assert check_txn_acked_writes(coordinator).ok
    for store in coordinator.stores:
        assert isinstance(store.group, NaiveGroup)
        assert store.group.errors == []
        assert store.group.replica_cpu_ns() > 0  # the baseline's replicas did the work
    served = coordinator.tracker.served
    assert sum(map(sum, served)) == coordinator.reads_observed
