"""Parallel commit installs vs the sequential reference.

Overlapping per-group installs changes *latency*, not *outcome*. For
any fixed serial schedule the coordinator's parallel install and the
one-group-at-a-time reference (``tests/reference/sequential_install.py``,
patched in) must produce bit-identical commit results — the same per-key version chains
(writer txid and value, in order), the same commit/abort outcomes for
every transaction, the same durable install counts — while the
parallel path finishes the multi-group schedule in strictly less
virtual time. Raw timestamps are excluded on purpose: the clock
advances differently when installs overlap, and that is the entire
point.

Whatever the path, a commit publishes only once its versions are in
every replica's slots (``tests/reference/published_durable.py``), and
an install posts gWRITEs only.
"""

import pytest

from repro.bench import run_until
from repro.core import HyperFanoutGroup
from repro.hw import Cluster
from repro.sim import Simulator
from repro.txn import (
    TxnAborted,
    TxnCoordinator,
    VersionedGroupStore,
    build_txn_system,
    run_ycsb_mix,
)
from tests.reference.published_durable import published_is_durable
from tests.reference.sequential_install import install_sequentially

KEYS = [f"s{index:02d}".encode() for index in range(9)]


def _drive(sim, cluster, body, until_ms=30_000):
    done = {}

    def wrapper(task):
        done["r"] = yield from body(task)

    task = cluster[0].os.spawn(wrapper, "driver")
    run_until(
        sim, lambda: "r" in done or task.process.triggered, deadline_ms=until_ms
    )
    if task.process.triggered and not task.process.ok:
        raise task.process.value
    return done["r"]


def _run_schedule(sequential):
    """A fixed serial schedule of multi-group transactions.

    One driver task executes every transaction; interleavings are
    scripted (begin/commit order is explicit), so the outcome is a
    pure function of the schedule — the property that lets us diff the
    two install paths. ``sequential`` patches in the reference. The schedule covers: a wide init commit across
    all groups, read-modify-writes, a scripted first-committer-wins
    abort, and a scripted write-skew (SSI pivot) abort.
    """
    with pytest.MonkeyPatch.context() as patch:
        if sequential:
            patch.setattr(TxnCoordinator, "_install", install_sequentially)
        return _schedule()


def _schedule():
    sim = Simulator(seed=11)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=3)
    outcomes = []
    finished = {}

    def run_txn(task, label, ops):
        txn = yield from coordinator.begin(task)
        try:
            for op in ops:
                if op[0] == "r":
                    yield from coordinator.read(task, txn, op[1])
                else:
                    coordinator.write(txn, op[1], op[2])
            yield from coordinator.commit(task, txn)
            outcomes.append((label, txn.txid, "commit"))
        except TxnAborted as exc:
            outcomes.append((label, txn.txid, f"abort:{exc.reason}"))

    def body(task):
        # Init: one commit spanning all three groups.
        yield from run_txn(
            task, "init", [("w", key, b"v0:" + key) for key in KEYS]
        )
        # Plain multi-group read-modify-writes, serially.
        for round_ in range(3):
            ops = []
            for key in KEYS[round_::3]:
                ops.append(("r", key))
                ops.append(("w", key, f"v{round_ + 1}:".encode() + key))
            yield from run_txn(task, f"rmw{round_}", ops)
        # Scripted first-committer-wins: loser snapshots, winner
        # commits the same key, loser must abort ww-conflict.
        loser = yield from coordinator.begin(task)
        yield from coordinator.read(task, loser, KEYS[0])
        yield from run_txn(
            task, "fcw-winner", [("w", KEYS[0], b"winner"), ("w", KEYS[4], b"winner")]
        )
        try:
            coordinator.write(loser, KEYS[0], b"loser")
            yield from coordinator.commit(task, loser)
            outcomes.append(("fcw-loser", loser.txid, "commit"))
        except TxnAborted as exc:
            outcomes.append(("fcw-loser", loser.txid, f"abort:{exc.reason}"))
        # Scripted write-skew: both sides read both keys, write the
        # other's key; the second committer is the SSI pivot.
        left = yield from coordinator.begin(task)
        right = yield from coordinator.begin(task)
        for txn in (left, right):
            yield from coordinator.read(task, txn, KEYS[1])
            yield from coordinator.read(task, txn, KEYS[2])
        coordinator.write(left, KEYS[2], b"skew-left")
        coordinator.write(right, KEYS[1], b"skew-right")
        for label, txn in (("skew-left", left), ("skew-right", right)):
            try:
                yield from coordinator.commit(task, txn)
                outcomes.append((label, txn.txid, "commit"))
            except TxnAborted as exc:
                outcomes.append((label, txn.txid, f"abort:{exc.reason}"))
        # run_until advances in coarse chunks; the schedule's true
        # duration is the clock when the last commit returned.
        finished["ns"] = sim.now

    _drive(sim, cluster, body)
    chains = {}
    installs = {}
    durable = {}
    for index, store in enumerate(coordinator.stores):
        for key, chain in store.versions.items():
            chains[key] = [(version.txid, version.value) for version in chain]
        installs[index] = store.installs
        for key in KEYS:
            if store.has_slot(key):
                record = store.read_durable_offline(0, key)
                durable[key] = record[1:] if record else None
    errors = [error for store in coordinator.stores for error in store.group.errors]
    return {
        "outcomes": outcomes,
        "chains": chains,
        "installs": installs,
        "durable": durable,
        "counters": coordinator.counters(),
        "anomaly_free": not errors,
        "sim_ns": finished["ns"],
    }


def test_parallel_installs_match_the_sequential_oracle():
    parallel = _run_schedule(sequential=False)
    sequential = _run_schedule(sequential=True)

    # The schedule exercised what it claims to.
    kinds = {outcome.split(":")[-1] for _, _, outcome in sequential["outcomes"]}
    assert "ww-conflict" in kinds and "ssi-pivot" in kinds
    assert sequential["counters"]["commits"] >= 5

    # Bit-identical commit outcomes: same per-key version chains
    # (writer txid + value, in order), same outcome per transaction,
    # same durable slot contents, same counters.
    assert parallel["outcomes"] == sequential["outcomes"]
    assert parallel["chains"] == sequential["chains"]
    assert parallel["installs"] == sequential["installs"]
    assert parallel["durable"] == sequential["durable"]
    assert parallel["counters"] == sequential["counters"]
    assert parallel["anomaly_free"] and sequential["anomaly_free"]

    # ...and the latency claim: overlapping the per-group installs
    # finishes the same schedule in strictly less virtual time.
    assert parallel["sim_ns"] < sequential["sim_ns"]


def test_every_publish_finds_its_versions_on_every_replica():
    """Published implies durable, over 160 YCSB-A transactions on four
    ``rounds=16`` groups: at each publish, every replica of the group
    holds each published key's slot at that version or newer."""
    with published_is_durable() as seen:
        report = run_ycsb_mix(mix="A", seed=10, n_txns=160, n_workers=4)
    assert report.committed == 160
    assert seen["checked"] > 0 and seen["violations"] == []


def test_installs_post_gwrites_only():
    """An install is a record and its slot images, all gWRITEs, so a
    group that offers no other primitive (the §7 fan-out) runs
    transactions: five commits over six keys on two groups, then a
    read of each key."""
    sim = Simulator(seed=3)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    groups = [
        HyperFanoutGroup(cluster[0], cluster.hosts[1:4], region_size=1 << 16, name=f"f{i}")
        for i in range(2)
    ]
    coordinator = TxnCoordinator(
        [VersionedGroupStore(group, name=f"s{i}") for i, group in enumerate(groups)]
    )
    keys = [b"k%d" % index for index in range(6)]

    def body(task):
        for round_ in range(5):
            txn = yield from coordinator.begin(task)
            for key in keys:
                coordinator.write(txn, key, b"v%d" % round_)
            yield from coordinator.commit(task, txn)
        txn = yield from coordinator.begin(task)
        values = []
        for key in keys:
            values.append((yield from coordinator.read(task, txn, key)))
        yield from coordinator.commit(task, txn)
        return values

    assert _drive(sim, cluster, body) == [b"v4"] * len(keys)
    assert coordinator.commits == 6
    assert {coordinator.locate(key) for key in keys} == {0, 1}
