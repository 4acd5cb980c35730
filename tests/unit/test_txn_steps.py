"""Transactions as step lists: the interpreter and the client loop.

``run_txn`` runs one attempt — ``begin``, the steps in order,
``commit`` — and raises ``TxnAborted`` as the coordinator does;
``run_txn_workload`` runs exactly the transactions it is asked for.
"""

import pytest

from repro.bench.harness import run_until
from repro.hw.host import Cluster
from repro.sim import Simulator
from repro.txn import TxnAborted, build_txn_system, run_txn_workload
from repro.txn.workload import (
    Rendezvous,
    bump_counter,
    init_steps,
    rmw,
    run_txn,
    write_skew,
)


def drive(sim, cluster, *bodies):
    """Run each body on its own client task; returns their outcomes."""
    outcomes = {}

    def client(index, body):
        def run(task):
            try:
                outcomes[index] = yield from body(task)
            except TxnAborted as exc:
                outcomes[index] = f"aborted:{exc.reason}"

        return run

    for index, body in enumerate(bodies):
        cluster[0].os.spawn(client(index, body), f"c{index}")
    run_until(sim, lambda: len(outcomes) == len(bodies), deadline_ms=100)
    return [outcomes[index] for index in range(len(bodies))]


def make():
    sim = Simulator(seed=3)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    return sim, cluster, build_txn_system(sim, cluster, n_groups=2)


def read_back(sim, cluster, coordinator, keys):
    values = {}

    def body(task):
        txn = yield from coordinator.begin(task)
        for key in keys:
            values[key] = yield from coordinator.read(task, txn, key)
        yield from coordinator.commit(task, txn)

    drive(sim, cluster, body)
    return values


@pytest.mark.parametrize("n_txns", [2, 24, 25, 26])
def test_the_mix_runs_exactly_n_txns(n_txns):
    report = run_txn_workload(seed=7, n_txns=n_txns, write_skew_pairs=0)
    assert report.attempted == 1 + n_txns
    assert sum(attempts for _, attempts, _ in report.mix) == n_txns


def test_bump_writes_f_of_the_value_last_read():
    sim, cluster, coordinator = make()
    keys = [b"a", b"b"]
    drive(sim, cluster, lambda task: run_txn(task, coordinator, init_steps(keys)))
    steps = rmw(b"a") + [
        ("write", b"a", (7).to_bytes(8, "little")),
        ("read", b"a"),  # reads its own write
        ("bump", b"a", bump_counter),
        ("bump", b"a", bump_counter),  # still of the last read: 7 + 1
    ]
    drive(sim, cluster, lambda task: run_txn(task, coordinator, steps))
    assert read_back(sim, cluster, coordinator, keys) == {
        b"a": (8).to_bytes(8, "little"),
        b"b": (1).to_bytes(8, "little"),
    }


def test_insert_and_scan_steps():
    sim, cluster, coordinator = make()
    drive(
        sim,
        cluster,
        lambda task: run_txn(task, coordinator, [("insert", b"n1", b"x" * 8)]),
    )
    assert read_back(sim, cluster, coordinator, [b"n1"]) == {b"n1": b"x" * 8}
    drive(sim, cluster, lambda task: run_txn(task, coordinator, [("scan", b"n", 4)]))
    assert coordinator.history[-1].scans == ((b"n", None),)


def test_a_write_skew_pair_meets_and_ssi_aborts_one_side():
    sim, cluster, coordinator = make()
    keys = (b"x", b"y")
    drive(sim, cluster, lambda task: run_txn(task, coordinator, init_steps(keys)))
    rendezvous = Rendezvous(sim)
    sides = [write_skew(keys, written, rendezvous) for written in (b"y", b"x")]
    outcomes = drive(
        sim, cluster, *(lambda task, s=s: run_txn(task, coordinator, s) for s in sides)
    )
    assert sorted(map(str, outcomes)) == ["None", "aborted:ssi-pivot"]


def test_an_unknown_step_is_refused():
    sim, cluster, coordinator = make()
    steps = [("delete", b"a")]
    task = cluster[0].os.spawn(lambda task: run_txn(task, coordinator, steps), "c")
    run_until(sim, lambda: task.process.triggered, deadline_ms=1)
    assert not task.process.ok
    with pytest.raises(ValueError, match="unknown transaction step"):
        raise task.process.value
