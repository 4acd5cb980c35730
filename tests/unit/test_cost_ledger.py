"""Cost ledger: what one uncontended op costs, in closed form.

For one op on an idle, warm group of ``n`` replicas (n = 2…5), on
HyperLoop and on Naïve-RDMA, count the WQEs the NICs execute, the
doorbells rung and the fabric deliveries. Each is a closed form in
``n``: first for the group primitives themselves, then for storage
ops as sums of the primitives they post. A change that adds a WQE per
hop, a doorbell per op or an op per append fails a named row.

Rows:

* one primitive op — gWRITE, gMEMCPY, gCAS;
* one WAL append = one gWRITE-chain op (the record; no tail header);
* one commit install (``TransactionManager.transact``) over 1, 3 and
  12 keys = its three waits: {record gWRITE, lock gCAS}, k gMEMCPYs,
  {head gWRITE, unlock gCAS}.

Every fabric delivery is one message, and every WQE here sends one
and gets one ack back, so deliveries = 2 × WQEs on both backends.
"""

import functools

import pytest

from repro.baseline import NaiveGroup
from repro.bench import run_until
from repro.core import HyperLoopGroup
from repro.core.chain import GCAS, GMEMCPY, GWRITE
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import Simulator
from repro.storage import RegionLayout
from repro.storage.transactions import TransactionManager

SIZES = range(2, 6)
BACKENDS = {"hyperloop": HyperLoopGroup, "naive": NaiveGroup}
COUNTERS = ("nic.wqe_executed", "nic.doorbells", "fabric.deliveries")

# (WQEs, doorbells) of one op, as functions of the group size n.
# HyperLoop: the client's WQE plus a pre-posted program on every
# replica, two doorbells (client send, tail ack). Naïve: a SEND and a
# replica-CPU forward per hop, every post its own doorbell.
PER_OP = {
    "hyperloop": {
        GWRITE: (lambda n: 3 * n + 1, lambda n: 2),
        GMEMCPY: (lambda n: 3 * n + 1, lambda n: 2),
        GCAS: (lambda n: 2 * n + 1, lambda n: 2),
    },
    "naive": {
        GWRITE: (lambda n: 2 * n + 1, lambda n: 2 * n + 2),
        GMEMCPY: (lambda n: n + 1, lambda n: 2 * n + 2),
        GCAS: (lambda n: n + 1, lambda n: 2 * n + 2),
    },
}


def expected(backend, ops, n):
    """(WQEs, doorbells, deliveries) of posting ``ops`` once each."""
    wqes = sum(PER_OP[backend][op][0](n) for op in ops)
    doorbells = sum(PER_OP[backend][op][1](n) for op in ops)
    return wqes, doorbells, 2 * wqes


def install(keys):
    changes = [(64 * index, b"v" * 24) for index in range(keys)]
    return lambda manager, task: manager.transact(task, changes)


PRIMITIVES = {
    GWRITE: lambda manager, task: manager.group.gwrite(task, 8192, 256),
    GMEMCPY: lambda manager, task: manager.group.gmemcpy(task, 8192, 12288, 256),
    GCAS: lambda manager, task: manager.group.gcas(task, 0, 0, 0),
}

ROWS = {
    **{
        f"install-{keys}-keys": (
            install(keys),
            [GWRITE, GCAS] + [GMEMCPY] * keys + [GWRITE, GCAS],
        )
        for keys in (1, 3, 12)
    },
    # Last: the record it leaves pending would be drained by an install.
    "append": (
        lambda manager, task: manager.log.append(task, [(0, b"x" * 100)]),
        [GWRITE],
    ),
}


@functools.lru_cache(maxsize=None)
def ledger(backend, n):
    """Counter deltas of every primitive and row on one world, each op
    run once to build the chains it uses and then measured alone, with
    an idle 200 µs after it so nothing of it is still in flight. The
    rings are deep enough that no replica re-arms rounds meanwhile."""
    ops = {**PRIMITIVES, **{row: op for row, (op, _) in ROWS.items()}}
    out = {}
    with tracing(record_kernel=False) as tracer:
        sim = Simulator(seed=7)
        cluster = Cluster(sim, n_hosts=n + 1, n_cores=4)
        group = BACKENDS[backend](
            cluster[0], cluster.hosts[1:], region_size=1 << 16, rounds=256,
            durable=True, name="ledger",
        )
        manager = TransactionManager(
            group, RegionLayout(wal_size=8192, db_size=8192), writer_id=1
        )

        def body(task):
            for op in reversed(ops.values()):  # the installs drain the append
                yield from op(manager, task)
            for name, op in ops.items():
                yield from task.sleep(200_000)
                before = dict(tracer.counters)
                yield from op(manager, task)
                yield from task.sleep(200_000)
                out[name] = tuple(
                    tracer.counters.get(key, 0) - before.get(key, 0) for key in COUNTERS
                )

        task = cluster[0].os.spawn(body, "client")
        run_until(sim, lambda: task.process.triggered, deadline_ms=100)
        assert task.process.ok, task.process.value
        assert not group.errors
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("primitive", list(PRIMITIVES))
def test_one_primitive_op(backend, primitive):
    for n in SIZES:
        got = ledger(backend, n)[primitive]
        assert got == expected(backend, [primitive], n), (backend, primitive, n)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("row", list(ROWS))
def test_one_storage_op_is_the_sum_of_its_primitives(backend, row):
    primitives = ROWS[row][1]
    for n in SIZES:
        assert ledger(backend, n)[row] == expected(backend, primitives, n), (row, n)


def test_one_append_on_three_replicas_is_ten_wqes_and_twenty_deliveries():
    """The figure the ledger is for: a lone put on a 3-replica HyperLoop
    group (20 WQEs and 40 deliveries while it also wrote a tail)."""
    assert ledger("hyperloop", 3)["append"] == (10, 2, 20)
