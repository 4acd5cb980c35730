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
* one §5 transaction (``TransactionManager.transact``, what the KV and
  doc stores run) over 1, 3 and 12 keys = its three waits: {record
  gWRITE, lock gCAS}, k gMEMCPYs, {head gWRITE, unlock gCAS};
* one txn commit install (``VersionedGroupStore.post_install``, then
  its wait) over 1, 3 and 12 keys = one wait without the lock, the k
  slot images posted as gWRITEs behind the record on its chain, the
  head advance owed to the log's next post: on a log that owes
  nothing, {record gWRITE, k image gWRITEs}; in steady state, behind
  another install, {owed head gWRITE, record gWRITE, k image
  gWRITEs}. On HyperLoop at n = 3 that is 20 + 10k WQEs where
  ``transact`` costs 34 + 10k.

Every row but the steady-state installs is measured on a log that
owes nothing: the head advance a previous row left owed is made
durable first (``truncate`` to the head), outside the measurement.

Every fabric delivery is one message, and every WQE here sends one
and gets one ack back, so deliveries = 2 × WQEs on both backends.

The same ops also pin what the client host's CPU does for them, in
both client modes, on a client with one core (so every thread hop is
a context switch): task wakes, context switches and scheduler
dispatches, split between the task running the op and every other
client task. An op that waits for acks ``w`` times (1 for a primitive,
an append or a txn install, 3 for a ``transact``):

* event mode — the ack wakes the waiting task itself: ``w`` wakes and
  ``w`` dispatches of that task, no other client task dispatched, no
  context switch. A completion thread between the CQ and the waiter
  (a wake, two switches and a dispatch more per wait) fails the row;
* polling mode — the busy-polling thread reaps, the waiter wakes:
  ``w`` wakes of the waiter, ``w`` dispatches of each, ``2w`` switches.
"""

import functools
import types

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
from repro.txn import VersionedGroupStore

SIZES = range(2, 6)
BACKENDS = {"hyperloop": HyperLoopGroup, "naive": NaiveGroup}
COUNTERS = ("nic.wqe_executed", "nic.doorbells", "fabric.deliveries")
MODES = ("event", "polling")

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


def changes(keys):
    return [(64 * index, b"v" * 24) for index in range(keys)]


def install(keys):
    return lambda world, task: world.manager.transact(task, changes(keys))


def txn_install(keys):
    def run(world, task):
        posted = yield from world.store.post_install(task, [changes(keys)])
        yield from posted.wait(task)

    return run


def settle(world, task):
    """Make the head advance the log owes durable."""
    log = world.manager.log
    yield from log.truncate(task, up_to=log.head)


PRIMITIVES = {
    GWRITE: lambda world, task: world.group.gwrite(task, 8192, 256),
    GMEMCPY: lambda world, task: world.group.gmemcpy(task, 8192, 12288, 256),
    GCAS: lambda world, task: world.group.gcas(task, 0, 0, 0),
}

ROWS = {
    **{
        f"install-{keys}-keys": (
            install(keys),
            [GWRITE, GCAS] + [GMEMCPY] * keys + [GWRITE, GCAS],
        )
        for keys in (1, 3, 12)
    },
    **{
        f"txn-install-{keys}-keys": (
            txn_install(keys),
            [GWRITE] * (1 + keys),
        )
        for keys in (1, 3, 12)
    },
    **{
        f"txn-install-{keys}-keys-steady": (
            txn_install(keys),
            [GWRITE] * (2 + keys),
        )
        for keys in (1, 3, 12)
    },
    # Last: the record it leaves pending would be drained by an install.
    "append": (
        lambda world, task: world.manager.log.append(task, [(0, b"x" * 100)]),
        [GWRITE],
    ),
}

# What runs unmeasured before a row: the steady-state installs each
# follow an install whose head advance they carry; every other row
# follows ``settle``.
BEFORE = {f"txn-install-{keys}-keys-steady": txn_install(keys) for keys in (1, 3, 12)}

# Ack waits of each op: a ``transact`` is three, a txn install one
# (test_txn_cost_gate.py).
WAITS = {
    **dict.fromkeys(PRIMITIVES, 1),
    **{row: 1 if row.startswith("txn-install") else 3 for row in ROWS},
    "append": 1,
}

# Client-host CPU of an op that waits w times: (wakes of the op's
# task, wakes of other client tasks, context switches, dispatches of
# the op's task, dispatches of other client tasks).
CPU = {
    "event": lambda w: (w, 0, 0, w, 0),
    "polling": lambda w: (w, 0, 2 * w, w, w),
}


@functools.lru_cache(maxsize=None)
def ledger(backend, n, client_mode="event"):
    """Counter deltas of every primitive and row on one world, each op
    run once to build the chains it uses and then measured alone, with
    an idle 200 µs after it so nothing of it is still in flight. The
    rings are deep enough that no replica re-arms rounds meanwhile.
    ``(name, "cpu")`` holds the op's client-host CPU (see ``CPU``),
    counted from its post to its return."""
    ops = {**PRIMITIVES, **{row: op for row, (op, _) in ROWS.items()}}
    out = {}
    with tracing(record_kernel=False, capacity=1 << 20) as tracer:
        sim = Simulator(seed=7)
        cluster = Cluster(sim, n_hosts=n + 1, n_cores=4)
        client = cluster[0]
        client.os.set_enabled_cores(1)
        group = BACKENDS[backend](
            client, cluster.hosts[1:], region_size=1 << 16, rounds=512,
            durable=True, client_mode=client_mode, name="ledger",
        )
        manager = TransactionManager(
            group, RegionLayout(wal_size=8192, db_size=8192), writer_id=1
        )
        store = VersionedGroupStore(group)
        # One WAL on the region: the store appends to the manager's log.
        store.log = manager.log
        world = types.SimpleNamespace(group=group, manager=manager, store=store)

        def cpu_since(task, mark):
            wakes, switches, records = mark
            own = task.wakeups - wakes[task]
            others = sum(t.wakeups - wakes.get(t, 0) for t in client.os.tasks) - own
            dispatched = [
                record.args["task"]
                for record in tracer.records[records:]
                if record.name == "dispatch" and record.pid == client.os.name
            ]
            mine = dispatched.count(task.name)
            return (
                own, others, client.os.context_switches - switches,
                mine, len(dispatched) - mine,
            )

        def body(task):
            for op in reversed(ops.values()):  # the installs drain the append
                yield from op(world, task)
            for name, op in ops.items():
                yield from BEFORE.get(name, settle)(world, task)
                yield from task.sleep(200_000)
                before = dict(tracer.counters)
                mark = (
                    {t: t.wakeups for t in client.os.tasks},
                    client.os.context_switches,
                    len(tracer.records),
                )
                yield from op(world, task)
                out[name, "cpu"] = cpu_since(task, mark)
                yield from task.sleep(200_000)
                out[name] = tuple(
                    tracer.counters.get(key, 0) - before.get(key, 0) for key in COUNTERS
                )

        task = client.os.spawn(body, "client")
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


@pytest.mark.parametrize("client_mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op", list(WAITS))
def test_client_cpu_of_one_op(backend, client_mode, op):
    """One wake of the waiter per ack wait; in event mode nothing else
    on the client host runs for the op."""
    for n in SIZES:
        got = ledger(backend, n, client_mode)[op, "cpu"]
        assert got == CPU[client_mode](WAITS[op]), (backend, client_mode, op, n)


def test_a_txn_install_on_three_replicas_is_twenty_plus_ten_per_key_wqes():
    """The lock gCAS pair is 14 of ``transact``'s 34 + 10k WQEs at n = 3;
    a txn install takes no lock. Its k slot images are gWRITEs where
    they were gMEMCPYs, and on HyperLoop the two cost the same WQEs
    (3n + 1 each), so the counts are those of the two-wait install it
    replaced. In steady state it carries the previous install's head
    advance, so it posts k + 2 gWRITEs, in one wait."""
    for keys in (1, 3, 12):
        got = ledger("hyperloop", 3)
        steady = got[f"txn-install-{keys}-keys-steady"]
        assert steady == (20 + 10 * keys, 4 + 2 * keys, 40 + 20 * keys)
        assert got[f"txn-install-{keys}-keys"] == (10 + 10 * keys, 2 + 2 * keys, 20 + 20 * keys)
        assert got[f"install-{keys}-keys"] == (34 + 10 * keys, 8 + 2 * keys, 68 + 20 * keys)
