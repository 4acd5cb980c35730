"""Hot-path budget: what one simulated op may leave behind and cost.

Counts, not clocks (the way ``test_txn_cost_gate.py`` pins dispatches).
Three small worlds shaped like the end-to-end benchmark's — a durable
3-replica ``HyperLoopGroup`` with a polling client, a ``NaiveGroup``
with event-mode replicas under 3 tenants per core, a 2-group
transaction system — run warm with the cyclic collector off, as
``benchmarks/e2e/worker.py`` runs its timed phase:

(i)   an op leaves at most 2 unreachable objects for the collector
      (before the grant became one event: 23 / 102 / 181 per op here,
      all of them the ``AnyOf`` + ``Timeout`` + preempt ``Event`` cycle
      of a CPU grant — the whole of ``naive_tenancy``'s 102 MiB);
(ii)  a run ten times as long (twice, on the slow transaction world)
      leaves the same nothing, and the live heap of the two group
      worlds does not grow with it (the idle ack CQs grew one parked
      event per ack wake);
(iii) one warm durable gWRITE from a lone polling client costs exactly
      the pinned number of generator resumes, event-object
      constructions and kernel dispatches — and none of the resumes
      is the NIC receive path's, which is stages, not a process.

A legitimate change to the kernel, CPU or NIC model moves the pins of
(iii); re-measure, and say in CHANGES.md what moved them. The bounds
of (i) and (ii) are the point of the file and should not move.
"""

import gc
import sys
from collections import Counter

import pytest

from repro import Cluster, HyperLoopGroup, NaiveGroup, Simulator
from repro.bench import run_until
from repro.hw.wqe import _DECODE_CACHE
from repro.obs import tracing
from repro.sim.events import Event, Timeout, _Condition
from repro.sim.kernel import Process
from repro.txn import build_txn_system

WARMUP_OPS = 100
SHORT_RUN = 300


class _World:
    """A world and closed-loop clients that run ``op`` while ops are
    asked for (``run(n)``), and sleep in between."""

    clients = 4
    long_run = 3_000

    def __init__(self, n_cores):
        self.sim = Simulator(seed=5)
        self.cluster = Cluster(self.sim, n_hosts=4, n_cores=n_cores)
        self.done = self.target = 0

    def start(self):
        for index in range(self.clients):
            self.spawn_client(self._client(index), index)
        self.run(WARMUP_OPS)
        return self

    def spawn_client(self, body, index):
        self.cluster[0].os.spawn(body, f"c{index}", pinned_core=1 + index)

    def _client(self, index):
        def body(task):
            count = 0
            while True:
                while self.done >= self.target:
                    yield from task.sleep(50_000)
                yield from self.op(task, index, count)
                count += 1
                self.done += 1

        return body

    def run(self, n_ops):
        self.target += n_ops
        run_until(self.sim, lambda: self.done >= self.target, deadline_ms=60_000)


class _GroupWorld(_World):
    def __init__(self):
        super().__init__(n_cores=8)
        self.group = self.build(self.cluster[0], self.cluster.hosts[1:4])

    def op(self, task, index, count):
        offset = index * 1024
        self.group.write_local(offset, (b"%d/%d;" % (index, count)).ljust(1024, b"."))
        yield from self.group.gwrite(task, offset, 1024)


class HyperloopWorld(_GroupWorld):
    def build(self, client, replicas):
        return HyperLoopGroup(
            client, replicas, region_size=1 << 16, rounds=4096, durable=True,
            client_mode="polling", client_core=0, name="sut",
        )


class LoneClientWorld(HyperloopWorld):
    clients = 1


class NaiveWorld(_GroupWorld):
    def build(self, client, replicas):
        for host in replicas:
            for index in range(3 * len(host.os.cores)):
                host.os.spawn_stress(f"{host.name}.tenant{index}")
        return NaiveGroup(
            client, replicas, region_size=1 << 16, rounds=4096, durable=True,
            replica_mode="event", replica_cores=[0] * len(replicas),
            client_mode="polling", client_core=0, name="sut",
        )


class TxnWorld(_World):
    clients = 2
    long_run = 600  # 4 host ms an op: tier-1 cannot afford 3,000

    def __init__(self):
        super().__init__(n_cores=4)
        self.coordinator = build_txn_system(
            self.sim, self.cluster, n_groups=2, region_size=1 << 16, mode="ssi", name="t"
        )

    def spawn_client(self, body, index):
        self.cluster[0].os.spawn(body, f"c{index}")

    def op(self, task, index, count):
        """Read-modify-write two keys of this client's own: both groups
        install, nobody conflicts."""
        coordinator = self.coordinator
        txn = yield from coordinator.begin(task)
        for k in range(2):
            key = b"k%d-%d" % (index, k)
            yield from coordinator.read(task, txn, key)
            coordinator.write(txn, key, b"v%08d" % count)
        yield from coordinator.commit(task, txn)


def _run_uncollected(world, n_ops):
    """Run ``n_ops`` with the collector off; returns (unreachable
    objects per op, tracked objects alive afterwards). The WQE decode
    cache is left out of the second: it is process-wide and saws
    between 0 and 4,096 entries whatever the worlds do."""
    while gc.collect():
        # Until nothing is left: an earlier test's world dies here, and
        # its tasks' ``finally`` blocks revive part of it for one more
        # pass, which must not be billed to this run.
        pass
    gc.disable()
    try:
        world.run(n_ops)
        unreachable = gc.collect()
    finally:
        gc.enable()
    return unreachable / n_ops, len(gc.get_objects()) - len(_DECODE_CACHE)


@pytest.mark.parametrize("world_class", [HyperloopWorld, NaiveWorld, TxnWorld])
def test_an_op_leaves_nothing_for_the_collector_however_long_the_run(world_class):
    world = world_class().start()
    garbage_short, alive_short = _run_uncollected(world, SHORT_RUN)
    assert garbage_short <= 2
    garbage_long, alive_long = _run_uncollected(world, world.long_run)
    assert garbage_long <= 2
    if world_class is not TxnWorld:
        # Flat in run length, not just lower: at most two more live
        # objects per op (before: 39 and 104). What is left, 1.05 an
        # op on the HyperLoop world, is the polling client's grant
        # timers still in the event queue — an Event and two tuples
        # each, there for a scheduler slice (ms), not for the run. The
        # txn layer keeps its history by design — ROADMAP item 1c.
        assert alive_long - alive_short <= 2 * world.long_run


# Per 200 warm gWRITEs of the lone client (default dispatch mode).
# Before: 10,349 resumes (6,600 of them NicQp._ingress_engine), 13,637
# event objects, the same 21,829 dispatches.
RESUMES = 3_749
EVENT_OBJECTS = 7_812
DISPATCHES = 21_829
PINNED_OPS = 200


def _profile(n_ops):
    """Call counts over ``n_ops`` warm ops: generator resumes by the
    generator's home, and event-object constructions."""
    world = LoneClientWorld().start()
    resume = Process._resume.__code__
    constructors = {
        cls.__init__.__code__ for cls in (Event, Timeout, _Condition)
    }
    calls = Counter()

    def profiler(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code is resume:
            home = frame.f_locals["self"].generator.gi_code
            calls["resumes"] += 1
            calls[home.co_filename.rsplit("repro/", 1)[-1], home.co_name] += 1
        elif code in constructors:
            calls["event objects"] += 1

    sys.setprofile(profiler)
    try:
        world.run(n_ops)
    finally:
        sys.setprofile(None)
    return calls


def test_a_warm_gwrite_costs_the_pinned_resumes_and_allocations():
    calls = _profile(PINNED_OPS)
    nic_resumes = {
        home: count for home, count in calls.items()
        if isinstance(home, tuple) and home[0] == "hw/nic.py"
    }
    # The receive path resumes nothing in either dispatch mode; the
    # send engine is the NIC's one process.
    assert set(nic_resumes) == {("hw/nic.py", "_send_engine")}
    if not Simulator()._fast_dispatch:
        return  # the generic send engine resumes per WQE, by design
    assert calls["resumes"] == RESUMES  # 18.7 per op, was 51.7
    assert calls["event objects"] == EVENT_OBJECTS  # 39.1 per op, was 68.2


def test_a_warm_gwrite_costs_the_same_kernel_dispatches_as_before():
    """The stages hand on through the event queue exactly where the
    generator yielded: no hop added, none removed."""
    with tracing(record_kernel=False) as tracer:
        world = LoneClientWorld().start()
        before = tracer.dispatches
        world.run(PINNED_OPS)
        assert tracer.dispatches - before == DISPATCHES  # 109.1 per op
