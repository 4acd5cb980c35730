"""Equivalence tests for the batched same-timestamp dispatch loop.

The PR-5 rewrite pops every queue entry sharing one timestamp and
dispatches the batch without re-touching the heap per event; NIC
engines additionally chain consecutive WQEs and coalesce deliveries.
All of it is only admissible because it is *invisible*: the
one-pop-at-a-time loop in ``tests/reference/one_pop.py`` is the
oracle, and these tests assert bit-for-bit identical event orders —
on randomized process soups, with tracing off and on, on a real NIC
workload, and across the parallel sweep runner's worker processes.
"""

import multiprocessing
import random

import pytest

from repro.bench.parallel import make_specs, run_parallel, run_serial
from repro.hw import Cluster
from repro.obs import TRACER
from repro.rdma import AccessFlags, FLAG_SIGNALED, Opcode, Wqe
from repro.sim import AllOf, Event, Simulator, US
from tests.reference.one_pop import run_one_pop


@pytest.fixture(autouse=True)
def _tracer_off():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


def _run(sim, oracle, until=None):
    """Drive ``sim`` with the batched loop, or the one-pop oracle."""
    return run_one_pop(sim, until) if oracle else sim.run(until=until)


def _random_soup(seed, oracle, traced=False):
    """A randomized process soup covering every dispatch shape.

    Zero-delay timeouts, event ping-pong, AllOf composition, call_at
    callbacks, failed events thrown into their waiters, and process
    joins — all scheduled from one seeded RNG so same-timestamp
    contention (the regime the batched loop rewrites) is maximal.
    Returns the resume log.
    """
    sim = Simulator(seed=seed)
    if traced:
        TRACER.enable()
        TRACER.install(sim)
    plan = random.Random(seed)
    log = []
    gates = [Event(sim, f"gate{i}") for i in range(3)]

    def timer(index):
        rng = sim.rng(f"timer/{index}")
        for step in range(plan.randrange(10, 40)):
            log.append((sim.now, "timer", index, step))
            yield sim.timeout(rng.randrange(0, 4))  # mostly same-time

    def hopper(index):
        for step in range(plan.randrange(5, 25)):
            log.append((sim.now, "hopper", index, step))
            if step % 3 == 0:
                yield sim.timeout(0)
            else:
                yield sim.timeout(1)

    def waiter(index, gate):
        value = yield gate
        log.append((sim.now, "waiter", index, value))
        yield sim.timeout(0)
        log.append((sim.now, "waiter", index, "done"))

    def all_waiter(index):
        result = yield AllOf(sim, [gates[index % 3], sim.timeout(plan.randrange(5, 30))])
        log.append((sim.now, "all", index, len(result)))

    def victim(index, doom):
        # One victim waits on its doom event directly, the other on an
        # AllOf that fails fast with it; both get the failure thrown in
        # and keep running.
        try:
            yield AllOf(sim, [doom, sim.timeout(1000)]) if index else doom
            log.append((sim.now, "victim", index, "survived"))
        except RuntimeError as exc:
            log.append((sim.now, "victim", index, str(exc)))
        yield sim.timeout(0)
        log.append((sim.now, "victim", index, "done"))

    def joiner(index, target):
        yield target
        log.append((sim.now, "joiner", index, "joined"))

    procs = []
    for index in range(plan.randrange(4, 9)):
        procs.append(sim.spawn(timer(index)))
    for index in range(plan.randrange(2, 5)):
        procs.append(sim.spawn(hopper(index)))
    for index in range(plan.randrange(2, 6)):
        sim.spawn(waiter(index, gates[plan.randrange(3)]))
    for index in range(plan.randrange(1, 4)):
        sim.spawn(all_waiter(index))
    dooms = [Event(sim, f"doom{i}") for i in range(2)]
    for index, doom in enumerate(dooms):
        sim.spawn(victim(index, doom))
    sim.spawn(joiner(0, procs[0]))
    for i, gate in enumerate(gates):
        sim.call_at(plan.randrange(3, 25), lambda g=gate, i=i: g.succeed(i))
    doom_at = plan.randrange(2, 20)
    for index, doom in enumerate(dooms):
        sim.call_at(doom_at, lambda d=doom, i=index: d.fail(RuntimeError(f"chaos{i}")))
    sim.call_at(plan.randrange(1, 15), lambda: log.append((sim.now, "cb", 0, None)))
    _run(sim, oracle)
    log.append(("final", sim.now))
    return log


def _kernel_trace():
    """Everything the tracer recorded that a dispatch order decides."""
    records = [(rec.ts, rec.name, rec.tid) for rec in TRACER.iter_records()]
    return TRACER.dispatches, records


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23, 91, 404, 1759])
    def test_batched_matches_generic(self, seed):
        assert _random_soup(seed, False) == _random_soup(seed, True)

    @pytest.mark.parametrize("seed", [7, 404])
    def test_batched_matches_generic_traced(self, seed):
        """The observed batched loop (obs on) must reproduce the same
        interleaving, records and dispatch count as the observed
        one-pop oracle *and* the untraced runs."""
        untraced = _random_soup(seed, False)
        batched = _random_soup(seed, False, traced=True)
        batched_trace = _kernel_trace()
        assert TRACER.dispatches > 0
        TRACER.disable()
        TRACER.reset()
        generic = _random_soup(seed, True, traced=True)
        assert _kernel_trace() == batched_trace
        assert batched == generic == untraced


class TestExceptionMidBatch:
    """An exception escaping a dispatch leaves the rest of its
    timestamp queued, and a second ``run()`` continues in one-pop
    order: the heap entries that were still due first, then the
    same-time pushes, each group in push order."""

    EXPECTED = {
        # The heap entry ``boom`` raises: ``last`` and the timer fire
        # were due at 10 before either same-time push.
        "heap": [
            (0, "sleeper"), (10, "first"), (10, "boom"), "raised",
            (10, "last"), (10, "first-push"), (10, "after-boom"),
            (10, "sleeper"), (10, "sleeper-again"), (12, "later"),
        ],
        # A same-time push raises: the heap entries are all done, and
        # the sleeper's resume was pushed before ``after-boom``.
        "push": [
            (0, "sleeper"), (10, "first"), (10, "last"), (10, "boom"), "raised",
            (10, "first-push"), (10, "sleeper"), (10, "after-boom"),
            (10, "sleeper-again"), (12, "later"),
        ],
    }

    @staticmethod
    def _world(raise_from, traced):
        sim = Simulator()
        if traced:
            TRACER.enable()
            TRACER.install(sim)
        log = []

        def note(label):
            log.append((sim.now, label))

        def boom():
            note("boom")
            sim.call_in(0, note, "after-boom")
            raise RuntimeError("boom")

        def first():
            note("first")
            if raise_from == "push":
                sim.call_in(0, boom)
            sim.call_in(0, note, "first-push")

        def sleeper():
            note("sleeper")
            yield sim.timeout(10)
            note("sleeper")
            yield sim.timeout(0)
            note("sleeper-again")

        sim.spawn(sleeper())
        sim.call_at(10, first)
        if raise_from == "heap":
            sim.call_at(10, boom)
        sim.call_at(10, note, "last")
        sim.call_at(12, note, "later")
        return sim, log

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("raise_from", ["heap", "push"])
    @pytest.mark.parametrize("oracle", [False, True], ids=["batched", "one_pop"])
    def test_exception_mid_batch_keeps_one_pop_order(self, raise_from, oracle, traced):
        sim, log = self._world(raise_from, traced)
        with pytest.raises(RuntimeError, match="boom"):
            _run(sim, oracle)
        log.append("raised")
        assert sim.now == 10 and not sim._running
        assert _run(sim, oracle) == 12
        assert log == self.EXPECTED[raise_from]


def _nic_workload(oracle):
    """Posts, doorbells, WAIT chaining, and a channel consumer on a
    real two-host cluster; returns every observable: consumer wakeups,
    polled completions with timestamps, and remote memory bytes."""
    sim = Simulator(seed=17)
    cluster = Cluster(sim, n_hosts=2, n_cores=2)
    a, b = cluster[0], cluster[1]
    qp_a = a.dev.create_qp(name="a")
    qp_b = b.dev.create_qp(name="b")
    qp_a.connect(qp_b)
    buf_a = a.memory.alloc(8192, label="buf_a")
    buf_b = b.memory.alloc(8192, label="buf_b")
    a.dev.reg_mr(buf_a, AccessFlags.ALL_REMOTE)
    mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
    log = []

    def consumer():
        while len(log) < 12:
            event = qp_a.send_cq.next_event()
            if not event.triggered:
                yield event
            for entry in qp_a.send_cq.poll():
                log.append((sim.now, entry.wr_id, entry.ok))
            yield sim.timeout(0)

    sim.spawn(consumer())

    def producer():
        # Burst-post to exercise the send engine's chained execution,
        # then trickle to exercise doorbell kicks from idle.
        for index in range(8):
            buf_a.write(index * 8, bytes([index + 1]) * 8)
            qp_a.post_send(
                Wqe(
                    opcode=Opcode.WRITE,
                    flags=FLAG_SIGNALED,
                    length=8,
                    local_addr=buf_a.addr + index * 8,
                    remote_addr=buf_b.addr + index * 8,
                    rkey=mr_b.rkey,
                    wr_id=index,
                )
            )
        yield sim.timeout(50 * US)
        for index in range(8, 12):
            qp_a.post_send(
                Wqe(
                    opcode=Opcode.WRITE,
                    flags=FLAG_SIGNALED,
                    length=8,
                    local_addr=buf_a.addr,
                    remote_addr=buf_b.addr + index * 8,
                    rkey=mr_b.rkey,
                    wr_id=index,
                )
            )
            yield sim.timeout(2 * US)

    sim.spawn(producer())
    _run(sim, oracle, until=10_000 * US)
    log.append(("memory", b.nic.cache.read(buf_b.addr, 96)))
    log.append(("final", sim.now, qp_a.send_cq.completions_total))
    return log


class TestNicWorkloadEquivalence:
    def test_nic_batched_matches_generic(self):
        assert _nic_workload(False) == _nic_workload(True)

    def test_nic_batched_matches_generic_traced(self):
        TRACER.enable()
        batched = _nic_workload(False)
        batched_trace = _kernel_trace()
        assert TRACER.dispatches > 0
        TRACER.enable()  # resets
        generic = _nic_workload(True)
        assert _kernel_trace() == batched_trace
        TRACER.disable()
        assert batched == generic == _nic_workload(False)


QUICK = dict(
    system="hyperloop",
    message_size=256,
    n_ops=30,
    stress_per_core=1,
    pipeline_depth=2,
    n_cores=4,
    rounds=256,
)


def _loop_is_one_pop():
    return Simulator.run is run_one_pop


class TestParallelEquivalence:
    def test_worker_processes_match_generic_oracle(self, monkeypatch):
        """A sweep's worker processes run the batched loop; the same
        sweep with the one-pop reference patched in before the pool
        forks (so every worker inherits it) must produce identical
        normalized results, and both match the in-process serial run."""
        specs = make_specs("latency", base_seed=7, n_seeds=2, **QUICK)
        batched = run_parallel(specs, workers=2, mp_context="fork")
        monkeypatch.setattr(Simulator, "run", run_one_pop)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_loop_is_one_pop)
        generic = run_parallel(specs, workers=2, mp_context="fork")
        assert batched == generic
        assert run_serial(specs) == generic
