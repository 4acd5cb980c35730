"""Slicing a run must be invisible to the simulation.

Bounded runs are live code: the harness drives long experiments in
chunks and every scenario drains with ``run(until=...)``. Run once,
and again as back-to-back ``run(until=...)`` slices of random width,
a random process soup and a small NIC world must dispatch the
identical ``(time, actor)`` sequence and record identical traces. The
final clock is not compared there: a slice pins the clock to its
``until``, which may lie past the last event. Fixed-width slices
(``tests/reference/slices.py``) never end past the latest pending
event, so those runs must end at the identical clock too.
"""

import random

import pytest

from repro.hw import Cluster
from repro.obs import TRACER
from repro.rdma import AccessFlags, FLAG_SIGNALED, Opcode, Wqe
from repro.sim import AllOf, Event, Simulator, US
from tests.reference.slices import run_in_slices


@pytest.fixture(autouse=True)
def _tracer_off():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


def _soup(sim):
    """Timeouts (many zero-delay), gates, AllOf, callbacks and a
    failed event thrown into its waiter, all drawn from one seeded
    plan."""
    plan = random.Random(sim.seed)
    log = []
    gates = [Event(sim, f"gate{i}") for i in range(3)]

    def ticker(index):
        rng = sim.rng(f"tick/{index}")
        for step in range(plan.randrange(10, 40)):
            log.append((sim.now, "tick", index, step))
            if step % 5 == 4:
                yield sim.timeout(0)
            else:
                yield sim.timeout(rng.randrange(0, 9))

    def waiter(index):
        result = yield AllOf(sim, [gates[index % 3], sim.timeout(plan.randrange(5, 60))])
        log.append((sim.now, "all", index, len(result)))

    def victim(index):
        try:
            yield doom
            log.append((sim.now, "victim", index, "survived"))
        except RuntimeError as exc:
            log.append((sim.now, "victim", index, str(exc)))
        yield sim.timeout(0)
        log.append((sim.now, "victim", index, "done"))

    for index in range(plan.randrange(4, 9)):
        sim.spawn(ticker(index), name=f"tick{index}")
    for index in range(plan.randrange(2, 5)):
        sim.spawn(waiter(index), name=f"all{index}")
    doom = Event(sim, "doom")
    sim.spawn(victim(0), name="victim")
    for i, gate in enumerate(gates):
        sim.call_at(plan.randrange(3, 40), lambda g=gate, i=i: g.succeed(i))
    sim.call_at(plan.randrange(2, 30), lambda: doom.fail(RuntimeError("chaos")))
    return log


def _nic_world(sim):
    """A burst of signaled WRITEs, then a trickle, with a CQ consumer."""
    cluster = Cluster(sim, n_hosts=2, n_cores=2)
    a, b = cluster[0], cluster[1]
    qp_a = a.dev.create_qp(name="a")
    qp_b = b.dev.create_qp(name="b")
    qp_a.connect(qp_b)
    buf_a = a.memory.alloc(4096, label="buf_a")
    buf_b = b.memory.alloc(4096, label="buf_b")
    a.dev.reg_mr(buf_a, AccessFlags.ALL_REMOTE)
    mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
    log = []

    def post(index):
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

    def consumer():
        while len(log) < 10:
            event = qp_a.send_cq.next_event()
            if not event.triggered:
                yield event
            for entry in qp_a.send_cq.poll():
                log.append((sim.now, entry.wr_id, entry.ok))

    def producer():
        for index in range(6):
            post(index)
        yield sim.timeout(20 * US)
        for index in range(6, 10):
            post(index)
            yield sim.timeout(3 * US)

    sim.spawn(consumer(), name="consumer")
    sim.spawn(producer(), name="producer")
    return log


def _run(build, seed, slice_seed=None, traced=False):
    """Run ``build``'s world to completion, whole or in random slices.

    Returns the world's log, its push count and, when traced, the
    dispatch count plus every record the tracer kept."""
    if traced:
        TRACER.enable()
    sim = Simulator(seed=seed)
    log = build(sim)
    if slice_seed is None:
        sim.run()
    else:
        cuts = random.Random(slice_seed)
        while sim._queue:
            sim.run(until=sim._queue[0][0] + cuts.choice((0, 1, 3, 17, 400)))
    trace = None
    if traced:
        TRACER.disable()
        trace = (
            TRACER.dispatches,
            [
                (rec.ts, rec.ph, rec.cat, rec.name, rec.pid, rec.tid, rec.dur, rec.args)
                for rec in TRACER.iter_records()
            ],
        )
        TRACER.reset()
    return log, sim._sequence, trace


@pytest.mark.parametrize("seed", [3, 29, 404])
def test_sliced_soup_matches_whole_run(seed):
    whole = _run(_soup, seed)
    for slice_seed in (1, 2, 3):
        assert _run(_soup, seed, slice_seed) == whole


@pytest.mark.parametrize("seed", [3, 404])
def test_sliced_soup_traces_match_whole_run(seed):
    whole = _run(_soup, seed, traced=True)
    dispatches, records = whole[2]
    actors = [(rec[0], rec[5]) for rec in records if rec[2] == "kernel"]
    assert dispatches == len(actors) > 0
    assert any(actor for _, actor in actors)  # resumes name their process
    assert _run(_soup, seed, slice_seed=7, traced=True) == whole
    assert whole[:2] == _run(_soup, seed)[:2]


def test_sliced_nic_world_matches_whole_run():
    whole = _run(_nic_world, 17)
    assert len(whole[0]) == 10
    assert _run(_nic_world, 17, slice_seed=5) == whole


def test_sliced_nic_world_traces_match_whole_run():
    whole = _run(_nic_world, 17, traced=True)
    cats = {rec[2] for rec in whole[2][1]}
    assert {"kernel", "nic"} <= cats
    assert _run(_nic_world, 17, slice_seed=11, traced=True) == whole


def _fixed_slices(seed, width_ns, until=None):
    """``_soup`` run whole (``width_ns=None``) or in fixed-width slices."""
    sim = Simulator(seed=seed)
    log = _soup(sim)
    if width_ns is None:
        sim.run(until=until)
    else:
        run_in_slices(sim, until, width_ns)
    return log, sim.now, sim._sequence


@pytest.mark.parametrize("width_ns", [0, 1, 13, 100, 1300, 10**9])
def test_fixed_width_slices_match_whole_run(width_ns):
    assert _fixed_slices(29, width_ns) == _fixed_slices(29, None)


def test_fixed_width_slices_with_until_match_bounded_run():
    whole = _fixed_slices(29, None, until=40)
    assert _fixed_slices(29, 5, until=40) == whole
    assert whole[1] == 40  # clock pinned to until either way


def test_bounded_run_pins_clock_past_last_event():
    sim = Simulator(seed=4)
    log = _soup(sim)
    sim.run(until=10_000)
    # All events fired, and the clock still moved on to `until`.
    assert log
    assert not sim._queue
    assert sim.now == 10_000
    sim.run(until=20_000)
    assert sim.now == 20_000
