"""Slicing a run must be invisible to the simulation.

A sharded-engine worker (:mod:`repro.sim.shard`) drives its simulator
in window slices: ``run(until=window_end)`` with ``_advance_clock =
False``, so an intermediate slice leaves the clock at the last
dispatched event instead of pinning it to the window end. That is all
the worker relies on from the kernel. Run once, and again in random
slices or fixed lookahead windows, a random process soup and a small
NIC world must dispatch the identical ``(time, actor)`` sequence, end
at the identical clock, and record identical traces; and every worker
of a sharded run must count the coordinator's windows as its rounds.
"""

import random

import pytest

from repro.bench.mesh import mesh_params
from repro.hw import Cluster
from repro.obs import TRACER
from repro.rdma import AccessFlags, FLAG_SIGNALED, Opcode, Wqe
from repro.sim import AnyOf, Event, Simulator, US
from repro.sim.shard import run_oracle, run_sharded
from tests.reference.windows import run_in_windows


@pytest.fixture(autouse=True)
def _tracer_off():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


def _soup(sim):
    """Timeouts (many zero-delay), hops, gates, AnyOf, callbacks and
    interrupts, all drawn from one seeded plan."""
    plan = random.Random(sim.seed)
    log = []
    gates = [Event(sim, f"gate{i}") for i in range(3)]

    def ticker(index):
        rng = sim.rng(f"tick/{index}")
        for step in range(plan.randrange(10, 40)):
            log.append((sim.now, "tick", index, step))
            if step % 5 == 4:
                yield sim.hop()
            else:
                yield sim.timeout(rng.randrange(0, 9))

    def waiter(index):
        result = yield AnyOf(sim, [gates[index % 3], sim.timeout(plan.randrange(5, 60))])
        log.append((sim.now, "any", index, len(result)))

    def victim(index):
        try:
            yield sim.timeout(1000)
            log.append((sim.now, "victim", index, "survived"))
        except Exception:
            log.append((sim.now, "victim", index, "interrupted"))

    for index in range(plan.randrange(4, 9)):
        sim.spawn(ticker(index), name=f"tick{index}")
    for index in range(plan.randrange(2, 5)):
        sim.spawn(waiter(index), name=f"any{index}")
    victim_proc = sim.spawn(victim(0), name="victim")
    for i, gate in enumerate(gates):
        sim.call_at(plan.randrange(3, 40), lambda g=gate, i=i: g.succeed(i))
    sim.call_at(plan.randrange(2, 30), lambda: victim_proc.interrupt("chaos"))
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

    Returns the world's log, the final clock and, when traced, the
    dispatch count plus every record the tracer kept."""
    if traced:
        TRACER.enable()
    sim = Simulator(seed=seed)
    log = build(sim)
    if slice_seed is None:
        sim.run()
    else:
        cuts = random.Random(slice_seed)
        sim._advance_clock = False
        try:
            while sim._queue:
                sim.run(until=sim._queue[0][0] + cuts.choice((0, 1, 3, 17, 400)))
        finally:
            sim._advance_clock = True
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
    return log, sim.now, trace


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


def _windowed(seed, window_ns, until=None):
    """``_soup`` run in fixed lookahead windows (``None``: whole)."""
    sim = Simulator(seed=seed)
    log = _soup(sim)
    if window_ns is None:
        sim.run(until=until)
    else:
        run_in_windows(sim, until, window_ns)
    return log, sim.now, sim._sequence


def test_windowed_run_matches_plain():
    plain = _windowed(29, None)
    for window in (1, 13, 100, 1300, 10**9):
        assert _windowed(29, window) == plain, f"window_ns={window} diverged"


def test_windowed_run_with_until_matches_plain():
    plain = _windowed(29, None, until=40)
    assert _windowed(29, 5, until=40) == plain
    assert plain[1] == 40  # clock pinned to until either way


def test_sync_rounds_counts_windows():
    # The coordinator counts the windows it broadcasts; every worker
    # counts the slices it ran. They are the same rounds.
    params = mesh_params(hosts=6, messages=8, group_size=2)
    assert run_oracle("mesh", seed=5, params=params).sync_rounds == 0
    for shards in (2, 3):
        run = run_sharded("mesh", shards, seed=5, params=params)
        assert run.sync_rounds > 1
        assert [stats["sync_rounds"] for stats in run.shard_stats] == [
            run.sync_rounds
        ] * shards


def test_advance_clock_flag_leaves_clock_at_last_event():
    sim = Simulator(seed=4)
    log = _soup(sim)
    sim._advance_clock = False
    try:
        sim.run(until=10_000)
    finally:
        sim._advance_clock = True
    # All events fired, but the clock was not pinned to `until`.
    assert log
    assert not sim._queue
    assert sim.now < 10_000
    # With the flag set, a bounded run pins the clock to `until`.
    sim.run(until=20_000)
    assert sim.now == 20_000
