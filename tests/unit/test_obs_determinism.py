"""S4: tracing must be observationally invisible to the simulation.

Two directions, both bit-for-bit:

* **Tracing off** — a simulator built with the tracer dark runs the
  original loop, so event order matches the seed kernel exactly (the
  fast-vs-generic harness from ``test_kernel_perf`` stands in for the
  pre-obs kernel, same as it stood in for the pre-rewrite one).
* **Tracing on** — ``run_traced`` pops the same heap entries in the
  same order, never schedules events, never consumes randomness: the
  event interleaving and full experiment outputs (stats *and* raw
  samples) are identical to an untraced run of the same seed.
"""

import dataclasses

import pytest

from repro.bench.experiments import microbench_latency
from repro.obs import TRACER, tracing
from repro.sim import Event, Simulator


@pytest.fixture(autouse=True)
def _tracer_off():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


def mixed_run(fast_dispatch=True, until=None, chunk=None):
    """Timeouts + triggered events + callbacks: every dispatch shape
    the traced loop must reproduce. Returns the resume log + final now."""
    sim = Simulator(seed=11, fast_dispatch=fast_dispatch)
    log = []
    gate = Event(sim)

    def waiter(name):
        value = yield gate
        log.append((sim.now, name, value))
        yield sim.timeout(4)
        log.append((sim.now, name, "done"))

    def ticker(index):
        rng = sim.rng(f"tick/{index}")
        for step in range(25):
            log.append((sim.now, index, step))
            yield sim.timeout(rng.randrange(0, 6))

    for name in ("w0", "w1"):
        sim.spawn(waiter(name))
    for index in range(8):
        sim.spawn(ticker(index))
    sim.call_at(15, lambda: log.append((sim.now, "callback", None)))
    sim.call_at(20, lambda: gate.succeed("open"))
    if chunk:
        while sim._queue and (until is None or sim.now < until):
            sim.run(until=min(sim.now + chunk, until) if until else sim.now + chunk)
            if until is None and not sim._queue:
                break
    else:
        sim.run(until=until)
    return log, sim.now


def latency_output(**overrides):
    """Normalized output of a tiny Fig-8 slice (stats + raw samples)."""
    params = dict(
        system="hyperloop",
        message_size=256,
        n_ops=20,
        stress_per_core=1,
        pipeline_depth=2,
        n_cores=4,
        rounds=256,
        seed=7,
    )
    params.update(overrides)
    system = params.pop("system")
    return dataclasses.asdict(microbench_latency(system, **params))


class TestTracingOffMatchesSeedKernel:
    def test_fast_dispatch_matches_generic_with_obs_merged(self):
        # Same acceptance bar the hot-path rewrite had to clear: with
        # the observability layer merged but dark, the fast and generic
        # loops still interleave identically.
        assert mixed_run(True) == mixed_run(False)

    def test_repeated_runs_identical(self):
        assert mixed_run() == mixed_run()


class TestTracingOnIsInvisible:
    def test_event_order_identical_traced_vs_untraced(self):
        untraced = mixed_run()
        with tracing():
            traced = mixed_run()
        assert traced == untraced

    def test_generic_dispatch_path_also_identical(self):
        untraced = mixed_run(fast_dispatch=False)
        with tracing():
            traced = mixed_run(fast_dispatch=False)
        assert traced == untraced

    def test_until_semantics_identical(self):
        untraced = mixed_run(until=17)
        with tracing():
            traced = mixed_run(until=17)
        assert traced == untraced
        # until beyond the last event advances the clock identically
        untraced_far = mixed_run(until=10_000)
        with tracing():
            traced_far = mixed_run(until=10_000)
        assert traced_far == untraced_far
        assert traced_far[1] == 10_000

    def test_chunked_runs_identical(self):
        # run_until()-style repeated run(until=now+chunk) calls: the
        # traced loop must honour the same clock-advance rules.
        untraced = mixed_run(until=120, chunk=7)
        with tracing():
            traced = mixed_run(until=120, chunk=7)
        assert traced == untraced

    def test_record_kernel_off_still_identical(self):
        untraced = mixed_run()
        with tracing(record_kernel=False):
            traced = mixed_run()
        assert traced == untraced


class TestExperimentOutputsUnchanged:
    def test_fig8_slice_identical_traced_vs_untraced(self):
        untraced = latency_output()
        with tracing():
            traced = latency_output()
        # Full structural equality: latency stats, per-op raw samples,
        # error list — nothing about the simulated result may move.
        assert traced == untraced
        assert traced["samples_ns"] == untraced["samples_ns"]
        assert len(traced["samples_ns"]) == traced["stats"]["count"]

    def test_traced_run_actually_traced(self):
        with tracing() as tracer:
            latency_output()
        assert tracer.dispatches > 0
        cats = {rec.cat for rec in tracer.iter_records()}
        assert {"kernel", "nic", "fabric", "scheduler", "group"} <= cats


def two_group_commit(n_keys=6):
    """A multi-key commit installed on two groups in parallel — every
    install posts overlapped group ops. Returns everything a schedule
    change would move: finish times, durable slots, dispatch totals."""
    from repro.bench import run_until
    from repro.hw import Cluster
    from repro.txn import build_txn_system

    sim = Simulator(seed=13)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=2)
    keys = [f"k{index:02d}".encode() for index in range(n_keys)]
    assert {coordinator.locate(key) for key in keys} == {0, 1}
    stamps = []

    def body(task):
        for value in (b"one", b"two"):
            txn = yield from coordinator.begin(task)
            for key in keys:
                coordinator.write(txn, key, value * 5)
            yield from coordinator.commit(task, txn)
            stamps.append(sim.now)

    task = cluster[0].os.spawn(body, "committer")
    run_until(sim, lambda: task.process.triggered, deadline_ms=100)
    durable = [
        coordinator.stores[coordinator.locate(key)].read_durable_offline(2, key)
        for key in keys
    ]
    switches = sum(host.os.context_switches for host in cluster.hosts)
    return stamps, durable, switches, sim.now


class TestOverlappedGroupOpsTraced:
    def test_two_group_commit_identical_traced_vs_untraced(self):
        untraced = two_group_commit()
        with tracing():
            traced = two_group_commit()
        assert traced == untraced
        assert len(traced[0]) == 2 and all(slot[3] == b"two" * 5 for slot in traced[1])

    def test_overlapped_spans_export_as_valid_chrome_trace(self):
        from repro.obs import to_chrome_trace, validate_chrome_trace

        with tracing(record_kernel=False) as tracer:
            two_group_commit()
        document = to_chrome_trace(tracer)
        assert validate_chrome_trace(document) == []
        spans = [
            event
            for event in document["traceEvents"]
            if event.get("cat") == "group" and event["ph"] == "X"
        ]
        # 2 commits × 2 groups × (record + header + lock + 3 copies +
        # head advance + unlock), every one a complete span with its round.
        assert len(spans) == 2 * 2 * 8 == tracer.counters["group.ops"]
        assert all(event["dur"] > 0 and "round" in event["args"] for event in spans)
        assert not any(
            event["ph"] in "BE" for event in document["traceEvents"] if event.get("cat") == "group"
        )
        lanes = {(event["pid"], event["tid"]) for event in spans}
        overlapped = 0
        for lane in lanes:
            ordered = sorted(
                (event for event in spans if (event["pid"], event["tid"]) == lane),
                key=lambda event: event["ts"],
            )
            overlapped += sum(
                later["ts"] < earlier["ts"] + earlier["dur"]
                for earlier, later in zip(ordered, ordered[1:])
            )
        assert overlapped > 0  # one task, several ops in flight


def eight_writers_with_a_checkpoint(puts_per_writer=12):
    """Group-committed WAL appends with a checkpoint cutting in mid-run:
    batch membership depends on who queued while the previous batch was
    in flight, so any tracing-induced reordering changes the result."""
    from repro.bench import run_until
    from repro.core import HyperLoopGroup
    from repro.hw import Cluster
    from repro.storage import ReplicatedKVStore

    sim = Simulator(seed=19)
    cluster = Cluster(sim, n_hosts=4, n_cores=8)
    group = HyperLoopGroup(cluster[0], cluster.hosts[1:4], region_size=1 << 18, rounds=64, name="g")
    kv = ReplicatedKVStore(group)
    stamps = []

    def writer(index):
        def body(task):
            for step in range(puts_per_writer):
                key = f"k{(index + step) % 5}".encode()
                yield from kv.put(task, key, f"{index}/{step}".encode() * 16)
                stamps.append((sim.now, index, kv.log.next_lsn))

        return body

    def checkpointer(task):
        yield from task.sleep(150_000)
        yield from kv.checkpoint(task)
        stamps.append((sim.now, "checkpoint", kv.checkpoint_lsn))

    tasks = [cluster[0].os.spawn(writer(index), f"w{index}") for index in range(8)]
    tasks.append(cluster[0].os.spawn(checkpointer, "checkpointer"))
    run_until(sim, lambda: all(task.process.triggered for task in tasks), deadline_ms=100)
    assert all(task.process.ok for task in tasks)
    switches = sum(host.os.context_switches for host in cluster.hosts)
    return stamps, kv.recover_from_replica(1), (kv.log.head, kv.log.tail), switches, sim.now


class TestGroupCommitTraced:
    def test_batches_and_checkpoint_cut_identical_traced_vs_untraced(self):
        untraced = eight_writers_with_a_checkpoint()
        with tracing() as tracer:
            traced = eight_writers_with_a_checkpoint()
        assert traced == untraced
        stamps, recovered, (head, tail), _, _ = traced
        assert len(stamps) == 8 * 12 + 1 and 0 < head < tail and len(recovered) == 5
        # The run did batch: fewer leaders than records, all counted.
        assert tracer.counters["wal.records"] == 8 * 12
        assert tracer.counters["wal.batches"] < tracer.counters["wal.records"] // 2


def four_scanners_and_an_inserter(scans_per_client=20):
    """Batched scans — each holding one read channel per group while
    its READ batches are in flight — racing an inserter that commits
    into their ranges: who queues behind whom on a channel, and which
    scan sees which insert, moves with any tracing-induced reordering."""
    from repro.bench import run_until
    from repro.hw import Cluster
    from repro.txn import TxnAborted, build_txn_system

    sim = Simulator(seed=37)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=4)
    stamps = []

    def load(task):
        txn = yield from coordinator.begin(task)
        for index in range(0, 64, 2):
            coordinator.write(txn, b"y%04d" % index, b"seed%04d" % index)
        yield from coordinator.commit(task, txn)

    def scanner(index):
        def body(task):
            for step in range(scans_per_client):
                txn = yield from coordinator.begin(task)
                start = b"y%04d" % ((7 * index + 5 * step) % 40)
                try:
                    rows = yield from coordinator.scan(task, txn, start, 12)
                    yield from coordinator.commit(task, txn)
                    stamps.append((sim.now, index, len(rows), rows[-1][0]))
                except TxnAborted as exc:
                    stamps.append((sim.now, index, exc.reason))

        return body

    def inserter(task):
        for index in range(1, 40, 2):
            txn = yield from coordinator.begin(task)
            coordinator.insert(txn, b"y%04d" % index, b"new!%04d" % index)
            try:
                yield from coordinator.commit(task, txn)
                stamps.append((sim.now, "insert", index))
            except TxnAborted as exc:
                stamps.append((sim.now, "insert", exc.reason))

    loader = cluster[0].os.spawn(load, "load")
    run_until(sim, lambda: loader.process.triggered, deadline_ms=100)
    tasks = [cluster[0].os.spawn(scanner(index), f"s{index}") for index in range(4)]
    tasks.append(cluster[0].os.spawn(inserter, "inserter"))
    run_until(sim, lambda: all(task.process.triggered for task in tasks), deadline_ms=1_000)
    assert all(task.process.ok for task in tasks)
    observed = [
        (obs["txid"], obs["key"], obs["replica"], obs["stale"])
        for obs in coordinator.observations
    ]
    switches = sum(host.os.context_switches for host in cluster.hosts)
    return stamps, observed, coordinator.counters(), switches, sim.now


class TestBatchedScansTraced:
    def test_scanners_and_inserter_identical_traced_vs_untraced(self):
        untraced = four_scanners_and_an_inserter()
        with tracing() as tracer:
            traced = four_scanners_and_an_inserter()
        assert traced == untraced
        stamps, observed, counters, _, _ = traced
        assert len(stamps) == 4 * 20 + 20
        assert counters["commits"] + counters["aborts_phantom"] == 1 + 4 * 20 + 20
        # The run did batch: fewer READs than slots cross-checked, and
        # never more than one batch per group per scan.
        assert tracer.counters["txn.scan_reads"] == len(observed)
        assert tracer.counters["reader.wqes"] < tracer.counters["txn.scan_reads"]
        assert tracer.counters["reader.batches"] <= 4 * tracer.counters["txn.scan"]
