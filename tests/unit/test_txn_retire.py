"""Committed transactions leave the SSI graph at the snapshot watermark.

``Certifier._retire`` forgets a committed transaction once its
commit timestamp is below the oldest live snapshot. Every rw edge
joins two transactions whose ``[snapshot, commit]`` intervals overlap,
so a retired node can never take part in a later pivot check: the
rule is outcome-neutral. These tests hold it to that against a
reference that never retires — the retire step patched to a no-op
inside the test — over random interleavings of begin / read / write /
scan / commit / abort on a live coordinator, the scan oracle's
concurrent-insert schedules, and the seed-7 workload: the same
results, commits with the same timestamps, the same aborts and
reasons, and the same pivot checks with the same detail strings.

The boundaries, on hand-built schedules: a committed transaction with
an rw edge from a live one keeps its node until that one ends; it is
forgotten exactly when the watermark passes its commit; and a failover
reset, which aborts everything live, leaves the graph empty.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench import run_until
from repro.hw import Cluster
from repro.sim import Simulator
from repro.txn import (
    SerializationGraph,
    TxnAborted,
    build_txn_system,
    run_txn_workload,
)
from repro.txn.certify import Certifier
from tests.property.test_scan_oracle import schedules, SEED_KEYS

KEYS = [b"k0", b"k1", b"k2", b"k3"]


def make(seed=23):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    return sim, cluster, build_txn_system(sim, cluster, n_groups=2)


def drive(sim, cluster, body):
    done = {}

    def wrapper(task):
        done["r"] = yield from body(task)

    task = cluster[0].os.spawn(wrapper, "client")
    run_until(sim, lambda: task.process.triggered, deadline_ms=30_000)
    if not task.process.ok:
        raise task.process.value
    return done["r"]


def recorded(run, retire):
    """``run()``'s result, and everything the certifier decided while
    it ran: each pivot check and its answer, each abort and its reason,
    each commit and its timestamp. ``retire=False`` is the reference:
    committed transactions stay in the graph for good."""
    log = []
    certifiers = []
    pivot, abort, finalize = (
        SerializationGraph.pivot, Certifier._abort, Certifier._finalize
    )

    def logged_pivot(graph, txid):
        found = pivot(graph, txid)
        log.append(("pivot", txid, found))
        return found

    def logged_abort(certifier, txn, reason):
        log.append(("abort", txn.txid, reason))
        return abort(certifier, txn, reason)

    def logged_finalize(certifier, txn, commit_ts):
        commit_ts = finalize(certifier, txn, commit_ts)
        log.append(("commit", txn.txid, commit_ts))
        if certifier not in certifiers:
            certifiers.append(certifier)
        return commit_ts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SerializationGraph, "pivot", logged_pivot)
        patch.setattr(Certifier, "_abort", logged_abort)
        patch.setattr(Certifier, "_finalize", logged_finalize)
        if not retire:
            patch.setattr(Certifier, "_retire", lambda certifier: None)
        result = run()
    return result, log, certifiers


def assert_neutral(run):
    """Retiring and never retiring decide the same; the retiring
    certifier ends with an empty graph. Returns the reference's
    certifiers."""
    result, log, certifiers = recorded(run, retire=True)
    reference, reference_log, kept = recorded(run, retire=False)
    assert result == reference
    assert log == reference_log
    assert [c.history for c in certifiers] == [c.history for c in kept]
    for certifier in certifiers:
        assert len(certifier.graph) == 0 and certifier._retiring == []
    return kept


# -- random interleavings on a live coordinator ---------------------------------------


@st.composite
def interleavings(draw):
    """Begin / read / write / scan / commit / abort over four keys on
    two groups, from two to four transaction slots; a slot whose
    transaction ended begins a new one, so committed transactions keep
    meeting live ones."""
    n_slots = draw(st.integers(2, 4))
    live = [False] * n_slots
    actions = []
    for _ in range(draw(st.integers(6, 36))):
        slot = draw(st.integers(0, n_slots - 1))
        if not live[slot]:
            actions.append(("begin", slot))
            live[slot] = True
            continue
        kind = draw(st.sampled_from(
            ["read", "read", "write", "write", "scan", "commit", "commit", "abort"]
        ))
        if kind in ("read", "write"):
            actions.append((kind, slot, draw(st.sampled_from(KEYS))))
        elif kind == "scan":
            actions.append((kind, slot, draw(st.sampled_from(KEYS)), draw(st.integers(1, 3))))
        else:
            actions.append((kind, slot))
            live[slot] = False
    actions.extend(("commit", slot) for slot in range(n_slots) if live[slot])
    return actions


def play(actions):
    sim, cluster, coordinator = make()

    def body(task):
        txn = yield from coordinator.begin(task)
        for key in KEYS[::2]:
            coordinator.write(txn, key, b"seed")
        yield from coordinator.commit(task, txn)
        txns, out = {}, []
        for action in actions:
            kind, slot = action[:2]
            if kind == "begin":
                txns[slot] = yield from coordinator.begin(task)
                out.append(("begin", txns[slot].txid))
                continue
            txn = txns[slot]
            try:
                if kind == "read":
                    out.append((yield from coordinator.read(task, txn, action[2])))
                elif kind == "write":
                    coordinator.write(txn, action[2], b"v%d" % len(out))
                elif kind == "scan":
                    out.append((yield from coordinator.scan(task, txn, *action[2:])))
                elif kind == "commit":
                    out.append(("commit", (yield from coordinator.commit(task, txn))))
                else:
                    coordinator.abort(txn)
            except TxnAborted as exc:
                out.append(("aborted", exc.reason, exc.detail))
        return out

    return drive(sim, cluster, body)


@given(interleavings())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_interleavings_decide_the_same_as_never_retiring(actions):
    assert_neutral(lambda: play(actions))


# -- the scan oracle's concurrent-insert schedules ------------------------------------


def play_scans(schedule):
    n_seeds, actions = schedule
    sim, cluster, coordinator = make()

    def body(task):
        txn = yield from coordinator.begin(task)
        for index, key in enumerate(SEED_KEYS[:n_seeds]):
            coordinator.write(txn, key, b"seed%04d" % index)
        yield from coordinator.commit(task, txn)
        txns, out = {}, []
        for action in actions:
            try:
                if action[0] == "open":
                    txns[action[1]] = yield from coordinator.begin(task)
                elif action[0] == "commit_insert":
                    txn = yield from coordinator.begin(task)
                    coordinator.insert(txn, action[1], b"cins" + action[1])
                    out.append((yield from coordinator.commit(task, txn)))
                elif action[0] == "txn_insert":
                    coordinator.insert(txns[action[1]], action[2], b"tins" + action[2])
                elif action[0] == "scan":
                    out.append((yield from coordinator.scan(task, txns[action[1]], *action[2:])))
                else:
                    out.append((yield from coordinator.commit(task, txns.pop(action[1]))))
            except TxnAborted as exc:
                out.append(("aborted", exc.reason, exc.detail))
        return out

    return drive(sim, cluster, body)


@given(schedules())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scan_schedules_decide_the_same_as_never_retiring(schedule):
    assert_neutral(lambda: play_scans(schedule))


# -- the seed-7 workload --------------------------------------------------------------


def test_seed_7_workload_decides_the_same_as_never_retiring():
    kept = assert_neutral(lambda: run_txn_workload(seed=7).render())
    # The reference really kept what the change forgets.
    assert len(kept[0].graph) > 0


# -- boundaries -----------------------------------------------------------------------


class TestBoundaries:
    def test_a_committed_writer_stays_while_its_reader_lives(self):
        """T2 read x, then T1 wrote x and committed: ``T2 -rw-> T1``.
        T2's snapshot is older than T1's commit, so T1's node stays
        until T2 ends — commit or abort."""
        for end in ("commit", "abort"):
            sim, cluster, coordinator = make()
            graph = coordinator.certifier.graph

            def body(task):
                reader = yield from coordinator.begin(task)
                yield from coordinator.read(task, reader, b"x")
                writer = yield from coordinator.begin(task)
                coordinator.write(writer, b"x", b"new")
                yield from coordinator.commit(task, writer)
                during = (writer.txid in graph._in, len(graph))
                if end == "commit":
                    yield from coordinator.commit(task, reader)
                else:
                    coordinator.abort(reader)
                return during, len(graph)

            during, after = drive(sim, cluster, body)
            assert during == (True, 2)
            assert after == 0

    def test_forgotten_exactly_when_the_watermark_passes_its_commit(self):
        """T1's reader commits, but an older T0 still holds the
        watermark below T1's commit: T1 stays. T0 ends and the
        watermark jumps to a snapshot taken after T1's commit — and
        before the reader's: T1 leaves at that moment, the reader does
        not."""
        sim, cluster, coordinator = make()
        graph = coordinator.certifier.graph
        queues = []

        def body(task):
            oldest = yield from coordinator.begin(task)
            reader = yield from coordinator.begin(task)
            yield from coordinator.read(task, reader, b"x")
            t1 = yield from coordinator.begin(task)
            coordinator.write(t1, b"x", b"new")
            t1_ts = yield from coordinator.commit(task, t1)
            queues.append(list(coordinator.certifier._retiring))
            later = yield from coordinator.begin(task)
            reader_ts = yield from coordinator.commit(task, reader)
            queues.append(list(coordinator.certifier._retiring))
            assert t1.txid in graph._in
            coordinator.abort(oldest)
            queues.append(list(coordinator.certifier._retiring))
            assert t1.txid not in graph._in and t1.txid not in graph._out
            yield from coordinator.commit(task, later)
            assert oldest.snapshot_ts < t1_ts < later.snapshot_ts < reader_ts
            return (t1_ts, t1.txid), (reader_ts, reader.txid)

        t1, reader = drive(sim, cluster, body)
        assert queues == [[t1], [t1, reader], [reader]]
        assert len(graph) == 0 and coordinator.certifier._retiring == []

    def test_failover_reset_retires_everything(self):
        sim, cluster, coordinator = make()
        graph = coordinator.certifier.graph

        def body(task):
            reader = yield from coordinator.begin(task)
            yield from coordinator.read(task, reader, b"x")
            writer = yield from coordinator.begin(task)
            coordinator.write(writer, b"x", b"new")
            yield from coordinator.commit(task, writer)
            before = len(graph)
            yield from coordinator.reset_after_failover(
                task, 0, coordinator.stores[0].group
            )
            return before, reader.status

        before, status = drive(sim, cluster, body)
        assert before == 2
        assert status == "aborted" and coordinator.aborts_failover == 1
        assert len(graph) == 0 and coordinator.certifier._retiring == []
