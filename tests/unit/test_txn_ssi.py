"""Unit tests for the SSI transaction layer (repro.txn).

Covers the serialization graph and offline anomaly checker on
hand-built histories, and the coordinator's isolation behavior on a
live simulated cluster: write skew aborted under SSI but admitted
under SI (and then caught offline), first-committer-wins, snapshot
stability across a concurrent commit, and read-your-writes.
"""

import pytest

from repro.bench import run_until
from repro.hw import Cluster
from repro.sim import Simulator
from repro.txn import (
    CommittedTxn,
    SerializationGraph,
    TxnAborted,
    build_serialization_edges,
    build_txn_system,
    describe_cycle,
    find_cycle,
    key_in_range,
)


def make(mode="ssi", seed=23):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=2, mode=mode)
    return sim, cluster, coordinator


def drive(sim, cluster, body, until_ms=20_000):
    done = {}

    def wrapper(task):
        done["r"] = yield from body(task)

    task = cluster[0].os.spawn(wrapper, "client")
    run_until(
        sim, lambda: "r" in done or task.process.triggered, deadline_ms=until_ms
    )
    if task.process.triggered and not task.process.ok:
        raise task.process.value
    return done["r"]


def seed_keys(coordinator, task, keys):
    txn = yield from coordinator.begin(task)
    for key in keys:
        coordinator.write(txn, key, b"\x01" * 8)
    yield from coordinator.commit(task, txn)


class TestSerializationGraph:
    def test_pivot_requires_both_edge_directions(self):
        graph = SerializationGraph()
        graph.add_rw(1, 2)
        assert graph.pivot(1) is None  # out only
        assert graph.pivot(2) is None  # in only
        graph.add_rw(2, 3)
        assert graph.pivot(2) == ("T1 -rw-> T2 -rw-> T3", "ssi-pivot")

    def test_retire_leaves_its_edges_on_the_survivors(self):
        # 2 -rw-> 1 -rw-> 3: retiring the ends keeps 1 a pivot (an
        # aborted end, forgotten, would not), and a survivor's phantom
        # flag lasts as long as the survivor.
        graph = SerializationGraph()
        graph.add_rw(2, 1, phantom=True)
        graph.retire(2)
        graph.add_rw(1, 3)
        assert graph.pivot(1) == ("T2 -rw-> T1 -rw-> T3", "ssi-phantom")
        graph.retire(3)
        assert graph.pivot(1) == ("T2 -rw-> T1 -rw-> T3", "ssi-phantom")
        graph.forget(1)
        assert len(graph) == 0 and not graph._phantom
        graph.add_rw(5, 4)
        graph.forget(5)
        graph.add_rw(4, 6)
        assert graph.pivot(4) is None

    def test_forget_removes_both_directions(self):
        graph = SerializationGraph()
        graph.add_rw(1, 2)
        graph.add_rw(2, 3)
        graph.forget(2)
        graph.add_rw(4, 2)  # stale reuse must not resurrect old edges
        assert graph.pivot(2) is None

    def test_self_edges_ignored(self):
        graph = SerializationGraph()
        graph.add_rw(5, 5)
        assert graph.pivot(5) is None

    def test_pivot_reason_plain_vs_phantom(self):
        graph = SerializationGraph()
        graph.add_rw(1, 2)
        graph.add_rw(2, 3)
        assert graph.pivot(2) == ("T1 -rw-> T2 -rw-> T3", "ssi-pivot")
        phantom = SerializationGraph()
        phantom.add_rw(1, 2, phantom=True)
        phantom.add_rw(2, 3)
        assert phantom.pivot(2) == ("T1 -rw-> T2 -rw-> T3", "ssi-phantom")
        outbound = SerializationGraph()
        outbound.add_rw(1, 2)
        outbound.add_rw(2, 3, phantom=True)
        assert outbound.pivot(2)[1] == "ssi-phantom"

    def test_forget_clears_phantom_marks(self):
        graph = SerializationGraph()
        graph.add_rw(1, 2, phantom=True)
        graph.add_rw(2, 3, phantom=True)
        graph.forget(2)
        graph.add_rw(1, 2)
        graph.add_rw(2, 3)
        assert graph.pivot(2)[1] == "ssi-pivot"  # old marks must not stick


class TestKeyInRange:
    def test_bounded_range_inclusive_both_ends(self):
        assert key_in_range(b"k05", b"k05", b"k09")
        assert key_in_range(b"k09", b"k05", b"k09")
        assert not key_in_range(b"k04", b"k05", b"k09")
        assert not key_in_range(b"k10", b"k05", b"k09")

    def test_open_range_covers_everything_past_start(self):
        assert key_in_range(b"zzz", b"k05", None)
        assert not key_in_range(b"k04", b"k05", None)


class TestOfflineChecker:
    def test_write_skew_history_has_a_cycle(self):
        history = [
            CommittedTxn(1, begin_ts=1, commit_ts=10, reads={b"x": 0, b"y": 0}, writes=(b"y",)),
            CommittedTxn(2, begin_ts=2, commit_ts=11, reads={b"x": 0, b"y": 0}, writes=(b"x",)),
        ]
        cycle = find_cycle(history)
        assert cycle is not None and set(cycle) == {1, 2}
        assert describe_cycle(history) == "T1 -rw-> T2 -rw-> T1"

    def test_serializable_history_is_clean(self):
        history = [
            CommittedTxn(1, begin_ts=1, commit_ts=5, reads={}, writes=(b"x",)),
            CommittedTxn(2, begin_ts=6, commit_ts=8, reads={b"x": 5}, writes=(b"y",)),
            CommittedTxn(3, begin_ts=9, commit_ts=12, reads={b"y": 8}, writes=()),
        ]
        assert find_cycle(history) is None
        assert describe_cycle(history) == "none"
        edges = build_serialization_edges(history)
        assert (1, 2, "wr") in edges
        assert (2, 3, "wr") in edges

    def test_edge_kinds_over_version_order(self):
        history = [
            CommittedTxn(1, begin_ts=0, commit_ts=2, reads={}, writes=(b"k",)),
            CommittedTxn(2, begin_ts=3, commit_ts=6, reads={}, writes=(b"k",)),
            # Read version 2, overwritten first by txn 2 at ts 6.
            CommittedTxn(3, begin_ts=4, commit_ts=9, reads={b"k": 2}, writes=()),
        ]
        edges = build_serialization_edges(history)
        assert (1, 2, "ww") in edges
        assert (1, 3, "wr") in edges
        assert (3, 2, "rw") in edges

    def test_predicate_edges_from_recorded_scans(self):
        history = [
            # Scanner covered [k00, k09] but never observed k05 per-key.
            CommittedTxn(
                1, begin_ts=1, commit_ts=20, reads={b"k02": 0},
                writes=(), scans=((b"k00", b"k09"),),
            ),
            # Inserted k05 after the scanner's snapshot: phantom rw edge.
            CommittedTxn(2, begin_ts=2, commit_ts=10, reads={}, writes=(b"k05",)),
            # Writes outside the range raise no predicate edge.
            CommittedTxn(3, begin_ts=3, commit_ts=12, reads={}, writes=(b"k10",)),
        ]
        edges = build_serialization_edges(history)
        assert (1, 2, "rw") in edges
        assert (1, 3, "rw") not in edges

    def test_open_ended_scan_covers_all_later_keys(self):
        history = [
            CommittedTxn(
                1, begin_ts=1, commit_ts=20, reads={}, writes=(),
                scans=((b"k05", None),),
            ),
            CommittedTxn(2, begin_ts=2, commit_ts=10, reads={}, writes=(b"zz",)),
            CommittedTxn(3, begin_ts=3, commit_ts=12, reads={}, writes=(b"k00",)),
        ]
        edges = build_serialization_edges(history)
        assert (1, 2, "rw") in edges
        assert (1, 3, "rw") not in edges

    def test_scan_keys_already_read_are_not_double_counted(self):
        # The scanner saw k05's version at ts 10; the per-key rule owns
        # that edge (there is no newer version, so no rw at all).
        history = [
            CommittedTxn(1, begin_ts=11, commit_ts=20, reads={b"k05": 10},
                         writes=(), scans=((b"k00", b"k09"),)),
            CommittedTxn(2, begin_ts=2, commit_ts=10, reads={}, writes=(b"k05",)),
        ]
        edges = build_serialization_edges(history)
        assert (1, 2, "rw") not in edges
        assert (2, 1, "wr") in edges

    def test_phantom_write_skew_history_cycles(self):
        # Two scanners, each inserting into the other's range — the
        # predicate analogue of the classic write-skew cycle.
        history = [
            CommittedTxn(1, begin_ts=1, commit_ts=10, reads={},
                         writes=(b"b01",), scans=((b"a00", b"a99"),)),
            CommittedTxn(2, begin_ts=2, commit_ts=11, reads={},
                         writes=(b"a01",), scans=((b"b00", b"b99"),)),
        ]
        cycle = find_cycle(history)
        assert cycle is not None and set(cycle) == {1, 2}
        assert describe_cycle(history) == "T1 -rw-> T2 -rw-> T1"


def test_committed_reader_write_skew():
    """Write skew through a reader that has already committed (hole
    class S1).

    T1 ``r(x) w(y)`` commits; T2, concurrent with it, read ``y`` before
    that and writes ``x`` after. Each read what the other overwrote — a
    cycle of two rw edges. T1 stays probed after its commit, so T2's
    write raises ``T1 -rw-> T2``; T1, committed, now has an edge on
    both sides and cannot abort, so T2 does, at that write.
    """
    sim, cluster, coordinator = make()

    def body(task):
        yield from seed_keys(coordinator, task, [b"x", b"y"])
        first = yield from coordinator.begin(task)
        second = yield from coordinator.begin(task)
        yield from coordinator.read(task, first, b"x")
        yield from coordinator.read(task, second, b"y")
        coordinator.write(first, b"y", b"\x02" * 8)
        yield from coordinator.commit(task, first)
        with pytest.raises(TxnAborted) as aborted:
            coordinator.write(second, b"x", b"\x03" * 8)
        return first, second, aborted.value

    first, second, aborted = drive(sim, cluster, body)
    assert (first.status, second.status) == ("committed", "aborted")
    assert aborted.reason == "ssi-pivot"
    assert aborted.detail == f"T{second.txid} -rw-> T{first.txid} -rw-> T{second.txid}"
    assert find_cycle(coordinator.history) is None


def test_read_only_anomaly():
    """Fekete's read-only anomaly (hole class S2).

    A reads ``y``; B overwrites ``y`` and commits; C, begun after that,
    reads ``x`` and the new ``y`` and commits read-only; A then writes
    ``x``. C saw B but not A, A did not see B: ``A -rw-> B -wr-> C
    -rw-> A``. C stays probed after its commit, so A's write raises
    ``C -rw-> A``, and A — now with an edge on both sides — is the
    pivot its own commit aborts.
    """
    sim, cluster, coordinator = make()

    def body(task):
        yield from seed_keys(coordinator, task, [b"x", b"y"])
        a = yield from coordinator.begin(task)
        b = yield from coordinator.begin(task)
        yield from coordinator.read(task, a, b"y")
        coordinator.write(b, b"y", b"\x02" * 8)
        yield from coordinator.commit(task, b)
        c = yield from coordinator.begin(task)
        yield from coordinator.read(task, c, b"x")
        yield from coordinator.read(task, c, b"y")
        yield from coordinator.commit(task, c)
        coordinator.write(a, b"x", b"\x03" * 8)
        with pytest.raises(TxnAborted) as aborted:
            yield from coordinator.commit(task, a)
        return a, b, c, aborted.value

    a, b, c, aborted = drive(sim, cluster, body)
    assert [t.status for t in (a, b, c)] == ["aborted", "committed", "committed"]
    assert aborted.reason == "ssi-pivot"
    assert aborted.detail == f"T{c.txid} -rw-> T{a.txid} -rw-> T{b.txid}"
    assert find_cycle(coordinator.history) is None


def test_committed_pivot():
    """The same cycle with the pivot committed first (hole class S3).

    As above, but A commits its ``w(x)`` after C has begun and before C
    reads. C's ``r(x)`` then raises ``C -rw-> A`` against an A that is
    already committed with an out-edge to B: A is a pivot that can no
    longer abort, so C, the only party still alive, aborts at that
    read.
    """
    sim, cluster, coordinator = make()

    def body(task):
        yield from seed_keys(coordinator, task, [b"x", b"y"])
        a = yield from coordinator.begin(task)
        b = yield from coordinator.begin(task)
        yield from coordinator.read(task, a, b"y")
        coordinator.write(b, b"y", b"\x02" * 8)
        yield from coordinator.commit(task, b)
        c = yield from coordinator.begin(task)
        coordinator.write(a, b"x", b"\x03" * 8)
        yield from coordinator.commit(task, a)
        with pytest.raises(TxnAborted) as aborted:
            yield from coordinator.read(task, c, b"x")
        return a, b, c, aborted.value

    a, b, c, aborted = drive(sim, cluster, body)
    assert [t.status for t in (a, b, c)] == ["committed", "committed", "aborted"]
    assert aborted.reason == "ssi-pivot"
    assert aborted.detail == f"T{c.txid} -rw-> T{a.txid} -rw-> T{b.txid}"
    assert find_cycle(coordinator.history) is None


def test_a_validated_commit_counts_as_committed_while_it_installs():
    """W read ``x``, which X then overwrote and committed: ``W -rw->
    X``. W writes ``y``, passes validation and starts installing. R,
    begun after X committed, has read X's ``x``; while W installs, R
    reads ``y`` and raises ``R -rw-> W``. W can no longer abort, so R
    does — or R, read-only, would commit ``R -rw-> W -rw-> X -wr->
    R``."""
    sim, cluster, coordinator = make()
    seen = {}

    def writer(task):
        yield from seed_keys(coordinator, task, [b"x", b"y"])
        w = yield from coordinator.begin(task)
        yield from coordinator.read(task, w, b"x")
        x = yield from coordinator.begin(task)
        coordinator.write(x, b"x", b"\x02" * 8)
        yield from coordinator.commit(task, x)
        seen["r"] = yield from coordinator.begin(task)
        yield from coordinator.read(task, seen["r"], b"x")
        coordinator.write(w, b"y", b"\x03" * 8)
        seen["w"] = w
        yield from coordinator.commit(task, w)
        return w

    def reader(task):
        while "w" not in seen or seen["w"].commit_ts is None:
            yield from task.sleep(100)
        try:
            yield from coordinator.read(task, seen["r"], b"y")
        except TxnAborted as exc:
            seen["aborted"] = exc
        # The read's edge was raised before W published.
        seen["published"] = seen["w"].status == "committed"

    cluster[1].os.spawn(reader, "reader")
    w = drive(sim, cluster, writer)
    run_until(sim, lambda: "published" in seen, deadline_ms=1_000)
    assert w.status == "committed" and not seen["published"]
    assert seen["aborted"].reason == "ssi-pivot"
    assert find_cycle(coordinator.history) is None


class TestIsolation:
    def _write_skew(self, mode):
        sim, cluster, coordinator = make(mode=mode)
        outcomes = {}

        def setup(task):
            yield from seed_keys(coordinator, task, [b"wsx", b"wsy"])
            outcomes["seeded"] = True

        drive(sim, cluster, setup)
        rendezvous = [False, False]

        def side_body(side):
            def body(task):
                txn = yield from coordinator.begin(task)
                try:
                    yield from coordinator.read(task, txn, b"wsx")
                    yield from coordinator.read(task, txn, b"wsy")
                    rendezvous[side] = True
                    while not (rendezvous[0] and rendezvous[1]):
                        yield from task.sleep(5_000)
                    coordinator.write(
                        txn, b"wsy" if side == 0 else b"wsx", b"\x00" * 8
                    )
                    yield from coordinator.commit(task, txn)
                    outcomes[side] = "committed"
                except TxnAborted as exc:
                    outcomes[side] = f"aborted:{exc.reason}"

            return body

        for side in range(2):
            cluster[0].os.spawn(side_body(side), f"ws{side}")
        run_until(sim, lambda: 0 in outcomes and 1 in outcomes, deadline_ms=20_000)
        return coordinator, outcomes

    def test_write_skew_aborted_under_ssi(self):
        coordinator, outcomes = self._write_skew("ssi")
        results = sorted(outcomes[side] for side in range(2))
        assert results == ["aborted:ssi-pivot", "committed"]
        assert coordinator.aborts_ssi == 1
        assert describe_cycle(coordinator.history) == "none"

    def test_write_skew_admitted_under_si_and_caught_offline(self):
        coordinator, outcomes = self._write_skew("si")
        assert [outcomes[side] for side in range(2)] == ["committed", "committed"]
        assert coordinator.aborts_ssi == 0
        assert describe_cycle(coordinator.history) != "none"

    def test_first_committer_wins(self):
        sim, cluster, coordinator = make()

        def body(task):
            yield from seed_keys(coordinator, task, [b"fcw"])
            first = yield from coordinator.begin(task)
            second = yield from coordinator.begin(task)
            coordinator.write(first, b"fcw", b"\x02" * 8)
            coordinator.write(second, b"fcw", b"\x03" * 8)
            yield from coordinator.commit(task, first)
            with pytest.raises(TxnAborted) as exc_info:
                yield from coordinator.commit(task, second)
            return exc_info.value.reason

        assert drive(sim, cluster, body) == "ww-conflict"
        assert coordinator.aborts_ww == 1

    def test_snapshot_stable_across_concurrent_commit(self):
        sim, cluster, coordinator = make()

        def body(task):
            yield from seed_keys(coordinator, task, [b"snap"])
            reader = yield from coordinator.begin(task)
            before = yield from coordinator.read(task, reader, b"snap")
            writer = yield from coordinator.begin(task)
            coordinator.write(writer, b"snap", b"\x09" * 8)
            yield from coordinator.commit(task, writer)
            after = yield from coordinator.read(task, reader, b"snap")
            yield from coordinator.commit(task, reader)
            fresh = yield from coordinator.begin(task)
            latest = yield from coordinator.read(task, fresh, b"snap")
            yield from coordinator.commit(task, fresh)
            return before, after, latest

        before, after, latest = drive(sim, cluster, body)
        assert before == after == b"\x01" * 8  # snapshot held
        assert latest == b"\x09" * 8  # later snapshot sees the commit

    def test_read_your_writes_and_unwritten_miss(self):
        sim, cluster, coordinator = make()

        def body(task):
            txn = yield from coordinator.begin(task)
            missing = yield from coordinator.read(task, txn, b"nope")
            coordinator.write(txn, b"ryw", b"mine-own!")
            own = yield from coordinator.read(task, txn, b"ryw")
            yield from coordinator.commit(task, txn)
            return missing, own

        missing, own = drive(sim, cluster, body)
        assert missing is None
        assert own == b"mine-own!"

    def test_read_only_txn_never_aborts_under_ssi(self):
        sim, cluster, coordinator = make()

        def body(task):
            yield from seed_keys(coordinator, task, [b"roa", b"rob"])
            reader = yield from coordinator.begin(task)
            yield from coordinator.read(task, reader, b"roa")
            writer = yield from coordinator.begin(task)
            coordinator.write(writer, b"roa", b"\x05" * 8)
            coordinator.write(writer, b"rob", b"\x05" * 8)
            yield from coordinator.commit(task, writer)
            yield from coordinator.read(task, reader, b"rob")
            yield from coordinator.commit(task, reader)
            return True

        assert drive(sim, cluster, body)
        assert describe_cycle(coordinator.history) == "none"


class TestScans:
    def test_scan_snapshot_stable_and_later_snapshot_sees_insert(self):
        sim, cluster, coordinator = make()

        def body(task):
            yield from seed_keys(coordinator, task, [b"s01", b"s03", b"s05"])
            txn = yield from coordinator.begin(task)
            first = yield from coordinator.scan(task, txn, b"s00", 10)
            writer = yield from coordinator.begin(task)
            coordinator.insert(writer, b"s02", b"\x07" * 8)
            yield from coordinator.commit(task, writer)
            second = yield from coordinator.scan(task, txn, b"s00", 10)
            yield from coordinator.commit(task, txn)
            fresh = yield from coordinator.begin(task)
            third = yield from coordinator.scan(task, fresh, b"s00", 10)
            yield from coordinator.commit(task, fresh)
            return first, second, third

        first, second, third = drive(sim, cluster, body)
        assert [key for key, _ in first] == [b"s01", b"s03", b"s05"]
        assert second == first  # snapshot held despite the new insert
        assert [key for key, _ in third] == [b"s01", b"s02", b"s03", b"s05"]
        assert describe_cycle(coordinator.history) == "none"

    def test_scan_includes_own_buffered_inserts(self):
        sim, cluster, coordinator = make()

        def body(task):
            yield from seed_keys(coordinator, task, [b"t01", b"t05"])
            txn = yield from coordinator.begin(task)
            coordinator.insert(txn, b"t03", b"mine-own")
            results = yield from coordinator.scan(task, txn, b"t00", 10)
            yield from coordinator.commit(task, txn)
            return results

        results = drive(sim, cluster, body)
        assert results == [
            (b"t01", b"\x01" * 8),
            (b"t03", b"mine-own"),
            (b"t05", b"\x01" * 8),
        ]

    def test_scan_limit_and_range_recording(self):
        sim, cluster, coordinator = make()

        def body(task):
            yield from seed_keys(
                coordinator, task, [b"u%02d" % i for i in range(5)]
            )
            txn = yield from coordinator.begin(task)
            short = yield from coordinator.scan(task, txn, b"u01", 2)
            exhausted = yield from coordinator.scan(task, txn, b"u03", 10)
            ranges = list(txn.scans)
            yield from coordinator.commit(task, txn)
            return short, exhausted, ranges

        short, exhausted, ranges = drive(sim, cluster, body)
        assert [key for key, _ in short] == [b"u01", b"u02"]
        assert [key for key, _ in exhausted] == [b"u03", b"u04"]
        # Filled limit: closed at the last returned key. Ran off the
        # end: open-ended (next-key-locking convention).
        assert ranges == [(b"u01", b"u02"), (b"u03", None)]

    def test_insert_of_visible_key_rejected(self):
        sim, cluster, coordinator = make()

        def body(task):
            yield from seed_keys(coordinator, task, [b"dup"])
            txn = yield from coordinator.begin(task)
            with pytest.raises(ValueError, match="visible at snapshot"):
                coordinator.insert(txn, b"dup", b"\x02" * 8)
            coordinator.abort(txn)
            return True

        assert drive(sim, cluster, body)

    def test_concurrent_duplicate_insert_first_committer_wins(self):
        sim, cluster, coordinator = make()

        def body(task):
            first = yield from coordinator.begin(task)
            second = yield from coordinator.begin(task)
            coordinator.insert(first, b"race", b"\x01" * 8)
            coordinator.insert(second, b"race", b"\x02" * 8)
            yield from coordinator.commit(task, first)
            with pytest.raises(TxnAborted) as exc_info:
                yield from coordinator.commit(task, second)
            return exc_info.value.reason

        assert drive(sim, cluster, body) == "ww-conflict"
