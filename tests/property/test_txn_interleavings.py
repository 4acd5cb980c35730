"""The live-coordinator oracle: random interleavings of a few
transactions, checked for serializability (ROADMAP item 1a).

Each case is a schedule drawn from a seeded stream (``case`` names the
stream, so a case replays bit for bit on any host): three or four
transactions, each ``begin`` then one to three of read / write /
insert / scan over four keys, then ``commit`` or ``abort``, merged in a
random order that keeps every transaction's own order. One client task
runs the merged schedule against a real two-group ``TxnCoordinator``
(the ``make``/``drive`` shape of ``tests/unit/test_txn_ssi.py``), so
the transactions overlap exactly as their steps interleave. What
committed goes to the offline checker.

Under ``mode="si"`` the driver must find cycles: that is its proof of
teeth. Under ``mode="ssi"`` no case may end on a cycle. Cases 16, 19
and 77 did while committed transactions left the SSI probes at commit
(the committed-reader, read-only and committed-pivot holes of
``test_txn_ssi.py``); since they stay probed until the watermark
passes them, those cases abort one transaction more.

All 200 verdicts — per mode and case, the cycle or ``"none"`` and the
committed count — are pinned in ``tests/pins.json``
(``txn-interleavings``). A change that only moves the schedule (a perf
change on the txn path) must leave every one as it is.

In that family ``commit`` blocks the one client task, so no two
commits ever overlap. The second family runs each ``commit`` on a
task of its own and moves on at once, over 400 cases: commits then
overlap each other and the reads, scans and begins behind them (in
about a third of the cases two or more are pending at once). It holds
to the same rules — no cycle under ``ssi``, cycles under ``si`` — and
its 800 verdicts are pinned too (``txn-interleavings-overlap``).

The cycle check trusts the coordinator's account of what each read
saw. So every case also checks the values themselves, from facts the
client holds: every written value names its writer (``T<txid><key>``,
or ``seed<key>``), and every ``commit`` returns its commit timestamp.
A ``read`` or a ``scan`` row must return the reader's own buffered
write of the key, or else the value of the newest committed write of
the key at or below the reader's snapshot (``None`` if there is none).
"""

import functools

import random
import re

import pytest

from repro.bench import run_until
from repro.hw import Cluster
from repro.sim import Simulator
from repro.txn import TxnAborted, build_txn_system, describe_cycle
from tests.pins import assert_pinned

# Two keys exist from the start; the other two are born by inserts.
SEEDED = [b"k0", b"k1"]
KEYS = SEEDED + [b"k2", b"k3"]
CASES = range(100)
OVERLAP_CASES = range(400)  # the overlapping-commit family
MODES = ("ssi", "si")


def schedule(case):
    """The merged step list of one case: ``(txn index, step, key)``."""
    rng = random.Random(f"txn-interleavings/{case}")
    plans = []
    for index in range(rng.choice((3, 4))):
        steps = [(index, "begin", None)]
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("read", "read", "write", "insert", "scan"))
            steps.append((index, kind, rng.choice(KEYS)))
        steps.append((index, "commit" if rng.random() < 0.85 else "abort", None))
        plans.append(steps)
    merged = []
    while plans:
        steps = rng.choice(plans)
        merged.append(steps.pop(0))
        if not steps:
            plans.remove(steps)
    return merged


def _writer(value):
    """The txid a value names (``"seed"`` for a seed value), or ``None``."""
    if value is None:
        return None
    if value.startswith(b"seed"):
        return "seed"
    return int(re.fullmatch(rb"T(\d+)k\d", value).group(1))


def misreads(served, written, committed):
    """Every served value that is neither the reader's own write nor
    the newest committed write of its key at or below the reader's
    snapshot. ``served`` holds ``(reader txid, snapshot, key, value,
    own)``, ``written`` maps a writer to the keys it wrote, and
    ``committed`` a writer to the timestamp its ``commit`` returned."""
    bad = []
    for reader, snapshot, key, value, own in served:
        if own:
            expected = reader
        else:
            visible = [
                (ts, writer)
                for writer, ts in committed.items()
                if key in written.get(writer, ()) and ts <= snapshot
            ]
            expected = max(visible)[1] if visible else None
        if _writer(value) != expected:
            bad.append((reader, key, value, expected))
    return bad


def run_case(case, mode, overlap=False):
    """Run one case; returns the offline checker's verdict on what
    committed (``"none"`` or the cycle), the committed count, and the
    reads that returned a value outside their snapshot (:func:`misreads`).

    With ``overlap`` each ``commit`` runs on a task of its own and the
    schedule moves on at once, so commits overlap each other and the
    steps behind them; the client task joins every commit task at the end.
    """
    sim = Simulator(seed=23)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=2, mode=mode)
    done = {}
    served, written, committed = [], {"seed": set(SEEDED)}, {}

    def commit(task, txn):
        committed[txn.txid] = yield from coordinator.commit(task, txn)

    def overlapped(task, txn):
        try:
            yield from commit(task, txn)
        except TxnAborted:
            pass

    def serve(txn, key, value):
        own = key in written.get(txn.txid, ())
        served.append((txn.txid, txn.snapshot_ts, key, value, own))

    def body(task):
        txn = yield from coordinator.begin(task)
        for key in SEEDED:
            coordinator.write(txn, key, b"seed" + key)
        committed["seed"] = yield from coordinator.commit(task, txn)
        txns = {}
        committers = []
        for index, kind, key in schedule(case):
            if kind == "begin":
                txns[index] = yield from coordinator.begin(task)
                continue
            txn = txns[index]
            if txn.status != "active":
                continue
            value = b"T%d%s" % (txn.txid, key or b"")
            if kind in ("write", "insert"):
                written.setdefault(txn.txid, set()).add(key)
            try:
                if kind == "read":
                    serve(txn, key, (yield from coordinator.read(task, txn, key)))
                elif kind == "write":
                    coordinator.write(txn, key, value)
                elif kind == "insert":
                    try:
                        coordinator.insert(txn, key, value)
                    except ValueError:  # visible at the snapshot
                        coordinator.write(txn, key, value)
                elif kind == "scan":
                    for row in (yield from coordinator.scan(task, txn, key, 2)):
                        serve(txn, *row)
                elif kind == "commit" and overlap:
                    committers.append(
                        cluster[0].os.spawn(
                            lambda sub, txn=txn: overlapped(sub, txn), f"commit{index}"
                        )
                    )
                elif kind == "commit":
                    yield from commit(task, txn)
                else:
                    coordinator.abort(txn)
            except TxnAborted:
                pass
        for committer in committers:
            yield from task.wait(committer.process)
        done["ok"] = True

    task = cluster[0].os.spawn(body, "client")
    run_until(sim, lambda: "ok" in done or task.process.triggered, deadline_ms=20_000)
    if task.process.triggered and not task.process.ok:
        raise task.process.value
    return (
        describe_cycle(coordinator.history),
        len(coordinator.history) - 1,
        misreads(served, written, committed),
    )


@functools.lru_cache(maxsize=None)
def runs(mode, overlap=False):
    """``{case: run_case(...)}`` over every case of a family (run once
    per mode and family, and shared by the tests below)."""
    cases = OVERLAP_CASES if overlap else CASES
    return {case: run_case(case, mode, overlap) for case in cases}


def verdicts(mode, overlap=False):
    """``{case: (cycle or "none", committed)}`` over every case of a family."""
    return {case: run[:2] for case, run in runs(mode, overlap).items()}


def pinned_form(mode, overlap=False):
    """A family's verdicts as the table holds them: committed
    transactions, one digit per case, and the cases that end on a
    cycle."""
    verdict = verdicts(mode, overlap)
    return {
        "committed": "".join(str(committed) for _, committed in verdict.values()),
        "cycles": {case: cycle for case, (cycle, _) in verdict.items() if cycle != "none"},
    }


def _measure(overlap):
    """Both modes' verdicts, after the family's own checks: no cycle
    under SSI, cycles under SI, every read value right."""
    forms = {mode: pinned_form(mode, overlap) for mode in MODES}
    assert forms["ssi"]["cycles"] == {}
    assert forms["si"]["cycles"]
    assert all(not run[2] for mode in MODES for run in runs(mode, overlap).values())
    return forms


def measure():
    return _measure(overlap=False)


def measure_overlap():
    return _measure(overlap=True)


@pytest.mark.parametrize("mode", MODES)
def test_every_verdict_matches_the_pin(mode):
    assert_pinned("txn-interleavings", pinned_form(mode), key=mode)


def test_ssi_commits_no_cycle_on_any_interleaving():
    cycles = {case: cycle for case, (cycle, _) in verdicts("ssi").items() if cycle != "none"}
    assert cycles == {}


def test_si_interleavings_find_cycles():
    cycles = [case for case, (cycle, _) in verdicts("si").items() if cycle != "none"]
    assert cycles


@pytest.mark.parametrize("mode", MODES)
def test_every_overlapping_verdict_matches_the_pin(mode):
    assert_pinned("txn-interleavings-overlap", pinned_form(mode, overlap=True), key=mode)


def test_ssi_commits_no_cycle_with_overlapping_commits():
    verdict = verdicts("ssi", overlap=True)
    assert {case: cycle for case, (cycle, _) in verdict.items() if cycle != "none"} == {}


def test_si_finds_cycles_with_overlapping_commits():
    verdict = verdicts("si", overlap=True)
    assert [case for case, (cycle, _) in verdict.items() if cycle != "none"]


@pytest.mark.parametrize("overlap", [False, True], ids=["one-task", "overlapping"])
@pytest.mark.parametrize("mode", ["ssi", "si"])
def test_every_read_returns_its_own_write_or_its_snapshot_version(mode, overlap):
    bad = {case: run[2] for case, run in runs(mode, overlap).items() if run[2]}
    assert bad == {}
