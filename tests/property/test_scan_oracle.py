"""Property wall around snapshot scans and phantom protection.

Random schedules of committed inserts, long-running transactions with
buffered inserts, and ``scan(start, limit)`` calls run on the live
simulated cluster; every scan is checked against a brute-force oracle
that range-reads the published version chains at the scanning
transaction's snapshot (merged with its own write buffer). The pinned
regression is the predicate write-skew from the ISSUE: two scanners
inserting into each other's ranges must lose exactly one transaction
to ``ssi-phantom`` under SSI, while ``mode="si"`` admits both and the
offline checker names the rw-cycle — the phantom analogue of the
existing Fekete-pivot wall.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench import run_until
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import Simulator
from repro.txn import (
    TxnAborted,
    build_txn_system,
    describe_cycle,
    find_cycle,
    key_in_range,
)

SEED_KEYS = [f"k{index:02d}".encode() for index in range(4)]
POOL_KEYS = [f"p{index:02d}".encode() for index in range(8)]
UNIVERSE = sorted(SEED_KEYS + POOL_KEYS)


def make(mode="ssi", seed=23):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=2, mode=mode)
    return sim, cluster, coordinator


def drive(sim, cluster, body, until_ms=30_000):
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


def oracle_scan(coordinator, txn, start, limit, universe=UNIVERSE):
    """Brute-force snapshot range read over the known key universe."""
    visible = {}
    for key in universe:
        store = coordinator.stores[coordinator.locate(key)]
        version = store.version_at(key, txn.snapshot_ts)
        if version is not None:
            visible[key] = version.value
    visible.update(txn.writes)  # own buffer wins, exactly like reads
    keys = sorted(key for key in visible if key >= start)[:limit]
    return [(key, visible[key]) for key in keys]


def scan_records(coordinator, txn, since=0):
    """Everything a scan leaves behind besides its result."""
    return (
        dict(txn.reads),
        list(txn.scans),
        txn.observations[since:],
        sorted(coordinator.certifier.graph._out.get(txn.txid, ())),
    )


def reference_scan(coordinator, txn, start, limit):
    """The per-key loop the batched scan replaced, replayed on copies
    of the transaction's state with offline slot reads in place of
    RDMA: ``(result, records)`` a scan issued now must produce."""
    reads, scans = dict(txn.reads), list(txn.scans)
    observations = []
    edges = set(coordinator.certifier.graph._out.get(txn.txid, ()))
    others = [t for t in coordinator.certifier.active.values() if t.txid != txn.txid]

    def note_read_edges(store, key):
        first = store.first_after(key, txn.snapshot_ts)
        if first is not None:
            edges.add(first.txid)
        edges.update(other.txid for other in others if key in other.writes)

    merged = set(key for key in txn.writes if key >= start)
    for store in coordinator.stores:
        merged.update(store.keys_from(start))
    results = []
    for key in sorted(merged):
        if key in txn.writes:
            kind, value, replica, stale = "own-write", txn.writes[key], None, False
        else:
            store = coordinator.stores[coordinator.locate(key)]
            version = store.version_at(key, txn.snapshot_ts)
            reads.setdefault(key, version.commit_ts if version else 0)
            note_read_edges(store, key)
            if version is None:
                continue
            durable = store.read_durable_offline(0, key)
            kind, value, replica = "scan", version.value, 0
            stale = durable is None or durable[0] < version.commit_ts
        observations.append(
            {"txid": txn.txid, "kind": kind, "key": key, "value": value,
             "replica": replica, "stale": stale}
        )
        results.append((key, value))
        if len(results) == limit:
            break
    end = results[-1][0] if len(results) == limit else None
    scans.append((start, end))
    edges.update(
        other.txid
        for other in others
        if any(k not in reads and key_in_range(k, start, end) for k in other.writes)
    )
    return results, (reads, scans, observations, sorted(edges))


@st.composite
def schedules(draw):
    """A schedule of actions over a unique-key insert pool.

    Inserted keys are globally unique (a permutation prefix of the
    pool), so no schedule can trip the duplicate-insert guard; commit
    outcomes are free to abort (phantoms included) — the property
    under test is scan-vs-oracle agreement, not commit success.
    """
    n_seeds = draw(st.integers(1, len(SEED_KEYS)))
    pool = draw(st.permutations(POOL_KEYS))
    cursor = 0
    open_names = []
    next_txn = 0
    actions = []
    for _ in range(draw(st.integers(3, 14))):
        choices = ["open", "commit_insert"]
        if open_names:
            choices += ["scan", "txn_insert", "close"]
        if cursor >= len(pool):
            choices = [c for c in choices if not c.endswith("insert")]
        kind = draw(st.sampled_from(choices))
        if kind == "open":
            name = f"t{next_txn}"
            next_txn += 1
            open_names.append(name)
            actions.append(("open", name))
        elif kind == "commit_insert":
            actions.append(("commit_insert", pool[cursor]))
            cursor += 1
        elif kind == "txn_insert":
            name = draw(st.sampled_from(open_names))
            actions.append(("txn_insert", name, pool[cursor]))
            cursor += 1
        elif kind == "scan":
            name = draw(st.sampled_from(open_names))
            start = draw(st.sampled_from(UNIVERSE))
            limit = draw(st.integers(1, 6))
            actions.append(("scan", name, start, limit))
        else:
            name = draw(st.sampled_from(open_names))
            open_names.remove(name)
            actions.append(("close", name))
    for name in open_names:
        actions.append(("close", name))
    return n_seeds, actions


@given(schedules())
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_scans_match_brute_force_snapshot_oracle(schedule):
    n_seeds, actions = schedule
    sim, cluster, coordinator = make()

    def body(task):
        txn = yield from coordinator.begin(task)
        for index, key in enumerate(SEED_KEYS[:n_seeds]):
            coordinator.write(txn, key, b"seed%04d" % index)
        yield from coordinator.commit(task, txn)

        open_txns = {}
        mismatches = []
        for action in actions:
            if action[0] == "open":
                open_txns[action[1]] = yield from coordinator.begin(task)
            elif action[0] == "commit_insert":
                txn = yield from coordinator.begin(task)
                coordinator.insert(txn, action[1], b"cins" + action[1])
                try:
                    yield from coordinator.commit(task, txn)
                except TxnAborted:
                    pass
            elif action[0] == "txn_insert":
                txn = open_txns[action[1]]
                if txn.status == "active":
                    coordinator.insert(txn, action[2], b"tins" + action[2])
            elif action[0] == "scan":
                txn = open_txns[action[1]]
                if txn.status != "active":
                    continue
                expected = oracle_scan(coordinator, txn, action[2], action[3])
                reference, records = reference_scan(
                    coordinator, txn, action[2], action[3]
                )
                mark = len(txn.observations)
                got = yield from coordinator.scan(
                    task, txn, action[2], action[3]
                )
                if got != expected or got != reference:
                    mismatches.append((action, expected, got))
                if scan_records(coordinator, txn, mark) != records:
                    mismatches.append((action, records, scan_records(coordinator, txn, mark)))
            else:  # close
                txn = open_txns.pop(action[1])
                if txn.status == "active":
                    try:
                        yield from coordinator.commit(task, txn)
                    except TxnAborted:
                        pass
        return mismatches

    mismatches = drive(sim, cluster, body)
    assert mismatches == [], mismatches
    # Whatever committed must be serializable — phantoms included.
    assert find_cycle(coordinator.history) is None, describe_cycle(
        coordinator.history
    )


def test_scan_larger_than_one_read_batch_matches_the_oracle():
    """One group, so the whole scan is one channel's batch: 40 slots in
    one run (a single READ), then 40 scattered slots — more extents
    than a lane's share of the send ring (8) holds, posted as five
    sub-batches."""
    sim = Simulator(seed=23)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=1, region_size=1 << 17)
    universe = [b"k%03d" % index for index in range(80)]

    def body(task):
        txn = yield from coordinator.begin(task)
        for key in universe:
            coordinator.write(txn, key, b"seed" + key)
        yield from coordinator.commit(task, txn)

        txn = yield from coordinator.begin(task)
        expected = oracle_scan(coordinator, txn, b"k020", 40, universe)
        got = [(yield from coordinator.scan(task, txn, b"k020", 40))]
        # Own writes on every odd key leave the even slots to read.
        for key in universe[1::2]:
            coordinator.write(txn, key, b"mine" + key)
        expected_scattered = oracle_scan(coordinator, txn, b"k000", 80, universe)
        got.append((yield from coordinator.scan(task, txn, b"k000", 80)))
        return [expected, expected_scattered], got, txn

    with tracing(record_kernel=False) as tracer:
        expected, got, txn = drive(sim, cluster, body)
    assert got == expected
    assert [len(rows) for rows in got] == [40, 80]
    assert tracer.counters["txn.scan_reads"] == 40 + 40
    assert tracer.counters["reader.wqes"] == 1 + 40
    assert tracer.counters["reader.batches"] == 1 + 5
    scanned = [o for o in txn.observations if o["kind"] == "scan"]
    assert len(scanned) == 80 and not any(o["stale"] for o in scanned)


def _phantom_write_skew(mode):
    """Two scanners insert into each other's scanned ranges."""
    sim, cluster, coordinator = make(mode=mode)
    outcomes = {}

    def seed(task):
        txn = yield from coordinator.begin(task)
        coordinator.insert(txn, b"a00", b"." * 8)
        coordinator.insert(txn, b"b00", b"." * 8)
        yield from coordinator.commit(task, txn)

    rendezvous = [False, False]

    def scanner(side, myrange, insert_key):
        def body(task):
            txn = yield from coordinator.begin(task)
            try:
                yield from coordinator.scan(task, txn, myrange, 8)
                rendezvous[side] = True
                while not (rendezvous[0] and rendezvous[1]):
                    yield from task.sleep(5_000)
                coordinator.insert(txn, insert_key, b"x" * 8)
                yield from coordinator.commit(task, txn)
                outcomes[side] = "committed"
            except TxnAborted as exc:
                outcomes[side] = f"aborted:{exc.reason}"

        return body

    drive(sim, cluster, seed)
    cluster[0].os.spawn(scanner(0, b"a", b"b01"), "scan0")
    cluster[0].os.spawn(scanner(1, b"b", b"a01"), "scan1")
    run_until(sim, lambda: 0 in outcomes and 1 in outcomes, deadline_ms=20_000)
    return coordinator, outcomes


def test_phantom_write_skew_aborted_under_ssi():
    coordinator, outcomes = _phantom_write_skew("ssi")
    results = sorted(outcomes[side] for side in range(2))
    assert results == ["aborted:ssi-phantom", "committed"]
    assert coordinator.aborts_phantom == 1
    assert coordinator.aborts_ssi == 0
    assert describe_cycle(coordinator.history) == "none"


def test_phantom_write_skew_admitted_under_si_and_caught_offline():
    coordinator, outcomes = _phantom_write_skew("si")
    assert [outcomes[side] for side in range(2)] == ["committed", "committed"]
    assert coordinator.aborts_phantom == 0
    cycle = find_cycle(coordinator.history)
    assert cycle is not None
    scanners = {
        txn.txid for txn in coordinator.history if txn.scans
    }
    assert set(cycle) == scanners
    assert "-rw->" in describe_cycle(coordinator.history)
