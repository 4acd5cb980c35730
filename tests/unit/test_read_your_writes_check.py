"""``check_read_your_writes``: the same verdicts in linear time, and
still able to fail.

The history reconstruction indexes each key's commit timestamps once
and bisects per read; the loop it replaced rescanned the whole history
for every read of every committed transaction. That loop is kept here
as the reference and compared on random histories (right and wrong
reads alike) and on the coordinators of the transactional chaos
corpus; a 20,000-commit history must check in under two seconds.

A durable slot older than the version chain — a stale copy serving a
snapshot read — must still fail the invariant, naming the transaction,
the key and the replica.
"""

import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import run_until
from repro.faults import scenario
from repro.faults.invariants import InvariantResult, check_read_your_writes
from repro.faults.sweep import run_replay
from repro.hw import Cluster
from repro.sim import Simulator
from repro.txn import CommittedTxn, build_txn_system
from tests.integration.test_chaos_corpus import corpus_specs


def reference_check(coordinator, name="read-your-writes-failover"):
    """The quadratic reconstruction, as it was."""
    stale = coordinator.stale_reads
    if stale:
        first = stale[0]
        return InvariantResult(
            name,
            False,
            f"{len(stale)} stale reads, first T{first['txid']} "
            f"{first['key']!r} from r{first['replica']}",
        )
    mismatches = []
    for txn in coordinator.history:
        for key, seen_ts in txn.reads.items():
            expected = max(
                (
                    other.commit_ts
                    for other in coordinator.history
                    if key in other.writes and other.commit_ts <= txn.begin_ts
                ),
                default=0,
            )
            if seen_ts != expected:
                mismatches.append(
                    f"T{txn.txid} {key!r} saw ts={seen_ts} expected {expected}"
                )
    for obs in coordinator.read_violations:
        mismatches.append(
            f"T{obs['txid']} own-write read of unwritten {obs['key']!r}"
        )
    if mismatches:
        return InvariantResult(
            name, False, f"{len(mismatches)}: " + "; ".join(mismatches[:2])
        )
    return InvariantResult(name, True, f"{coordinator.reads_observed} reads consistent")


def folded(history, violations=()):
    return SimpleNamespace(
        history=history,
        stale_reads=[],
        read_violations=[{"txid": txid, "key": key} for txid, key in violations],
        reads_observed=sum(len(txn.reads) for txn in history),
    )


KEYS = [b"a", b"b", b"c", b"d"]


@st.composite
def histories(draw):
    """Committed transactions, each read seeing either the version its
    snapshot entitles it to or any other commit of the key (or the
    initial state). Timestamps may tie — a snapshot taken at another
    transaction's commit sees it — which the coordinator's unique
    clock never produces, but the reconstruction must still agree."""
    n_txns = draw(st.integers(1, 10))
    txns = []
    for index in range(n_txns):
        begin_ts = draw(st.integers(1, 2 * n_txns))
        commit_ts = begin_ts + draw(st.integers(1, n_txns))
        writes = tuple(sorted(draw(st.sets(st.sampled_from(KEYS), max_size=3))))
        txns.append([index + 1, begin_ts, commit_ts, writes])
    history = []
    for txid, begin_ts, commit_ts, writes in txns:
        reads = {}
        for key in draw(st.sets(st.sampled_from(KEYS), max_size=3)):
            seen = [0] + [c for _, _, c, w in txns if key in w]
            entitled = max(c for c in seen if c <= begin_ts)
            reads[key] = draw(st.sampled_from([entitled, entitled] + seen))
        history.append(CommittedTxn(txid, begin_ts, commit_ts, reads, writes))
    violations = draw(st.lists(
        st.tuples(st.integers(1, n_txns), st.sampled_from(KEYS)), max_size=2
    ))
    return history, violations


@given(histories())
@settings(max_examples=150, deadline=None)
def test_same_verdict_and_detail_as_the_quadratic_loop(case):
    history, violations = case
    coordinator = folded(history, violations)
    assert check_read_your_writes(coordinator) == reference_check(coordinator)


TXN_SPECS = ["txn-failover:42", "txn-chaos:42"] + [
    spec for spec in corpus_specs() if spec.startswith("txn-")
]


@pytest.mark.parametrize("spec", TXN_SPECS)
def test_same_verdict_on_the_txn_chaos_corpus(spec, monkeypatch):
    checked = []

    def both(coordinator, *args, **kwargs):
        result = check_read_your_writes(coordinator, *args, **kwargs)
        assert result == reference_check(coordinator, *args, **kwargs)
        checked.append(result)
        return result

    monkeypatch.setattr(scenario, "check_read_your_writes", both)
    assert run_replay(spec).passed
    assert checked and all(result.ok for result in checked)


def test_a_20k_commit_history_checks_in_under_two_seconds():
    history, last = [], {}
    for txid in range(1, 20_001):
        begin_ts, commit_ts = 2 * txid, 2 * txid + 1
        keys = [b"k%04d" % ((txid * step) % 1_000) for step in (1, 7, 13)]
        reads = {key: last.get(key, 0) for key in keys}
        writes = tuple(sorted(set(keys[:2])))
        for key in writes:
            last[key] = commit_ts
        history.append(CommittedTxn(txid, begin_ts, commit_ts, reads, writes))
    coordinator = folded(history)
    started = time.perf_counter()
    result = check_read_your_writes(coordinator)
    elapsed = time.perf_counter() - started
    assert result.ok and coordinator.reads_observed > 50_000
    assert elapsed < 2.0


def test_a_durable_slot_behind_the_version_chain_fails_the_check():
    """Replica 0's slot of ``k`` is put back to the first version after
    the second committed: the next snapshot read cross-checks against
    it, and the invariant names the reader, the key and the replica."""
    sim = Simulator(seed=23)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    coordinator = build_txn_system(sim, cluster, n_groups=2)
    store = coordinator.stores[coordinator.locate(b"k")]
    group = store.group

    def put(task, value):
        txn = yield from coordinator.begin(task)
        coordinator.write(txn, b"k", value)
        yield from coordinator.commit(task, txn)

    def body(task):
        yield from put(task, b"first")
        offset = store.layout.db_position(store._slots[b"k"] * store.slot_size)
        first = group.read_replica(0, offset, store.slot_size)
        yield from put(task, b"second")
        cache = group.replicas[0].nic.cache
        cache.write(group.replica_mrs[0].addr + offset, first)
        txn = yield from coordinator.begin(task)
        value = yield from coordinator.read(task, txn, b"k")
        yield from coordinator.commit(task, txn)
        return txn.txid, value

    done = {}

    def wrapper(task):
        done["r"] = yield from body(task)

    client = cluster[0].os.spawn(wrapper, "client")
    run_until(sim, lambda: client.process.triggered, deadline_ms=1_000)
    assert client.process.ok, client.process.value
    txid, value = done["r"]
    assert value == b"second"  # served from the chain, cross-checked stale
    result = check_read_your_writes(coordinator)
    assert not result.ok
    assert result.detail == f"1 stale reads, first T{txid} b'k' from r0"
