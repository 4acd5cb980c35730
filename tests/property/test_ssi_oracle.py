"""Property-test wall around the SSI checkers (hypothesis).

Random small snapshot-isolation histories (≤5 transactions, ≤4 keys)
are generated by driving the certifier in ``mode="si"`` through random
begin/commit interleavings — the coordinator's own snapshot reads and
first-committer-wins, with no simulator — and checked three ways
against a brute-force all-permutations serializability oracle:

* Soundness of the offline checker: a history the oracle cannot
  serialize (no permutation reproduces every observed version and the
  final state) must make ``find_cycle`` report a cycle. Equivalently:
  an acyclic multiversion serialization graph implies one-copy
  serializability (Bernstein & Goodman), so ``anomaly == "none"``
  histories must pass the oracle.
* The dangerous-structure theorem the *online* rule relies on (Fekete
  et al.): whenever the offline graph has a cycle, feeding the
  concurrent rw-antidependencies into the online
  :class:`SerializationGraph` must expose a pivot — the transaction
  SSI would have aborted at commit.
* The online graph itself against a naive reference implementation
  under random add/forget streams.

Note the envelope is deliberately one-directional where it must be: a
conflict cycle does not always imply view-non-serializability (blind
writes), so the tests assert only the sound implications.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.txn.certify import Certifier, TxnAborted, VersionIndex
from repro.txn.ssi import (
    CommittedTxn,
    SerializationGraph,
    build_serialization_edges,
    describe_cycle,
    find_cycle,
)

MAX_TXNS = 5
MAX_KEYS = 4
KEYS = [f"k{index}".encode() for index in range(MAX_KEYS)]


# -- SI history generator -----------------------------------------------------------


@st.composite
def si_histories(draw):
    """A random committed SI history, from ``Certifier(mode="si")``.

    Each transaction draws a read set and a write set; a random
    interleaving of begin/commit events orders them. At its begin a
    transaction reads its read set at the snapshot, then buffers its
    write set; at its commit it validates — first-committer-wins
    aborts it if a write-set key was overwritten after its snapshot,
    and it never enters the history — and publishes at once.
    """
    n_txns = draw(st.integers(1, MAX_TXNS))
    n_keys = draw(st.integers(1, MAX_KEYS))
    keys = KEYS[:n_keys]
    specs = [
        (
            sorted(draw(st.sets(st.sampled_from(keys), max_size=n_keys))),
            sorted(draw(st.sets(st.sampled_from(keys), max_size=n_keys))),
        )
        for _ in range(n_txns)
    ]
    event_order = draw(st.permutations(list(range(2 * n_txns))))

    certifier = Certifier([VersionIndex()], lambda key: 0, mode="si")
    txns = {}
    for event in event_order:
        index = event // 2
        if index not in txns:
            reads, writes = specs[index]
            txn = txns[index] = certifier.begin(0)
            for key in reads:
                certifier.read(txn, key)
            for key in writes:
                certifier.write(txn, key, b"v")
            continue
        txn = txns[index]
        try:
            certifier.validate(txn, 0)
        except TxnAborted:
            continue
        if txn.writes:
            certifier.installed(0, [txn.txid])
    return certifier.history


# -- brute-force oracle -------------------------------------------------------------


def oracle_serializable(history):
    """Exists a serial order view-equivalent to the MV history?

    A permutation qualifies when every transaction reads exactly the
    version (writer) it observed in the actual run, and the final
    write per key matches the newest committed version.
    """
    writer_of = {
        (key, txn.commit_ts): txn.txid for txn in history for key in txn.writes
    }
    final = {}
    for txn in sorted(history, key=lambda txn: txn.commit_ts):
        for key in txn.writes:
            final[key] = txn.txid
    for perm in itertools.permutations(history):
        state = {}
        ok = True
        for txn in perm:
            for key, seen_ts in txn.reads.items():
                expected = writer_of.get((key, seen_ts)) if seen_ts else None
                if state.get(key) != expected:
                    ok = False
                    break
            if not ok:
                break
            for key in txn.writes:
                state[key] = txn.txid
        if ok and state == final:
            return True
    return False


def concurrent(a, b):
    return a.begin_ts < b.commit_ts and b.begin_ts < a.commit_ts


# -- properties ---------------------------------------------------------------------


@given(si_histories())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_acyclic_histories_are_serializable(history):
    """No cycle reported ⇒ the brute-force oracle finds a serial order.

    Contrapositive: the offline checker never misses a genuinely
    non-serializable history — the soundness the chaos invariant
    ``no-serialization-anomaly`` rests on.
    """
    if find_cycle(history) is None:
        assert oracle_serializable(history), (
            f"checker said serializable, oracle disagrees: {history}"
        )


@given(si_histories())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cycles_expose_a_pivot_to_the_online_graph(history):
    """Offline cycle ⇒ the online pivot rule would have fired.

    Fekete's dangerous-structure theorem for SI histories: every
    non-serializable execution contains a transaction with both an
    incoming and an outgoing rw-antidependency between concurrent
    transactions. That pivot is what ``Certifier.validate`` aborts,
    so its existence here is exactly "SSI would have prevented this".
    """
    if find_cycle(history) is None:
        return
    by_id = {txn.txid: txn for txn in history}
    graph = SerializationGraph()
    for src, dst, kind in build_serialization_edges(history):
        if kind == "rw" and concurrent(by_id[src], by_id[dst]):
            graph.add_rw(src, dst)
    assert any(graph.pivot(txn.txid) for txn in history), (
        f"cycle without a concurrent-rw pivot: {history}"
    )


@given(si_histories())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_checker_is_deterministic_and_consistent(history):
    first, second = find_cycle(history), find_cycle(history)
    assert first == second
    described = describe_cycle(history)
    assert (described == "none") == (first is None)
    if first is not None:
        # Every hop of the reported cycle is a real edge.
        edges = {(src, dst) for src, dst, _ in build_serialization_edges(history)}
        for index, src in enumerate(first):
            dst = first[(index + 1) % len(first)]
            assert (src, dst) in edges
        assert "?" not in described


# -- online graph vs naive reference ------------------------------------------------


graph_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"), st.integers(1, MAX_TXNS), st.integers(1, MAX_TXNS)
        ),
        st.tuples(st.just("forget"), st.integers(1, MAX_TXNS), st.just(0)),
    ),
    max_size=40,
)


@given(graph_ops)
@settings(max_examples=200, deadline=None)
def test_online_graph_matches_reference(ops):
    """Random add_rw/forget streams against a set-of-pairs reference."""
    graph = SerializationGraph()
    edges = set()
    for op, first, second in ops:
        if op == "add":
            graph.add_rw(first, second)
            if first != second:
                edges.add((first, second))
        else:
            graph.forget(first)
            edges = {
                (reader, writer)
                for reader, writer in edges
                if first not in (reader, writer)
            }
        for txid in range(1, MAX_TXNS + 1):
            ins = sorted(r for r, w in edges if w == txid)
            outs = sorted(w for r, w in edges if r == txid)
            found = graph.pivot(txid)
            if ins and outs:
                assert found[0] == f"T{ins[0]} -rw-> T{txid} -rw-> T{outs[0]}"
            else:
                assert found is None


# -- pinned regressions -------------------------------------------------------------


def test_classic_write_skew_is_caught():
    """The SI litmus test: both sides commit, the checker must object."""
    history = [
        CommittedTxn(txid=1, begin_ts=1, commit_ts=3, reads={b"x": 0, b"y": 0}, writes=(b"y",)),
        CommittedTxn(txid=2, begin_ts=2, commit_ts=4, reads={b"x": 0, b"y": 0}, writes=(b"x",)),
    ]
    assert find_cycle(history) is not None
    assert not oracle_serializable(history)
    graph = SerializationGraph()
    graph.add_rw(1, 2)
    graph.add_rw(2, 1)
    assert graph.pivot(1) and graph.pivot(2)


def test_serial_history_is_clean():
    history = [
        CommittedTxn(txid=1, begin_ts=1, commit_ts=2, reads={}, writes=(b"x",)),
        CommittedTxn(txid=2, begin_ts=3, commit_ts=4, reads={b"x": 2}, writes=(b"x",)),
    ]
    assert find_cycle(history) is None
    assert describe_cycle(history) == "none"
    assert oracle_serializable(history)
