"""Serializable Snapshot Isolation: the serialization graph.

Snapshot isolation alone admits non-serializable histories (write
skew: two transactions each read what the other writes, then both
commit). SSI closes the gap by tracking *rw-antidependencies* — "T1
read a version that T2 later overwrote, so T1 must serialize before
T2" — and aborting, at commit time, any transaction that is the
**pivot** of a dangerous structure: one with both an incoming and an
outgoing rw edge to concurrent transactions (Cahill et al., and the
RepCRec-SSI exemplar this repo follows).

Reads are not only per-key: a ``scan(start, limit)`` reads a
*predicate* — "the first ``limit`` keys at or after ``start``" — and
a write landing **inside that range** changes the predicate's answer
even though the scanner never read the key (a phantom). Range reads
therefore carry their own rw edges, flagged ``phantom`` so the pivot
abort can name ``ssi-phantom`` instead of ``ssi-pivot``; the edge
semantics are otherwise identical.

Two faces of the same graph live here:

* :class:`SerializationGraph` — the online edge set (per-key and
  range/phantom rw edges) the certifier (:mod:`~repro.txn.certify`)
  maintains while transactions run; queried for the pivot rule at
  validation, and when an edge lands on a transaction that can no
  longer abort.
* :func:`build_serialization_edges` / :func:`find_cycle` — the
  offline reconstruction over a committed history (ww + wr + rw
  edges, including predicate rw edges from each transaction's
  recorded scan ranges), used by the ``no-serialization-anomaly``
  chaos invariant: a cycle in the committed graph is a
  serializability violation, full stop, whatever the online rules
  claimed.

Everything is deterministic: edges are plain sets ordered on demand,
cycle search visits nodes in sorted order, and nothing reads a clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "CommittedTxn",
    "SerializationGraph",
    "build_serialization_edges",
    "find_cycle",
    "describe_cycle",
    "key_in_range",
]


def key_in_range(
    key: bytes, start: bytes, end: Optional[bytes]
) -> bool:
    """Whether ``key`` falls inside a scan's range.

    A scan that filled its limit covers ``[start, end]`` (``end`` =
    the last key it returned, inclusive); one that ran off the end of
    the keyspace covers ``[start, +inf)`` (``end is None``) — the
    next-key-locking convention: inserting *anywhere* past ``start``
    would have changed its result.
    """
    return key >= start and (end is None or key <= end)


@dataclass(frozen=True, slots=True)
class CommittedTxn:
    """One committed transaction, as the history records it.

    ``reads`` maps each key read from the store to the commit
    timestamp of the version observed (0 = the initial, never-written
    state). Reads served from the transaction's own write buffer are
    not snapshot observations and do not appear here. ``writes`` is
    the sorted tuple of keys written; values live in the MVCC stores.
    ``scans`` records each range read as ``(start, end)`` — ``end``
    the last key returned (inclusive), or ``None`` for a scan that
    exhausted the keyspace — so the offline checker can reconstruct
    predicate (phantom) rw edges.
    """

    txid: int
    begin_ts: int
    commit_ts: int
    reads: Mapping[bytes, int]
    writes: Tuple[bytes, ...]
    scans: Tuple[Tuple[bytes, Optional[bytes]], ...] = ()

    def reads_range(self, key: bytes) -> bool:
        """Whether any of this transaction's scan ranges covers ``key``."""
        return any(key_in_range(key, start, end) for start, end in self.scans)


class SerializationGraph:
    """Online rw-antidependency edges among in-flight transactions.

    Edges added with ``phantom=True`` came from a range read (a write
    landing inside a concurrent scanner's range) rather than a
    key-granular observation; the pivot rule treats them identically
    but reports the abort as ``ssi-phantom`` so workloads can count
    predicate conflicts separately.
    """

    def __init__(self) -> None:
        self._in: Dict[int, Set[int]] = {}
        self._out: Dict[int, Set[int]] = {}
        self._phantom: Set[Tuple[int, int]] = set()

    def add_rw(self, reader: int, writer: int, phantom: bool = False) -> None:
        """Record ``reader -rw-> writer`` (reader must precede writer)."""
        if reader == writer:
            return
        self._out.setdefault(reader, set()).add(writer)
        self._in.setdefault(writer, set()).add(reader)
        if phantom:
            self._phantom.add((reader, writer))

    def __len__(self) -> int:
        """Transactions the graph holds state for (until ``forget`` or
        ``retire``)."""
        return len(self._in.keys() | self._out.keys())

    def neighbours(self, txid: int) -> Tuple[int, ...]:
        """Every transaction with an rw edge to or from ``txid``."""
        return tuple(sorted(self._in.get(txid, set()) | self._out.get(txid, set())))

    def forget(self, txid: int) -> None:
        """Drop a finished transaction and every edge touching it."""
        for peer in self._out.pop(txid, ()):
            peers = self._in.get(peer)
            if peers is not None:
                peers.discard(txid)
            self._phantom.discard((txid, peer))
        for peer in self._in.pop(txid, ()):
            peers = self._out.get(peer)
            if peers is not None:
                peers.discard(txid)
            self._phantom.discard((peer, txid))

    def retire(self, txid: int) -> None:
        """Drop a committed transaction no live one is concurrent with.

        Unlike :meth:`forget`, its peers keep it in their edge sets:
        whether a surviving committed transaction has an in- or an
        out-edge is what the pivot rule reads of it, and that must not
        change when the other end leaves. A phantom flag goes with the
        second of the two ends to leave.
        """
        for peer in self._out.pop(txid, ()):
            if peer not in self._in:
                self._phantom.discard((txid, peer))
        for peer in self._in.pop(txid, ()):
            if peer not in self._out:
                self._phantom.discard((peer, txid))

    def pivot(self, txid: int) -> Optional[Tuple[str, str]]:
        """If ``txid`` is the pivot of a dangerous structure, name it.

        The pivot has at least one incoming and one outgoing rw edge;
        SSI aborts it rather than prove the cycle. Returns ``(detail,
        reason)`` — reason ``"ssi-phantom"`` when any of the pivot's
        rw edges is a predicate (range) edge, ``"ssi-pivot"``
        otherwise — or ``None`` when the commit is safe.
        """
        ins = self._in.get(txid)
        outs = self._out.get(txid)
        if not ins or not outs:
            return None
        phantom = any(
            (peer, txid) in self._phantom for peer in ins
        ) or any((txid, peer) in self._phantom for peer in outs)
        detail = f"T{min(ins)} -rw-> T{txid} -rw-> T{min(outs)}"
        return detail, ("ssi-phantom" if phantom else "ssi-pivot")


# -- offline reconstruction (the anomaly checker) ----------------------------------


def build_serialization_edges(
    history: Sequence[CommittedTxn],
) -> List[Tuple[int, int, str]]:
    """Full serialization graph of a committed history.

    Edge kinds over each key's version order (version = writer's
    commit timestamp):

    * ``ww`` — consecutive writers of the same key, in commit order.
    * ``wr`` — the writer of the version a reader observed precedes
      the reader.
    * ``rw`` — a reader precedes the first writer that installed a
      version newer than the one it observed (later writers are
      reachable through ``ww``). The same kind covers predicate
      reads: a scanner precedes the first writer of any key inside
      one of its recorded ranges whose version the scan could not
      see (a key absent at the snapshot — the phantom case).

    Returns sorted ``(src_txid, dst_txid, kind)`` triples.
    """
    writers_by_key: Dict[bytes, List[CommittedTxn]] = {}
    writer_of_version: Dict[Tuple[bytes, int], int] = {}
    for txn in history:
        for key in txn.writes:
            writers_by_key.setdefault(key, []).append(txn)
            writer_of_version[(key, txn.commit_ts)] = txn.txid
    for writers in writers_by_key.values():
        writers.sort(key=lambda txn: txn.commit_ts)

    edges: Set[Tuple[int, int, str]] = set()
    for writers in writers_by_key.values():
        for earlier, later in zip(writers, writers[1:]):
            if earlier.txid != later.txid:
                edges.add((earlier.txid, later.txid, "ww"))
    for txn in history:
        for key, seen_ts in txn.reads.items():
            if seen_ts:
                writer = writer_of_version.get((key, seen_ts))
                if writer is not None and writer != txn.txid:
                    edges.add((writer, txn.txid, "wr"))
            for overwriter in writers_by_key.get(key, ()):
                if overwriter.commit_ts > seen_ts and overwriter.txid != txn.txid:
                    edges.add((txn.txid, overwriter.txid, "rw"))
                    break
        # Predicate reads: any key a recorded range covers that the
        # scan did not observe per-key was read as *absent* at the
        # snapshot — the first writer to give it a newer version is a
        # phantom the scanner must precede.
        for start, end in txn.scans:
            for key, writers in writers_by_key.items():
                if key in txn.reads or not key_in_range(key, start, end):
                    continue
                for overwriter in writers:
                    if (
                        overwriter.commit_ts > txn.begin_ts
                        and overwriter.txid != txn.txid
                    ):
                        edges.add((txn.txid, overwriter.txid, "rw"))
                        break
    return sorted(edges)


def find_cycle(history: Sequence[CommittedTxn]) -> Optional[List[int]]:
    """Smallest-first cycle in the committed serialization graph.

    Returns the cycle as a list of transaction ids (first repeated at
    the end is implied, not included), or ``None`` for a serializable
    history. Deterministic: nodes and neighbors are visited in sorted
    order, so the same history always names the same cycle.
    """
    adjacency: Dict[int, List[int]] = {}
    for src, dst, _ in build_serialization_edges(history):
        adjacency.setdefault(src, []).append(dst)
    for neighbors in adjacency.values():
        neighbors.sort()

    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    for start in sorted(adjacency):
        if color.get(start, WHITE) != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(start, 0)]
        path: List[int] = []
        color[start] = GRAY
        path.append(start)
        while stack:
            node, cursor = stack[-1]
            neighbors = adjacency.get(node, [])
            if cursor < len(neighbors):
                stack[-1] = (node, cursor + 1)
                nxt = neighbors[cursor]
                state = color.get(nxt, WHITE)
                if state == GRAY:
                    return path[path.index(nxt) :]
                if state == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def describe_cycle(history: Sequence[CommittedTxn]) -> str:
    """Human-readable anomaly summary ("none" for a clean history)."""
    cycle = find_cycle(history)
    if cycle is None:
        return "none"
    kinds = {
        (src, dst): kind for src, dst, kind in build_serialization_edges(history)
    }
    hops = []
    for index, src in enumerate(cycle):
        dst = cycle[(index + 1) % len(cycle)]
        hops.append(f"T{src} -{kinds.get((src, dst), '?')}-> ")
    return "".join(hops) + f"T{cycle[0]}"
