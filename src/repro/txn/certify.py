"""The commit decisions of cross-group transactions, as pure steps.

:class:`Certifier` decides what commits under Serializable Snapshot
Isolation and does no I/O; it owns every piece of state a decision
reads, down to each group's :class:`VersionIndex` of published
versions. :class:`~repro.txn.coordinator.TxnCoordinator` does the
reads, installs and waits and calls one step per decision; a test calls
the same steps with no simulator. ``validate`` applies first-committer-wins (a version
of a write-set key newer than the snapshot, published or pending,
aborts) and the pivot rule (a transaction with both an incoming and an
outgoing rw-antidependency edge aborts; ``mode="si"`` skips it — the
write-skew control); ``installed`` publishes, in commit order, each
pending commit all its groups hold.

The pivot rule needs every rw edge between concurrent transactions,
and a committed one cannot abort itself any more (Cahill's SSI). So a
committed transaction's reads, scan ranges and writes stay probed until
no live transaction is concurrent with it — it leaves the graph once
its commit is below the oldest live snapshot — and once a transaction
has passed validation it counts as committed: its caller cannot abort
it. An rw edge that gives such a settled transaction an edge on both
sides makes it a pivot that can no longer abort: the live transaction
whose read, scan or write raised the edge aborts instead, on the spot.

A step that aborts its transaction raises :class:`TxnAborted` once the
state reflects it; ``on_end`` hears of every commit and abort.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .ssi import CommittedTxn, SerializationGraph, key_in_range

__all__ = [
    "Certifier", "PendingCommit", "Transaction", "TxnAborted", "Version", "VersionIndex",
]


class TxnAborted(Exception):
    """The transaction cannot commit (or continue)."""

    def __init__(self, txid: int, reason: str, detail: str = ""):
        self.txid = txid
        self.reason = reason
        self.detail = detail
        super().__init__(
            f"T{txid} aborted: {reason}" + (f" ({detail})" if detail else "")
        )


@dataclass(frozen=True, slots=True)
class Version:
    """One committed version of a key."""

    commit_ts: int
    txid: int
    value: bytes


class VersionIndex:
    """Published versions per key, and the ordered key index scans walk
    (grown in commit order, so chains ascend by commit timestamp)."""

    def __init__(self) -> None:
        self.versions: Dict[bytes, List[Version]] = {}  # ascending commit_ts
        self._ordered: List[bytes] = []

    def publish(
        self, items: Sequence[Tuple[bytes, bytes]], commit_ts: int, txid: int
    ) -> None:
        """Make installed versions visible to snapshot reads; a key's
        first version also enters the ordered index (an insert becomes
        scannable)."""
        for key, value in items:
            chain = self.versions.setdefault(key, [])
            if not chain:
                insort(self._ordered, key)
            chain.append(Version(commit_ts, txid, value))

    def version_at(self, key: bytes, ts: int) -> Optional[Version]:
        """Newest published version visible at snapshot ``ts``."""
        for version in reversed(self.versions.get(key, ())):
            if version.commit_ts <= ts:
                return version
        return None

    def latest(self, key: bytes) -> Optional[Version]:
        """Newest published version of a key (any snapshot)."""
        chain = self.versions.get(key)
        return chain[-1] if chain else None

    def first_after(self, key: bytes, ts: int) -> Optional[Version]:
        """Oldest published version newer than snapshot ``ts``: the one
        whose writer a reader at ``ts`` must precede."""
        first = None
        for version in reversed(self.versions.get(key, ())):
            if version.commit_ts <= ts:
                break
            first = version
        return first

    def keys_from(self, start: bytes) -> Tuple[bytes, ...]:
        """Published keys ``>= start`` in ascending order, as a copy: a
        scan's walk must not shift when a commit publishes. Keys whose
        only versions are newer than the caller's snapshot still appear
        — the caller skips them, and notes the rw edge they imply."""
        return tuple(self._ordered[bisect_left(self._ordered, start) :])


@dataclass
class Transaction:
    """State of one in-flight transaction."""

    txid: int
    snapshot_ts: int
    epoch: int
    status: str = "active"  # active | committed | aborted
    reads: Dict[bytes, int] = field(default_factory=dict)  # key -> seen commit_ts
    writes: Dict[bytes, bytes] = field(default_factory=dict)
    # Range reads: (start, last-returned-key-or-None) per scan — the
    # predicate footprint phantom detection checks writes against.
    scans: List[Tuple[bytes, Optional[bytes]]] = field(default_factory=list)
    # What each read served, in order: kind (own-write | miss |
    # snapshot | scan), key, value, replica, and whether the durable
    # copy consulted was behind the snapshot.
    observations: List[Dict[str, object]] = field(default_factory=list)
    abort_reason: Optional[str] = None
    # Set when validation passes: from then on the pivot rule treats
    # the transaction as committed.
    commit_ts: Optional[int] = None
    # The dangerous structure (detail, reason) an rw edge this
    # transaction raised completed around a settled pivot.
    doomed: Optional[Tuple[str, str]] = None

    # The same probe as a committed transaction's.
    reads_range = CommittedTxn.reads_range


class PendingCommit:
    """A validated commit until it publishes: its writes per group, and
    the groups that do not hold them durably yet."""

    __slots__ = ("txn", "per_group", "installing")

    def __init__(self, txn: Transaction, per_group: Dict[int, List[Tuple[bytes, bytes]]]):
        self.txn = txn
        self.per_group = per_group
        self.installing = set(per_group)


class Certifier:
    """SSI commit decisions over one :class:`VersionIndex` per group
    (``locate`` names a key's group). ``mode="si"`` is plain snapshot
    isolation: it admits write skew, which the offline anomaly checker
    then catches — what SSI buys, shown. ``on_end`` is called with each
    transaction as it commits or aborts. A step that ticks the clock is
    given ``now``, and the clock never ticks below it."""

    def __init__(
        self,
        indexes: Sequence[VersionIndex],
        locate: Callable[[bytes], int],
        mode: str = "ssi",
        on_end: Optional[Callable[[Transaction], None]] = None,
    ):
        if mode not in ("ssi", "si"):
            raise ValueError(f"bad isolation mode {mode!r}")
        self.indexes = list(indexes)
        self.locate = locate
        self.mode = mode
        self.on_end = on_end
        self._clock = 0
        self._next_txid = 1
        self.epoch = 0
        self.active: Dict[int, Transaction] = {}
        # Validated commits not yet published, by txid in commit order.
        self.pending: Dict[int, PendingCommit] = {}
        self.graph = SerializationGraph()
        self.history: List[CommittedTxn] = []
        # Committed transactions some live one is concurrent with, by
        # txid, and the same as a heap of (commit_ts, txid): each
        # leaves at the watermark (_retire).
        self._retained: Dict[int, CommittedTxn] = {}
        self._retiring: List[Tuple[int, int]] = []

    def _tick(self, now: int) -> int:
        self._clock = max(self._clock + 1, now)
        return self._clock

    def check_active(self, txn: Transaction) -> None:
        """Raise :class:`TxnAborted` unless ``txn`` is live in this epoch."""
        if txn.status != "active" or txn.epoch != self.epoch:
            raise TxnAborted(
                txn.txid,
                txn.abort_reason or "stale-epoch",
                f"status={txn.status} epoch={txn.epoch}/{self.epoch}",
            )

    # -- steps ---------------------------------------------------------------------

    def begin(self, now: int) -> Transaction:
        """Open a transaction whose snapshot is the clock's next tick."""
        txn = Transaction(
            txid=self._next_txid, snapshot_ts=self._tick(now), epoch=self.epoch
        )
        self._next_txid += 1
        self.active[txn.txid] = txn
        return txn

    def read(self, txn: Transaction, key: bytes) -> Optional[Version]:
        """A snapshot read of ``key`` (not in ``txn``'s write buffer, no
        earlier pending writer): returns the version served, or None."""
        self.check_active(txn)
        group = self.locate(key)
        version = self.indexes[group].version_at(key, txn.snapshot_ts)
        self._note_read(txn, group, key, version)
        self._abort_if_doomed(txn)
        return version

    def write(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Buffer a write (visible to this transaction's reads only)."""
        self.check_active(txn)
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values are bytes")
        txn.writes[key] = bytes(value)
        self._note_write_edges(txn, key)
        self._abort_if_doomed(txn)

    def insert(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Buffer a write to a key absent at the snapshot. One it can see,
        or will once an earlier pending commit publishes, is a caller
        bug; a *concurrent* duplicate is a race validation settles."""
        self.check_active(txn)
        index = self.indexes[self.locate(key)]
        if key not in txn.writes and (
            index.version_at(key, txn.snapshot_ts) is not None
            or self.earlier_writer(txn, lambda writes: key in writes)
        ):
            raise ValueError(
                f"insert of key {key!r} visible at snapshot {txn.snapshot_ts}"
            )
        self.write(txn, key, value)

    def plan_scan(self, txn: Transaction, start: bytes, limit: int):
        """Walk the merged index to the ``limit``-th visible key; returns
        the steps ``(key, owning group or None for an own write, version
        served)``, the keys to cross-check per group and the range's
        end."""
        merged = set()
        for index in self.indexes:
            merged.update(index.keys_from(start))
        merged.update(key for key in txn.writes if key >= start)
        steps: List[Tuple[bytes, Optional[int], Optional[Version]]] = []
        wanted: Dict[int, List[bytes]] = {}  # group -> keys to cross-check
        served = 0
        for key in sorted(merged):
            if key in txn.writes:
                steps.append((key, None, None))
            else:
                group = self.locate(key)
                version = self.indexes[group].version_at(key, txn.snapshot_ts)
                steps.append((key, group, version))
                if version is None:
                    continue  # in the index, invisible at our snapshot
                wanted.setdefault(group, []).append(key)
            served += 1
            if served == limit:
                # Next-key-locking convention: a full scan covers
                # [start, last-returned]; one that exhausts the keyspace
                # covers [start, +inf) — an insert anywhere past start
                # would change its answer.
                return steps, wanted, key
        return steps, wanted, None

    def record_scan(self, txn: Transaction, start: bytes, end: Optional[bytes], steps):
        """Record a planned scan: its reads in key order — a key
        invisible at the snapshot is read as absent, the edge to its
        newer writer a phantom — then the range ``(start, end)``."""
        self.check_active(txn)
        for key, group, version in steps:
            if group is not None:
                self._note_read(txn, group, key, version, phantom=version is None)
        txn.scans.append((start, end))
        # Writes inside the range by concurrent transactions — still
        # buffered, or published while the reads were out — are
        # phantoms: note the edges now (the symmetric direction of
        # ``_note_write_edges``).
        for other in self._concurrent(txn):
            for key in other.writes:
                if key not in txn.reads and key_in_range(key, start, end):
                    self._rw(txn, txn.txid, other.txid, phantom=True)
                    break
        self._abort_if_doomed(txn)

    def validate(self, txn: Transaction, now: int) -> int:
        """Certify ``txn``; returns its commit timestamp. A writer
        becomes pending. A read-only transaction commits here: it can
        never be a pivot (no writes, no incoming rw edge), and a read
        that raised an edge onto a settled pivot has aborted it
        already."""
        self.check_active(txn)
        if not txn.writes:
            return self._finalize(txn, self._tick(now))
        # First-committer-wins: any version of a write-set key newer
        # than our snapshot, published or pending, aborts us.
        for key in sorted(txn.writes):
            writer = self._newer_writer(txn, key)
            if writer is not None:
                detail = f"{key!r} written by T{writer} after our snapshot"
                self._fail(txn, (detail, "ww-conflict"))
        # Refresh rw edges from readers (key-granular or range)
        # that observed state after our writes were buffered.
        for key in sorted(txn.writes):
            self._note_write_edges(txn, key)
        self._abort_if_doomed(txn)
        if self.mode == "ssi":
            found = self.graph.pivot(txn.txid)
            if found is not None:
                self._fail(txn, found)
        commit_ts = txn.commit_ts = self._tick(now)
        per_group: Dict[int, List[Tuple[bytes, bytes]]] = {}
        for key in sorted(txn.writes):
            per_group.setdefault(self.locate(key), []).append(
                (key, txn.writes[key])
            )
        self.pending[txn.txid] = PendingCommit(txn, per_group)
        return commit_ts

    def installed(self, group: int, txids: Sequence[int]) -> List[Transaction]:
        """Group ``group`` holds these pending commits durably; returns
        the transactions that published."""
        for txid in txids:
            pending = self.pending.get(txid)
            if pending is not None:  # else its install failed elsewhere
                pending.installing.discard(group)
        return self.publish_ready()

    def install_failed(self, txids: Sequence[int]) -> List[Transaction]:
        """These commits' install failed: each still pending aborts
        (``install-failed``) and is returned."""
        failed = []
        for txid in txids:
            pending = self.pending.pop(txid, None)
            if pending is not None:
                self._abort(pending.txn, "install-failed")
                failed.append(pending.txn)
        return failed

    def publish_ready(self) -> List[Transaction]:
        """Publish, in commit order, each pending commit installed on
        all its groups with no earlier one still pending; returns them.
        A transaction's versions all appear at once."""
        published = []
        while self.pending:
            txid, pending = next(iter(self.pending.items()))
            if pending.installing:
                break
            del self.pending[txid]
            txn = pending.txn
            for group, items in sorted(pending.per_group.items()):
                self.indexes[group].publish(items, txn.commit_ts, txid)
            self._finalize(txn, txn.commit_ts)
            published.append(txn)
        return published

    def abort(self, txn: Transaction, reason: str = "user") -> None:
        """Abort a live transaction; idempotent once it has ended. A
        validated one counts as committed in others' pivot checks: it
        commits, or dies with its install."""
        if txn.status != "active":
            return
        if txn.commit_ts is not None:
            raise ValueError(f"T{txn.txid} passed validation and cannot abort")
        self._abort(txn, reason)

    def reset(self) -> None:
        """A new epoch: every live transaction aborts (``failover``) and
        every pending commit is dropped unpublished."""
        self.epoch += 1
        for txn in list(self.active.values()):
            self._abort(txn, "failover")
        self.pending = {}

    def earlier_writer(self, txn: Transaction, covers) -> Optional[PendingCommit]:
        """The newest pending commit before ``txn``'s snapshot whose
        write set ``covers`` accepts (once it publishes, so has every
        earlier one)."""
        for pending in reversed(self.pending.values()):
            if pending.txn.commit_ts < txn.snapshot_ts and covers(pending.txn.writes):
                return pending
        return None

    # -- rules ---------------------------------------------------------------------

    def _note_read(
        self, txn: Transaction, group: int, key: bytes, version: Optional[Version],
        phantom: bool = False,
    ) -> None:
        txn.reads.setdefault(key, 0 if version is None else version.commit_ts)
        # Reader precedes the first committed writer whose version it
        # cannot see (committed after our snapshot; later writers
        # follow that one)...
        first = self.indexes[group].first_after(key, txn.snapshot_ts)
        if first is not None:
            self._rw(txn, txn.txid, first.txid, phantom)
        # ...and any concurrent transaction with the key in its write
        # set. (The symmetric case — they write after we read — is
        # recorded by ``write``/``validate``.)
        for other in self.active.values():
            if other.txid != txn.txid and key in other.writes:
                self._rw(txn, txn.txid, other.txid, phantom)

    def _note_write_edges(self, txn: Transaction, key: bytes) -> None:
        # Concurrent readers of this key — key-granular observations
        # or a scan range covering it (the phantom case), live or
        # committed — logically precede us.
        for other in self._concurrent(txn):
            if key in other.reads:
                self._rw(txn, other.txid, txn.txid)
            elif other.reads_range(key):
                self._rw(txn, other.txid, txn.txid, phantom=True)

    def _concurrent(self, txn: Transaction):
        """Every other live transaction but a pending commit from
        before ``txn``'s snapshot, then every committed one whose
        commit came after that snapshot."""
        for other in self.active.values():
            if other.txid != txn.txid and (
                other.commit_ts is None or other.commit_ts > txn.snapshot_ts
            ):
                yield other
        for other in self._retained.values():
            if other.commit_ts > txn.snapshot_ts:
                yield other

    def _rw(
        self, txn: Transaction, reader: int, writer: int, phantom: bool = False
    ) -> None:
        """Record ``reader -rw-> writer``, raised by ``txn`` (one of
        the two). If the other end is settled — committed, or validated
        and installing — and now has edges on both sides, it is a pivot
        that can no longer abort: ``txn`` is doomed instead."""
        self.graph.add_rw(reader, writer, phantom=phantom)
        other = writer if reader == txn.txid else reader
        if self.mode == "ssi" and txn.doomed is None and self._settled(other):
            txn.doomed = self.graph.pivot(other)

    def _settled(self, txid: int) -> bool:
        live = self.active.get(txid)
        if live is None:
            return txid in self._retained
        return live.commit_ts is not None

    def _abort_if_doomed(self, txn: Transaction) -> None:
        if txn.doomed is not None:
            self._fail(txn, txn.doomed)

    def _newer_writer(self, txn: Transaction, key: bytes) -> Optional[int]:
        """The txid of a published, else pending, version of ``key``
        newer than ``txn``'s snapshot."""
        latest = self.indexes[self.locate(key)].latest(key)
        if latest is not None and latest.commit_ts > txn.snapshot_ts:
            return latest.txid
        for pending in self.pending.values():
            other = pending.txn
            if other.commit_ts > txn.snapshot_ts and key in other.writes:
                return other.txid
        return None

    # -- endings ---------------------------------------------------------------------

    def _fail(self, txn: Transaction, why: Tuple[str, str]) -> None:
        """Abort ``txn`` for ``why`` = (detail, reason), and raise."""
        detail, reason = why
        self._abort(txn, reason)
        raise TxnAborted(txn.txid, reason, detail)

    def _abort(self, txn: Transaction, reason: str) -> None:
        txn.status = "aborted"
        txn.abort_reason = reason
        self.active.pop(txn.txid, None)
        self.graph.forget(txn.txid)
        self._retire()
        if self.on_end is not None:
            self.on_end(txn)

    def _finalize(self, txn: Transaction, commit_ts: int) -> int:
        txn.commit_ts = commit_ts
        txn.status = "committed"
        self.active.pop(txn.txid, None)
        record = CommittedTxn(
            txid=txn.txid,
            begin_ts=txn.snapshot_ts,
            commit_ts=commit_ts,
            reads=dict(txn.reads),
            writes=tuple(sorted(txn.writes)),
            scans=tuple(txn.scans),
        )
        self._retained[txn.txid] = record
        heapq.heappush(self._retiring, (commit_ts, txn.txid))
        self._retire()
        self.history.append(record)
        if self.on_end is not None:
            self.on_end(txn)
        return commit_ts

    def _retire(self) -> None:
        """Drop every committed transaction that no live one is
        concurrent with — commit below the watermark, the oldest live
        snapshot (all of them once nothing is live) — from the probed
        set and the SSI graph."""
        retiring = self._retiring
        if not retiring:
            return
        watermark = min(
            (txn.snapshot_ts for txn in self.active.values()), default=None
        )
        while retiring and (watermark is None or retiring[0][0] < watermark):
            txid = heapq.heappop(retiring)[1]
            del self._retained[txid]
            self.graph.retire(txid)
