"""Cross-group transaction coordinator: begin/read/write/commit/abort.

One coordinator spans N replica groups (each wrapped in a
:class:`~repro.txn.mvcc.VersionedGroupStore`), placing keys by
consistent hash. Isolation is Serializable Snapshot Isolation:

* ``begin`` takes a snapshot timestamp from the virtual clock
  (monotonic, unique — never wall time); every read observes the
  newest version committed at or before it.
* ``read`` serves the transaction's own buffered write first
  (read-your-writes), then routes to the owning group, picks the
  least-busy eligible replica under the Available-Copies rules, and
  cross-checks the one-sided durable read against the version chain.
* ``write`` buffers locally; nothing touches the wire before commit.
  ``insert`` is a write to a previously-unseen key — placement is the
  same consistent hash, and the key's DB slot is assigned when the
  commit validates; concurrent duplicate inserts resolve by
  first-committer-wins exactly like updates.
* ``scan`` is a snapshot range read: it merges the per-group ordered
  key indexes (plus the transaction's own buffered writes), serves
  the first ``limit`` keys at or after ``start`` visible at the
  snapshot — each durable slot cross-checked from an
  Available-Copies-eligible replica of the owning group, one READ
  batch per group and all groups' batches in flight at once — and
  records the covered *range* so a concurrent insert landing inside
  it raises a phantom rw-antidependency edge.
* ``commit`` validates first-committer-wins on the write set (any
  version newer than the snapshot, published or pending, aborts),
  applies the SSI pivot rule (a transaction with both incoming and
  outgoing rw-antidependency edges aborts; ``mode="si"`` skips this —
  the write-skew control), then installs per participant group
  through its replicated log, and finally publishes every version in
  one synchronous step — all-or-nothing visibility across groups.

The pivot rule needs every rw edge between concurrent transactions,
and a committed one cannot abort itself any more (Cahill's SSI).
So a committed transaction's reads, scan ranges and writes stay
probed until no live transaction is concurrent with it, and once a
transaction has passed validation it counts as committed. An rw edge
that gives such a settled transaction an edge on both sides makes it
a pivot that can no longer abort: the live transaction whose read,
scan or write raised the edge aborts instead, on the spot.

Bookkeeping is bounded by what is live. A read's observation (what
it served, from which replica, whether the durable copy was behind
the snapshot) goes on ``Transaction.observations`` and dies with the
transaction; the coordinator keeps only what the read-your-writes
invariant consumes — a count of snapshot reads, the stale ones, and
own-write reads of keys the committed write set lacks. A committed
transaction leaves the SSI graph once its commit timestamp is below
the watermark, the oldest live snapshot: every rw edge joins two
transactions whose ``[snapshot, commit]`` intervals overlap, so from
then on no pivot check can reach it (Cahill's cleanup rule).

Only conflicting work waits. Validation is the one atomic step (it
yields nowhere) and ends by taking the commit timestamp and
registering the write set as *pending*. ``begin`` snapshots at the
clock without parking; a ``read`` parks only while a pending commit
from before its snapshot writes its key (a ``scan``, while one writes
inside its planned range), and ``insert`` counts such a write as
visible. Each group queues its installs in commit order and has at
most one batch in flight, written as one WAL record — group commit,
one layer above the WAL's append runs; as the one writer of the
stores it owns, the coordinator takes no group lock. A failed batch
aborts its commits (``install-failed``) and raises to each committer.
A commit publishes once all its groups have installed it and every
earlier one has published or died; ``commit`` returns after its own
publish. A failover reset wakes every waiter and replaces every queue:
a batch parked forever on a dead chain's ack keeps the old one.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, List, Optional, Sequence, Tuple

from ..hw.cpu import Task
from ..obs.trace import TRACER
from ..rdma.reader import PostedReads
from ..sim import Event
from .available_copies import AvailabilityTracker, NoAvailableCopy
from .mvcc import Version, VersionedGroupStore, decode_durable
from .ssi import CommittedTxn, SerializationGraph, key_in_range

__all__ = ["TxnCoordinator", "Transaction", "TxnAborted"]


class TxnAborted(Exception):
    """The transaction cannot commit (or continue)."""

    def __init__(self, txid: int, reason: str, detail: str = ""):
        self.txid = txid
        self.reason = reason
        self.detail = detail
        super().__init__(
            f"T{txid} aborted: {reason}" + (f" ({detail})" if detail else "")
        )


@dataclass
class Transaction:
    """Coordinator-side state of one in-flight transaction."""

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

    def reads_range(self, key: bytes) -> bool:
        """Whether any of this transaction's scan ranges covers ``key``."""
        return any(
            key_in_range(key, start, end) for start, end in self.scans
        )


class _Pending:
    """A validated commit until it publishes: its writes per group, the
    groups still installing them, why it died (if it did), and the
    event its committer and its keys' readers park on."""

    __slots__ = ("txn", "per_group", "installing", "error", "done")

    def __init__(self, txn: "Transaction", per_group, done: Event):
        self.txn = txn
        self.per_group: Dict[int, List[Tuple[bytes, bytes]]] = per_group
        self.installing = set(per_group)
        self.error: Optional[Exception] = None
        self.done = done


class _InstallQueue:
    """One group's staged installs, in commit order, and whether a
    batch of them is in flight."""

    __slots__ = ("staged", "busy")

    def __init__(self):
        self.staged: Deque[Tuple[_Pending, List[Tuple[int, bytes]]]] = deque()
        self.busy = False


class TxnCoordinator:
    """Serializable transactions over several replica groups.

    Parameters
    ----------
    stores:
        One :class:`VersionedGroupStore` per participant group.
    mode:
        ``"ssi"`` (default) applies the pivot rule at commit;
        ``"si"`` is plain snapshot isolation — it admits write skew,
        which the offline anomaly checker then catches. Exists so
        tests and the workload can demonstrate exactly what SSI buys.
    tracker:
        Shared :class:`AvailabilityTracker`; a fresh one is built if
        not given. Stores are attached in order, so group index ==
        tracker index; a store another coordinator owns raises.

    A commit spanning several groups installs into them concurrently,
    one batch per group in flight (:meth:`_install`).
    """

    def __init__(
        self,
        stores: Sequence[VersionedGroupStore],
        mode: str = "ssi",
        tracker: Optional[AvailabilityTracker] = None,
        name: str = "txn",
    ):
        if not stores:
            raise ValueError("need at least one group store")
        if mode not in ("ssi", "si"):
            raise ValueError(f"bad isolation mode {mode!r}")
        self.stores = list(stores)
        self.mode = mode
        self.name = name
        self.tracker = tracker if tracker is not None else AvailabilityTracker()
        for store in self.stores:
            if store.owner is not None:
                raise ValueError(f"{store.name} already belongs to {store.owner.name}")
            store.owner = self
            self.tracker.attach(store)
        self.sim = self.stores[0].group.sim
        self._clock = 0
        self._next_txid = 1
        # Validated commits not yet published, by txid in commit order,
        # and each group's queue of their installs.
        self._pending: Dict[int, _Pending] = {}
        self._queues = [_InstallQueue() for _ in self.stores]
        self.epoch = 0
        self.active: Dict[int, Transaction] = {}
        self.graph = SerializationGraph()
        self.history: List[CommittedTxn] = []
        # Committed transactions some live one is concurrent with, by
        # txid, and the same as a heap of (commit_ts, txid): each
        # leaves at the watermark (_retire).
        self._retained: Dict[int, CommittedTxn] = {}
        self._retiring: List[Tuple[int, int]] = []
        # What the read-your-writes invariant needs of the observations:
        # snapshot reads served, the stale ones, and own-write reads of
        # a key a committed transaction's write set lacks.
        self.reads_observed = 0
        self.stale_reads: List[Dict[str, object]] = []
        self.read_violations: List[Dict[str, object]] = []
        self.commits = 0
        self.aborts_ww = 0
        self.aborts_ssi = 0
        self.aborts_phantom = 0
        self.aborts_unavailable = 0
        self.aborts_failover = 0
        self.aborts_install = 0
        self.aborts_user = 0

    # -- placement ---------------------------------------------------------------

    def locate(self, key: bytes) -> int:
        """Owning group index for a key (consistent hash)."""
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little") % len(self.stores)

    def _tick(self) -> int:
        self._clock = max(self._clock + 1, self.sim.now)
        return self._clock

    def _check_active(self, txn: Transaction) -> None:
        if txn.status != "active" or txn.epoch != self.epoch:
            raise TxnAborted(
                txn.txid,
                txn.abort_reason or "stale-epoch",
                f"status={txn.status} epoch={txn.epoch}/{self.epoch}",
            )

    # -- lifecycle -----------------------------------------------------------------

    def begin(self, task: Task) -> Generator:
        """Open a transaction; returns the :class:`Transaction`. Never
        parks: the snapshot is the clock's next tick (reads wait out
        the pending commits before it that write their keys)."""
        txn = Transaction(
            txid=self._next_txid, snapshot_ts=self._tick(), epoch=self.epoch
        )
        self._next_txid += 1
        self.active[txn.txid] = txn
        if TRACER.enabled:
            TRACER.count("txn.begin")
            TRACER.record(
                self.sim.now,
                "B",
                "txn",
                f"T{txn.txid}",
                pid=f"txn:{self.name}",
                tid=task.name,
                args={"snapshot_ts": txn.snapshot_ts},
            )
        return txn
        yield  # a generator like every verb a client task drives

    def read(self, task: Task, txn: Transaction, key: bytes) -> Generator:
        """Snapshot read; returns the value (``None`` = never written).

        Own buffered writes win (read-your-writes). Otherwise the
        owning group serves the newest version at the snapshot,
        reading the durable slot as a cross-check (:meth:`_cross_check`,
        a scan's path with one key) from the Available-Copies-eligible
        replica whose read channel is least busy (replica 0 when idle):
        the slot may legitimately hold a *newer* record (installed
        after our snapshot, or an orphan of an unfinished commit) —
        both invisible here — but never an older one, which would mean
        a stale copy served a read. A
        commit from before the snapshot still pending on the key is
        waited out first.
        """
        self._check_active(txn)
        if key in txn.writes:
            self._observe(txn, "own-write", key, txn.writes[key])
            return txn.writes[key]
        if self._pending:
            yield from self._await_earlier(task, txn, lambda writes: key in writes)
        index = self.locate(key)
        store = self.stores[index]
        if not store.has_slot(key):
            # Never written anywhere: the initial state, no network.
            txn.reads.setdefault(key, 0)
            self._note_read_edges(txn, store, key)
            self._abort_if_doomed(txn)
            self._observe(txn, "miss", key, None)
            return None
        replicas, slots = yield from self._cross_check(task, txn, {index: [key]})
        replica, durable = replicas[index], slots[key]
        # The yields above may span a failover reset; never record an
        # observation (or an edge) for a zombie attempt.
        self._check_active(txn)
        version = store.version_at(key, txn.snapshot_ts)
        if version is None:
            value, seen_ts = None, 0
            stale = False
        else:
            value, seen_ts = version.value, version.commit_ts
            stale = durable is None or durable[0] < version.commit_ts
        txn.reads.setdefault(key, seen_ts)
        self._note_read_edges(txn, store, key)
        self._abort_if_doomed(txn)
        self._observe(txn, "snapshot", key, value, replica, stale)
        if TRACER.enabled:
            TRACER.count("txn.read")
        return value

    def _observe(
        self,
        txn: Transaction,
        kind: str,
        key: bytes,
        value: Optional[bytes],
        replica: Optional[int] = None,
        stale: bool = False,
    ) -> None:
        """Record what a read served on its transaction, and fold it
        into the coordinator's read-your-writes state."""
        obs = {
            "txid": txn.txid,
            "kind": kind,
            "key": key,
            "value": value,
            "replica": replica,
            "stale": stale,
        }
        txn.observations.append(obs)
        if kind != "own-write":
            self.reads_observed += 1
        if stale:
            self.stale_reads.append(obs)

    def _note_read_edges(
        self,
        txn: Transaction,
        store: VersionedGroupStore,
        key: bytes,
        phantom: bool = False,
    ) -> None:
        # Reader precedes the first committed writer whose version it
        # cannot see (committed after our snapshot; later writers
        # follow that one)...
        first = store.first_after(key, txn.snapshot_ts)
        if first is not None:
            self._rw(txn, txn.txid, first.txid, phantom)
        # ...and any concurrent transaction with the key in its write
        # set. (The symmetric case — they write after we read — is
        # recorded by ``write``/``commit``.)
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
            detail, reason = txn.doomed
            self._abort(txn, reason)
            raise TxnAborted(txn.txid, reason, detail)

    def write(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Buffer a write (visible to this transaction's reads only)."""
        self._check_active(txn)
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values are bytes")
        txn.writes[key] = bytes(value)
        self._note_write_edges(txn, key)
        self._abort_if_doomed(txn)
        if TRACER.enabled:
            TRACER.count("txn.write")

    def insert(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Buffer an insert: a write to a key absent at the snapshot.

        Placement and buffering are exactly :meth:`write` — the key's
        DB slot is assigned when the commit validates — but the intent
        is checked: inserting a key this snapshot can already see — or
        will, once a commit from before it publishes — is a harness
        bug, not a race (a *concurrent* duplicate insert is a race, and
        first-committer-wins settles it at commit).
        """
        self._check_active(txn)
        store = self.stores[self.locate(key)]
        if key not in txn.writes and (
            store.version_at(key, txn.snapshot_ts) is not None
            or self._earlier_writer(txn, lambda writes: key in writes)
        ):
            raise ValueError(
                f"insert of key {key!r} visible at snapshot {txn.snapshot_ts}"
            )
        self.write(txn, key, value)
        if TRACER.enabled:
            TRACER.count("txn.insert")

    def scan(
        self, task: Task, txn: Transaction, start: bytes, limit: int
    ) -> Generator:
        """Snapshot range read: first ``limit`` keys at or after ``start``.

        Returns ``[(key, value), ...]`` in ascending key order, merging
        the per-group ordered indexes with the transaction's own
        buffered writes. Every snapshot-visible result is cross-checked
        against the durable slot of an Available-Copies-eligible
        replica, chosen once per group per scan as the one with the
        least-busy read channel, so concurrent scanners spread over
        every copy. Keys present in an
        index but invisible at the snapshot are skipped, but still
        recorded as absent reads — the rw edge to their post-snapshot
        writer is exactly a phantom the scan must precede. The covered
        range ``(start, last-returned)`` — or ``(start, None)`` when
        the keyspace ran out before ``limit`` — is recorded so later
        concurrent writes inside it raise phantom edges too.

        Four steps — plan, post, wait, record. The walk to the
        ``limit``-th visible key needs no network, so it runs first and
        yields nowhere (a pending commit from before the snapshot that
        writes inside the range is waited out, and the walk redone);
        the cross-check reads then go out as one batch per group, all
        groups in flight together (:meth:`_cross_check`); only when
        every batch is back — and the transaction is still of this
        epoch — are reads, edges and observations recorded, in key
        order. A scan therefore costs one READ round trip however many
        keys and groups it covers, and one that dies on the way records
        nothing.
        """
        self._check_active(txn)
        if limit < 1:
            raise ValueError("scan limit must be >= 1")
        # Plan; wait out the earlier pending writers in range, replan.
        steps, wanted, end = self._plan_scan(txn, start, limit)
        while self._pending and (
            yield from self._await_earlier(
                task,
                txn,
                lambda writes: any(key_in_range(key, start, end) for key in writes),
            )
        ):
            steps, wanted, end = self._plan_scan(txn, start, limit)
        replicas, durable = yield from self._cross_check(task, txn, wanted)
        # The yields may span a failover reset; a zombie scan must not
        # record observations or edges.
        self._check_active(txn)
        # Record, in key order.
        results: List[Tuple[bytes, bytes]] = []
        for key, index, version in steps:
            if index is None:
                value = txn.writes[key]
                self._observe(txn, "own-write", key, value)
            elif version is None:
                # Read as absent. No network (nothing to serve), but
                # the edge to its newer writer is a phantom.
                txn.reads.setdefault(key, 0)
                self._note_read_edges(txn, self.stores[index], key, phantom=True)
                continue
            else:
                value = version.value
                slot = durable[key]
                txn.reads.setdefault(key, version.commit_ts)
                self._note_read_edges(txn, self.stores[index], key)
                self._observe(
                    txn, "scan", key, value, replicas[index],
                    slot is None or slot[0] < version.commit_ts,
                )
            results.append((key, value))
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
        if TRACER.enabled:
            TRACER.count("txn.scan")
            TRACER.count("txn.scan_reads", len(durable))
        return results

    def _plan_scan(self, txn: Transaction, start: bytes, limit: int):
        """Walk the merged index to the ``limit``-th visible key without
        yielding; returns the steps ``(key, owning group or None for an
        own write, version served)``, the keys to cross-check per group
        and the range's end. Once ``scan`` has waited out the earlier
        pending writers in the range, none of it changes under the
        reads: the key slices are copies, the write buffer is ours."""
        merged = set()
        for store in self.stores:
            merged.update(store.keys_from(start))
        merged.update(key for key in txn.writes if key >= start)
        steps: List[Tuple[bytes, Optional[int], Optional[Version]]] = []
        wanted: Dict[int, List[bytes]] = {}  # group -> keys to cross-check
        served = 0
        for key in sorted(merged):
            if key in txn.writes:
                steps.append((key, None, None))
            else:
                index = self.locate(key)
                version = self.stores[index].version_at(key, txn.snapshot_ts)
                steps.append((key, index, version))
                if version is None:
                    continue  # in the index, invisible at our snapshot
                wanted.setdefault(index, []).append(key)
            served += 1
            if served == limit:
                # Next-key-locking convention: a full scan covers
                # [start, last-returned]; one that exhausts the keyspace
                # covers [start, +inf) — an insert anywhere past start
                # would change its answer.
                return steps, wanted, key
        return steps, wanted, None

    def _cross_check(
        self, task: Task, txn: Transaction, wanted: Dict[int, List[bytes]]
    ) -> Generator:
        """Read the durable slots of ``wanted`` (group -> keys), every
        group's batch in flight at once. Returns ``(replicas, durable)``:
        the replica that served each group, and the decoded slot (or
        ``None``) of each key."""
        groups = sorted(wanted)
        # Every group's replica is chosen before any lane is taken:
        # choosing may block for the whole Available-Copies bound, and
        # must not do so holding a lane other readers may queue for.
        replicas: Dict[int, int] = {}
        try:
            for index in groups:
                replicas[index] = yield from self.tracker.choose(task, index)
        except NoAvailableCopy as exc:
            self._abort(txn, "unavailable")
            raise TxnAborted(txn.txid, "unavailable", str(exc)) from None
        # Post each group's batch, then wait for all: the round trips
        # overlap. This task holds a read lane of several channels at
        # once, so it takes them in ascending group order. A batch
        # queues only once every lane of its replica is held, and then
        # two scanners could each hold the last lane the other is
        # queued for. It takes one lane per group, of any replica's
        # channel: every wait-for edge still points to a higher group
        # index, so no cycle can form.
        durable: Dict[bytes, Optional[tuple]] = {}
        posted: List[Tuple[List[bytes], PostedReads]] = []
        try:
            for index in groups:
                keys, reads = yield from self.stores[index].post_durable(
                    task, wanted[index], replicas[index]
                )
                posted.append((keys, reads))
            for keys, reads in posted:
                durable.update(decode_durable(keys, (yield from reads.wait(task))))
        finally:
            # Whatever ended the read early — an error completion, a
            # reclaimed zombie's close() — gives every lane back.
            for _, reads in posted:
                reads.abandon()
        return replicas, durable

    def abort(self, txn: Transaction, reason: str = "user") -> None:
        """Caller-initiated abort; idempotent."""
        if txn.status != "active":
            return
        self._abort(txn, reason)

    def _abort(self, txn: Transaction, reason: str) -> None:
        txn.status = "aborted"
        txn.abort_reason = reason
        self.active.pop(txn.txid, None)
        self.graph.forget(txn.txid)
        self._retire()
        counter = {
            "ww-conflict": "aborts_ww",
            "ssi-pivot": "aborts_ssi",
            "ssi-phantom": "aborts_phantom",
            "unavailable": "aborts_unavailable",
            "failover": "aborts_failover",
            "install-failed": "aborts_install",
        }.get(reason, "aborts_user")
        setattr(self, counter, getattr(self, counter) + 1)
        if TRACER.enabled:
            TRACER.count(f"txn.abort.{reason}")
            TRACER.record(
                self.sim.now,
                "E",
                "txn",
                f"T{txn.txid}",
                pid=f"txn:{self.name}",
                args={"outcome": f"abort:{reason}"},
            )

    def commit(self, task: Task, txn: Transaction) -> Generator:
        """Commit; returns the commit timestamp or raises
        :class:`TxnAborted` (the transaction is already cleaned up)."""
        self._check_active(txn)
        if not txn.writes:
            # Read-only: nothing to validate or install. It still
            # enters the history — its reads are wr/rw edge endpoints
            # for the offline checker — but it can never be a pivot
            # (no writes, no incoming rw edge), and a read that raised
            # an edge onto a settled pivot has aborted it already.
            return self._finalize(txn)
        # Validation: no yield from here until the commit is queued.
        # First-committer-wins: any version of a write-set key newer
        # than our snapshot, published or pending, aborts us.
        for key in sorted(txn.writes):
            writer = self._newer_writer(txn, key)
            if writer is not None:
                self._abort(txn, "ww-conflict")
                raise TxnAborted(
                    txn.txid,
                    "ww-conflict",
                    f"{key!r} written by T{writer} after our snapshot",
                )
        # Refresh rw edges from readers (key-granular or range)
        # that observed state after our writes were buffered.
        for key in sorted(txn.writes):
            self._note_write_edges(txn, key)
        self._abort_if_doomed(txn)
        if self.mode == "ssi":
            found = self.graph.pivot(txn.txid)
            if found is not None:
                detail, reason = found
                self._abort(txn, reason)
                raise TxnAborted(txn.txid, reason, detail)
        commit_ts = txn.commit_ts = self._tick()
        per_group: Dict[int, List[Tuple[bytes, bytes]]] = {}
        for key in sorted(txn.writes):
            per_group.setdefault(self.locate(key), []).append(
                (key, txn.writes[key])
            )
        staged = {
            index: self.stores[index].stage(items, commit_ts, txn.txid)
            for index, items in sorted(per_group.items())
        }
        pending = _Pending(txn, per_group, Event(self.sim, f"{self.name}.publish"))
        self._pending[txn.txid] = pending
        for index, changes in staged.items():
            self._queues[index].staged.append((pending, changes))
        yield from self._install(task, pending)
        if txn.status != "committed":  # a failed batch, or a reset
            if pending.error is not None:
                raise pending.error
            self._check_active(txn)
        return commit_ts

    def _newer_writer(self, txn: Transaction, key: bytes) -> Optional[int]:
        """The txid of a published, else pending, version of ``key``
        newer than ``txn``'s snapshot."""
        latest = self.stores[self.locate(key)].latest(key)
        if latest is not None and latest.commit_ts > txn.snapshot_ts:
            return latest.txid
        for pending in self._pending.values():
            other = pending.txn
            if other.commit_ts > txn.snapshot_ts and key in other.writes:
                return other.txid
        return None

    def _earlier_writer(self, txn: Transaction, covers) -> Optional[_Pending]:
        """The newest pending commit before ``txn``'s snapshot whose
        write set ``covers`` accepts (once it publishes, so has every
        earlier one)."""
        for pending in reversed(self._pending.values()):
            if pending.txn.commit_ts < txn.snapshot_ts and covers(pending.txn.writes):
                return pending
        return None

    def _await_earlier(self, task: Task, txn: Transaction, covers) -> Generator:
        """Park while :meth:`_earlier_writer` finds a commit; returns
        whether it parked."""
        parked = False
        while True:
            pending = self._earlier_writer(txn, covers)
            if pending is None:
                return parked
            yield from task.wait(pending.done)
            # A failover reset wakes every waiter.
            self._check_active(txn)
            parked = True

    def _install(self, task: Task, pending: _Pending) -> Generator:
        """Get the commit's installs moving, then park until it has
        published or died.

        Each participant group with no batch in flight needs a writer:
        the committer writes the last such group's next batch itself,
        and spawns a flusher task (:meth:`_flush`) for the others; if
        more has queued behind its batch, a flusher takes over.
        """
        lead = None
        for index in sorted(pending.per_group):
            queue = self._queues[index]
            if not queue.busy:
                queue.busy = True
                if lead is not None:
                    self._spawn_flusher(task, *lead)
                lead = (index, queue)
        if lead is not None:
            index, queue = lead
            yield from self._write_batch(task, index, queue)
            if queue.staged and queue is self._queues[index]:
                self._spawn_flusher(task, index, queue)
            else:
                queue.busy = False
        yield from task.wait(pending.done)

    def _spawn_flusher(self, task: Task, index: int, queue: _InstallQueue) -> None:
        task.os.spawn(
            lambda sub: self._flush(sub, index, queue),
            name=f"{self.name}.install.g{index}",
        )

    def _flush(self, task: Task, index: int, queue: _InstallQueue) -> Generator:
        """Write group ``index``'s queued batches until the queue is
        empty or a reset has replaced it."""
        while queue.staged and queue is self._queues[index]:
            yield from self._write_batch(task, index, queue)
        queue.busy = False

    def _write_batch(self, task: Task, index: int, queue: _InstallQueue) -> Generator:
        """Install the commits at the front of group ``index``'s queue
        as one batch, then publish whatever that made ready.

        A batch is everything queued since the previous one started,
        cut only where the next commit would not fit the same WAL
        record. Nothing is left to tune: a lone commit is a batch of
        one, the same two ack waits (``[1, n]`` group ops, the previous
        batch's head advance riding with the record) as an unbatched
        install.
        """
        store = self.stores[index]
        staged = queue.staged
        batch = [staged.popleft()]
        while staged and store.fits([c for _, c in batch] + [staged[0][1]]):
            batch.append(staged.popleft())
        if TRACER.enabled:
            TRACER.count("txn.install_batch")
            TRACER.count("txn.install_batched", len(batch))
        try:
            yield from store.install(task, [changes for _, changes in batch])
        except Exception as exc:
            # These never publish; the commits behind them may.
            for pending, _ in batch:
                if self._pending.pop(pending.txn.txid, None) is not None:
                    self._abort(pending.txn, "install-failed")
                    pending.error = exc
                    pending.done.succeed()
            self._publish_ready()
            return
        if queue is self._queues[index]:  # else they died with their epoch
            for pending, _ in batch:
                pending.installing.discard(index)
            self._publish_ready()

    def _publish_ready(self) -> None:
        """Publish, in commit order, each pending commit installed on
        all its groups with no earlier one still pending. Synchronous:
        a transaction's versions all appear at once to every task."""
        while self._pending:
            txid, pending = next(iter(self._pending.items()))
            if pending.installing:
                return
            del self._pending[txid]
            txn = pending.txn
            for index, items in sorted(pending.per_group.items()):
                self.stores[index].publish(items, txn.commit_ts, txid)
            self._finalize(txn, txn.commit_ts)
            pending.done.succeed()

    def _finalize(self, txn: Transaction, commit_ts: Optional[int] = None) -> int:
        if commit_ts is None:
            commit_ts = self._tick()
        txn.status = "committed"
        self.active.pop(txn.txid, None)
        for obs in txn.observations:
            if obs["kind"] == "own-write" and obs["key"] not in txn.writes:
                self.read_violations.append(obs)
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
        self.commits += 1
        if TRACER.enabled:
            TRACER.count("txn.commit")
            TRACER.record(
                self.sim.now,
                "E",
                "txn",
                f"T{txn.txid}",
                pid=f"txn:{self.name}",
                args={"outcome": "commit", "commit_ts": commit_ts},
            )
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

    # -- failover ------------------------------------------------------------------

    def reset_after_failover(self, task: Task, index: int, new_group) -> Generator:
        """Re-point group ``index`` at its repaired chain and clean up.

        Every transaction of the old epoch aborts (resumable stragglers
        die at their next ``_check_active``), which leaves nothing live
        and so retires every committed transaction from the SSI graph.
        Every pending commit is failed — its committer and every reader
        parked on it wake, and it never publishes — and every group's
        install queue is replaced: a flusher parked forever on the dead
        chain's ack keeps the old one, and a healthy group's flusher
        finishes its batch and stops. The store rebinds and drains its
        pending records. Returns drained-record count.
        """
        self.epoch += 1
        for txn in list(self.active.values()):
            self._abort(txn, "failover")
        pending, self._pending = self._pending, {}
        self._queues = [_InstallQueue() for _ in self.stores]
        for entry in pending.values():
            entry.done.succeed()
        store = self.stores[index]
        store.rebind(new_group)
        executed = yield from store.recover(task)
        if TRACER.enabled:
            TRACER.count("txn.failover_reset")
        return executed

    # -- introspection -------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "commits": self.commits,
            "aborts_ww": self.aborts_ww,
            "aborts_ssi": self.aborts_ssi,
            "aborts_phantom": self.aborts_phantom,
            "aborts_unavailable": self.aborts_unavailable,
            "aborts_failover": self.aborts_failover,
            "aborts_install": self.aborts_install,
            "aborts_user": self.aborts_user,
        }
